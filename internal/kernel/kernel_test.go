package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// testEnv bundles a cluster whose engine stops when the designated
// main program finishes.
type testEnv struct {
	eng *sim.Engine
	c   *Cluster
}

func newEnv(t *testing.T, nodes int) *testEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	c := NewCluster(eng, model.Default(), nodes)
	t.Cleanup(eng.Shutdown)
	return &testEnv{eng: eng, c: c}
}

// run registers main as a program, spawns it on node 0, and runs the
// simulation until it finishes.
func (te *testEnv) run(t *testing.T, main func(*Task)) {
	t.Helper()
	te.c.RegisterFunc("test-main", func(task *Task, _ []string) {
		main(task)
		te.eng.Stop()
	})
	if _, err := te.c.Node(0).Kern.Spawn("test-main", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := te.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnExitWait(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		pid := task.ForkFn("child", func(ct *Task) {
			ct.Compute(time.Millisecond)
			ct.Exit(7)
		})
		code, err := task.WaitPid(pid)
		if err != nil {
			t.Errorf("waitpid: %v", err)
		}
		if code != 7 {
			t.Errorf("exit code = %d, want 7", code)
		}
	})
}

func TestWaitAnyReapsAll(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		for i := 0; i < 3; i++ {
			i := i
			task.ForkFn("c", func(ct *Task) { ct.Exit(i) })
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			_, code, err := task.WaitAny()
			if err != nil {
				t.Errorf("wait: %v", err)
			}
			seen[code] = true
		}
		if len(seen) != 3 {
			t.Errorf("codes = %v", seen)
		}
		if _, _, err := task.WaitAny(); err == nil {
			t.Error("wait with no children should fail")
		}
	})
}

func TestForkCopiesMemorySharesShm(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		p := task.P
		a := task.MapAnon("[heap]", 4*model.MB, model.ClassData)
		a.Payload = []byte("parent")
		seg := task.ShmCreate("/dev/shm/seg1", 1*model.MB, model.ClassData)
		seg.Payload = []byte("shared-v1")

		done := make(chan struct{}) // host-side sync not needed; use wait
		_ = done
		pid := task.ForkFn("child", func(ct *Task) {
			ca := ct.P.Mem.Area("[heap]")
			if string(ca.Payload) != "parent" {
				t.Errorf("child heap payload = %q", ca.Payload)
			}
			ca.Payload = []byte("child")
			cs := ct.P.Mem.Area("/dev/shm/seg1")
			if cs.Seg != seg {
				t.Error("child shm not shared")
			}
			cs.Seg.Payload = []byte("shared-v2")
			ct.Exit(0)
		})
		task.WaitPid(pid)
		if string(p.Mem.Area("[heap]").Payload) != "parent" {
			t.Error("child write leaked into parent private area")
		}
		if string(seg.Payload) != "shared-v2" {
			t.Error("shared segment write not visible to parent")
		}
	})
}

func TestTCPRoundtripAndEOF(t *testing.T) {
	te := newEnv(t, 2)
	te.c.RegisterFunc("server", func(task *Task, _ []string) {
		lfd, err := task.ListenTCP(9000)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		cfd, err := task.Accept(lfd)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		data, err := task.RecvN(cfd, 5)
		if err != nil || string(data) != "hello" {
			t.Errorf("server recv = %q, %v", data, err)
		}
		task.Send(cfd, []byte("world"))
		task.Close(cfd)
	})
	te.c.Node(1).Kern.Spawn("server", nil, nil)
	te.run(t, func(task *Task) {
		fd := task.Socket()
		if err := task.Connect(fd, Addr{Host: "node01", Port: 9000}); err != nil {
			t.Fatalf("connect: %v", err)
		}
		task.Send(fd, []byte("hello"))
		data, err := task.RecvN(fd, 5)
		if err != nil || string(data) != "world" {
			t.Errorf("client recv = %q, %v", data, err)
		}
		if _, err := task.Recv(fd, 10); err != io.EOF {
			t.Errorf("expected EOF after peer close, got %v", err)
		}
	})
}

func TestConnectRefused(t *testing.T) {
	te := newEnv(t, 2)
	te.run(t, func(task *Task) {
		fd := task.Socket()
		err := task.Connect(fd, Addr{Host: "node01", Port: 12345})
		if !errors.Is(err, ErrConnRefused) {
			t.Errorf("err = %v, want refused", err)
		}
		err = task.Connect(task.Socket(), Addr{Host: "nosuch", Port: 1})
		if !errors.Is(err, ErrConnRefused) {
			t.Errorf("unknown host err = %v", err)
		}
	})
}

func TestFlowControlWindowBounded(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, b := task.SocketPair()
		bufCap := int(task.P.params().SocketBufBytes)
		payload := bytes.Repeat([]byte("x"), 3*bufCap)
		var sent bool
		task.P.SpawnTask("sender", false, func(st *Task) {
			st.Send(a, payload)
			sent = true
		})
		// Give the sender time: it must stall with ≤ bufCap in flight.
		task.Compute(100 * time.Millisecond)
		ep, _ := task.streamFor(b)
		if got := ep.Buffered() + int(ep.InFlight()); got > bufCap {
			t.Errorf("window overrun: %d > %d", got, bufCap)
		}
		if sent {
			t.Error("sender completed without receiver draining")
		}
		got, err := task.RecvN(b, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("stream corrupted: %d bytes, %v", len(got), err)
		}
	})
}

func TestRecvTimeout(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, _ := task.SocketPair()
		start := task.Now()
		_, err := task.RecvTimeout(a, 10, sim.Time(50*time.Millisecond))
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want timeout", err)
		}
		if el := task.Now().Sub(start); el < 50*time.Millisecond {
			t.Errorf("returned too early: %v", el)
		}
	})
}

// Property: arbitrary chunked writes arrive intact and in order.
func TestStreamIntegrityProperty(t *testing.T) {
	prop := func(chunks [][]byte) bool {
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		if len(want) > 1<<18 {
			return true // keep runtime bounded
		}
		ok := true
		te := newEnv(t, 2)
		te.c.RegisterFunc("sink", func(task *Task, _ []string) {
			lfd, _ := task.ListenTCP(9001)
			cfd, _ := task.Accept(lfd)
			got, err := task.RecvN(cfd, len(want))
			if err != nil || !bytes.Equal(got, want) {
				ok = false
			}
		})
		te.c.Node(1).Kern.Spawn("sink", nil, nil)
		te.run(t, func(task *Task) {
			fd := task.Socket()
			if err := task.Connect(fd, Addr{Host: "node01", Port: 9001}); err != nil {
				ok = false
				return
			}
			for _, c := range chunks {
				task.Send(fd, c)
			}
			// Wait for the sink to finish reading.
			task.Compute(2 * time.Second)
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPipeRoundtripAndEOF(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		r, w := task.Pipe()
		task.P.SpawnTask("writer", false, func(wt *Task) {
			wt.PipeWrite(w, []byte("through the pipe"))
			wt.Close(w)
		})
		var got []byte
		for {
			chunk, err := task.PipeRead(r, 4)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read: %v", err)
				break
			}
			got = append(got, chunk...)
		}
		if string(got) != "through the pipe" {
			t.Errorf("got %q", got)
		}
	})
}

func TestPtyModesAndData(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		mfd, name := task.Openpt()
		sfd, err := task.OpenPts(name)
		if err != nil {
			t.Fatalf("openpts: %v", err)
		}
		modes, _ := task.TcGetAttr(sfd)
		if !modes.Echo || !modes.Canon {
			t.Error("default termios should be echo+canon")
		}
		modes.Echo = false
		task.TcSetAttr(sfd, modes)
		if m2, _ := task.TcGetAttr(mfd); m2.Echo {
			t.Error("termios change not shared between ends")
		}
		if err := task.SetCtrlTerminal(sfd); err != nil {
			t.Errorf("setctty: %v", err)
		}
		task.Send(mfd, []byte("ls\n"))
		got, err := task.RecvN(sfd, 3)
		if err != nil || string(got) != "ls\n" {
			t.Errorf("slave got %q, %v", got, err)
		}
	})
}

func TestFileIOAndSanRouting(t *testing.T) {
	te := newEnv(t, 2)
	te.c.Node(0).SANDirect = true
	te.run(t, func(task *Task) {
		fd, _ := task.Create("/tmp/x")
		task.Write(fd, []byte("abcdef"))
		task.Close(fd)
		fd2, err := task.Open("/tmp/x")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := task.Read(fd2, 6)
		if string(got) != "abcdef" {
			t.Errorf("read back %q", got)
		}
		// /san files are visible cluster-wide.
		task.WriteFileAll("/san/shared.txt", []byte("central"), 0)
		if !te.c.Node(1).FS.Exists("/san/shared.txt") {
			t.Error("/san file not visible from other node")
		}
		// Large local write must consume virtual time (disk model).
		start := task.Now()
		task.WriteFileAll("/tmp/big", nil, 240*model.MB)
		if el := task.Now().Sub(start); el < 500*time.Millisecond {
			t.Errorf("240MB write took only %v", el)
		}
	})
}

func TestFcntlOwnerSharedAcrossFork(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, _ := task.SocketPair()
		task.Fcntl(a, FSetOwn, task.P.Pid)
		pid := task.ForkFn("child", func(ct *Task) {
			// Shared description: child sees the parent's owner, then
			// overwrites it (last-writer-wins election primitive).
			if own, _ := ct.Fcntl(a, FGetOwn, 0); own != ct.P.PPid {
				t.Errorf("child sees owner %d, want parent pid %d", own, ct.P.PPid)
			}
			ct.Fcntl(a, FSetOwn, ct.P.Pid)
			ct.Exit(0)
		})
		task.WaitPid(pid)
		if own, _ := task.Fcntl(a, FGetOwn, 0); own != pid {
			t.Errorf("parent sees owner %d, want child pid %d (last writer)", own, pid)
		}
	})
}

func TestDup2AndRefcounts(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, b := task.SocketPair()
		of, _ := task.P.FD(a)
		if of.Refs() != 1 {
			t.Fatalf("refs = %d", of.Refs())
		}
		task.Dup2(a, 10)
		if of.Refs() != 2 {
			t.Fatalf("refs after dup2 = %d", of.Refs())
		}
		task.Close(a)
		if of.Refs() != 1 {
			t.Fatalf("refs after close = %d", of.Refs())
		}
		// Writing via the dup'd descriptor still works.
		task.Send(10, []byte("via dup"))
		got, _ := task.RecvN(b, 7)
		if string(got) != "via dup" {
			t.Errorf("got %q", got)
		}
		task.Close(10)
		if _, err := task.Recv(b, 1); err != io.EOF {
			t.Errorf("expected EOF after last ref closed, got %v", err)
		}
	})
}

func TestForkSharesSocketDescriptions(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, b := task.SocketPair()
		pid := task.ForkFn("child", func(ct *Task) {
			ct.Send(a, []byte("from child"))
			ct.Exit(0)
		})
		task.WaitPid(pid)
		got, err := task.RecvN(b, 10)
		if err != nil || string(got) != "from child" {
			t.Errorf("got %q, %v", got, err)
		}
	})
}

func TestSSHRemoteSpawnCarriesEnv(t *testing.T) {
	te := newEnv(t, 2)
	StartInfra(te.c)
	gotEnv := make(chan string, 1)
	te.c.RegisterFunc("remote-job", func(task *Task, args []string) {
		gotEnv <- task.P.Env["MARKER"] + "/" + args[0]
	})
	te.run(t, func(task *Task) {
		task.P.Env["MARKER"] = "m1"
		if err := task.SSHSpawn("node01", "remote-job", "arg0"); err != nil {
			t.Fatalf("ssh: %v", err)
		}
		task.Compute(10 * time.Millisecond)
	})
	select {
	case v := <-gotEnv:
		if v != "m1/arg0" {
			t.Errorf("remote job saw %q", v)
		}
	default:
		t.Error("remote job never ran")
	}
}

// recordingHooks verifies interposition coverage.
type recordingHooks struct {
	BaseHooks
	events *[]string
	vpid   Pid
}

func (h *recordingHooks) Start(t *Task) { *h.events = append(*h.events, "start") }
func (h *recordingHooks) PostSocket(t *Task, fd int, of *OpenFile) {
	*h.events = append(*h.events, fmt.Sprintf("socket:%d", fd))
}
func (h *recordingHooks) PostConnect(t *Task, fd int, of *OpenFile) {
	*h.events = append(*h.events, "connect")
}
func (h *recordingHooks) PostAccept(t *Task, fd int, of *OpenFile) {
	*h.events = append(*h.events, "accept")
}
func (h *recordingHooks) RewriteExec(t *Task, prog string, args []string) (string, []string) {
	*h.events = append(*h.events, "exec:"+prog)
	return prog, args
}
func (h *recordingHooks) Getpid(p *Process) (Pid, bool) { return h.vpid, true }
func (h *recordingHooks) PipeOverride(t *Task) (int, int, bool) {
	*h.events = append(*h.events, "pipe-promoted")
	a, b := t.SocketPair()
	return a, b, true
}

func TestHooksInstallAndInterpose(t *testing.T) {
	te := newEnv(t, 2)
	var events []string
	te.c.HookFactory = func(p *Process) Hooks {
		return &recordingHooks{events: &events, vpid: 4242}
	}
	te.c.RegisterFunc("noop", func(task *Task, _ []string) {})
	te.c.RegisterFunc("hooked", func(task *Task, _ []string) {
		if task.Getpid() != 4242 {
			t.Error("getpid not virtualized")
		}
		fd := task.Socket()
		_ = fd
		r, w := task.Pipe()
		_, _ = r, w
		pid := task.ForkFn("c", func(ct *Task) {
			ct.Exec("noop", nil)
		})
		task.WaitPid(pid)
		te.eng.Stop()
	})
	env := map[string]string{LDPreloadVar: HijackLib}
	if _, err := te.c.Node(0).Kern.Spawn("hooked", nil, env); err != nil {
		t.Fatal(err)
	}
	if err := te.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"start": true, "socket:3": true, "pipe-promoted": true, "exec:noop": true}
	for w := range want {
		found := false
		for _, ev := range events {
			if ev == w {
				found = true
			}
		}
		if !found {
			t.Errorf("hook event %q missing from %v", w, events)
		}
	}
}

// conflictHooks forces one PostFork rejection to exercise the
// re-fork path (§4.5 virtual pid conflicts).
type conflictHooks struct {
	BaseHooks
	rejected *int
}

func (h *conflictHooks) PostFork(parent, child *Process) bool {
	if *h.rejected == 0 {
		*h.rejected = int(child.Pid)
		return false
	}
	return true
}

func TestForkRetryOnPidConflict(t *testing.T) {
	te := newEnv(t, 1)
	rejected := 0
	te.c.HookFactory = func(p *Process) Hooks { return &conflictHooks{rejected: &rejected} }
	te.c.RegisterFunc("forker", func(task *Task, _ []string) {
		pid := task.ForkFn("child", func(ct *Task) { ct.Exit(0) })
		if int(pid) == rejected {
			t.Errorf("conflicting pid %d reused", pid)
		}
		task.WaitPid(pid)
		te.eng.Stop()
	})
	env := map[string]string{LDPreloadVar: HijackLib}
	te.c.Node(0).Kern.Spawn("forker", nil, env)
	if err := te.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rejected == 0 {
		t.Fatal("PostFork rejection never exercised")
	}
}

func TestCriticalSectionBlocksDuringPendingCkpt(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		p := task.P
		var entered sim.Time
		worker := p.SpawnTask("worker", false, func(wt *Task) {
			wt.Compute(10 * time.Millisecond) // pending set at 5ms
			wt.BeginCritical()
			entered = wt.Now()
			wt.EndCritical()
		})
		task.Compute(5 * time.Millisecond)
		p.CkptPending = true
		task.Compute(20 * time.Millisecond) // worker must be blocked now
		p.CkptPending = false
		p.ResumeW.WakeAll()
		worker.T.Join(task.T)
		if entered < sim.Time(25*time.Millisecond) {
			t.Errorf("critical section entered at %v during pending checkpoint", entered)
		}
	})
}

func TestSendContinuationCapturedWhenSuspended(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		a, b := task.SocketPair()
		bufCap := int(task.P.params().SocketBufBytes)
		payload := bytes.Repeat([]byte("z"), 2*bufCap)
		var sender *Task
		sender = task.P.SpawnTask("sender", false, func(st *Task) {
			st.Send(a, payload)
		})
		task.Compute(50 * time.Millisecond) // sender now stalled on window
		sender.T.Suspend()
		cont := sender.SendContinuation()
		if cont == nil {
			// NOTE: t.Fatal's Goexit would pass out of the sim thread
			// to the goroutine running the engine and end it mid-run,
			// leaving the engine unusable (see sim.Thread); report
			// and bail out normally instead.
			t.Error("no send continuation captured")
			sender.T.Resume()
			return
		}
		if cont.FD != a {
			t.Errorf("continuation fd = %d, want %d", cont.FD, a)
		}
		if len(cont.Remaining) == 0 || len(cont.Remaining) >= len(payload) {
			t.Errorf("continuation remaining = %d of %d", len(cont.Remaining), len(payload))
		}
		// The captured tail plus delivered bytes must reconstruct the
		// stream exactly.
		delivered := len(payload) - len(cont.Remaining)
		got, _ := task.RecvN(b, delivered)
		got = append(got, cont.Remaining...)
		if !bytes.Equal(got, payload) {
			t.Error("continuation does not reconstruct the stream")
		}
		sender.T.Resume()
	})
}

func TestConsoleStdout(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		task.Printf("hello %s", "console")
		task.Write(1, []byte("!"))
		if got := task.P.Stdout.String(); got != "hello console!" {
			t.Errorf("stdout = %q", got)
		}
	})
}

func TestProcessesListingAndKill(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		pid := task.ForkFn("spin", func(ct *Task) {
			for {
				ct.Compute(time.Second)
			}
		})
		if n := len(task.P.Kern.Processes()); n != 2 {
			t.Errorf("processes = %d, want 2", n)
		}
		if err := task.P.Kern.Kill(pid); err != nil {
			t.Errorf("kill: %v", err)
		}
		if _, code, err := task.WaitAny(); err != nil || code != 9 {
			t.Errorf("reaped code=%d err=%v", code, err)
		}
	})
}

func TestMapsListing(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		task.MapLib("/usr/lib/libm.so", 2*model.MB)
		task.MapAnon("[heap]", 8*model.MB, model.ClassData)
		maps := task.P.Mem.Maps()
		if len(maps) != 2 {
			t.Fatalf("maps = %v", maps)
		}
		if task.P.Mem.RSS() != 10*model.MB {
			t.Errorf("rss = %d", task.P.Mem.RSS())
		}
	})
}
