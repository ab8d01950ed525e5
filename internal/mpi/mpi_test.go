package mpi_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/sim"
)

type env struct {
	eng *sim.Engine
	c   *kernel.Cluster
	sys *dmtcp.System
}

func newEnv(t *testing.T, nodes int, cfg dmtcp.Config) *env {
	t.Helper()
	eng := sim.NewEngine(5)
	c := kernel.NewCluster(eng, model.Default(), nodes)
	kernel.StartInfra(c)
	sys := dmtcp.Install(c, cfg)
	mpi.RegisterPrograms(c)
	npb.Register(c)
	if err := sys.SpawnCoordinator(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Shutdown)
	return &env{eng: eng, c: c, sys: sys}
}

func (e *env) drive(t *testing.T, fn func(*kernel.Task)) {
	t.Helper()
	e.c.RegisterFunc("driver", func(task *kernel.Task, _ []string) {
		task.Compute(time.Millisecond)
		fn(task)
		e.eng.Stop()
	})
	if _, err := e.c.Node(0).Kern.Spawn("driver", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// rankMain adapts a raw World test body into a rank program.
func rankProg(body func(w *mpi.World)) kernel.Program {
	return kernel.ProgramFunc(func(t *kernel.Task, args []string) {
		ra, err := mpi.ParseRankArgs(args)
		if err != nil {
			t.Printf("rank: %v\n", err)
			return
		}
		peers := mpi.MergePeers(
			mpi.AllPeers(ra.Rank, ra.Layout.Size),
			mpi.TreePeers(ra.Rank, ra.Layout.Size))
		w, err := mpi.Init(t, ra.Rank, ra.Layout, peers)
		if err != nil {
			t.Printf("rank init: %v\n", err)
			return
		}
		body(w)
	})
}

// spawnRanks launches size copies of prog directly (no launchers).
func spawnRanks(t *testing.T, e *env, prog string, layout mpi.Layout) {
	t.Helper()
	for r := 0; r < layout.Size; r++ {
		ra := mpi.RankArgs{Rank: r, Layout: layout, DoneAddr: kernel.Addr{Host: "node00", Port: 9999}}
		node := e.c.LookupHost(layout.HostOf(r))
		if _, err := node.Kern.Spawn(prog, ra.Format(), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorldPointToPoint(t *testing.T) {
	e := newEnv(t, 2, dmtcp.Config{})
	results := make(map[int]string)
	e.c.Register("xchg", rankProg(func(w *mpi.World) {
		peer := 1 - w.Rank
		out := []byte(fmt.Sprintf("hello from %d", w.Rank))
		in, err := w.Sendrecv(peer, 7, out, make([]byte, 0, 64))
		if err != nil {
			results[w.Rank] = "err: " + err.Error()
			return
		}
		results[w.Rank] = string(in)
	}))
	e.drive(t, func(task *kernel.Task) {
		spawnRanks(t, e, "xchg", mpi.Layout{Size: 2, PerNode: 1})
		task.Compute(200 * time.Millisecond)
	})
	if results[0] != "hello from 1" || results[1] != "hello from 0" {
		t.Fatalf("results = %v", results)
	}
}

func TestCollectives(t *testing.T) {
	e := newEnv(t, 2, dmtcp.Config{})
	const np = 8
	sums := make([]float64, np)
	gathered := make(chan [][]byte, 1)
	e.c.Register("coll", rankProg(func(w *mpi.World) {
		if err := w.Barrier(); err != nil {
			return
		}
		v, err := w.Allreduce([]float64{float64(w.Rank + 1)}, mpi.OpSum)
		if err != nil {
			return
		}
		sums[w.Rank] = v[0]
		b, err := w.Bcast([]byte("root says hi"))
		if err != nil || string(b) != "root says hi" {
			sums[w.Rank] = -1
			return
		}
		g, err := w.Gather([]byte{byte(w.Rank * 2)})
		if err != nil {
			sums[w.Rank] = -2
			return
		}
		if w.Rank == 0 {
			gathered <- g
		}
		all, err := w.Alltoall(func(dst int) []byte { return []byte{byte(w.Rank), byte(dst)} })
		if err != nil {
			sums[w.Rank] = -3
			return
		}
		for src, b := range all {
			if int(b[0]) != src || int(b[1]) != w.Rank {
				sums[w.Rank] = -4
			}
		}
	}))
	e.drive(t, func(task *kernel.Task) {
		spawnRanks(t, e, "coll", mpi.Layout{Size: np, PerNode: 4})
		task.Compute(500 * time.Millisecond)
	})
	want := float64(np * (np + 1) / 2)
	for r := 0; r < np; r++ {
		if sums[r] != want {
			t.Fatalf("rank %d allreduce = %v, want %v", r, sums[r], want)
		}
	}
	select {
	case g := <-gathered:
		for r := 0; r < np; r++ {
			if len(g[r]) != 1 || g[r][0] != byte(r*2) {
				t.Fatalf("gather[%d] = %v", r, g[r])
			}
		}
	default:
		t.Fatal("gather never completed")
	}
}

func TestHelloUnderMPICH2(t *testing.T) {
	e := newEnv(t, 2, dmtcp.Config{})
	var managedPeak int
	e.drive(t, func(task *kernel.Task) {
		// dmtcp_checkpoint mpdboot 2; then mpiexec (§3).
		p, err := e.sys.Launch(0, "mpdboot", "2")
		if err != nil {
			t.Error(err)
			return
		}
		task.WatchExit(p)
		mx, err := e.sys.Launch(0, "mpiexec", "4", "2", "0", strconv.Itoa(mpi.BasePort), "mpi-hello")
		if err != nil {
			t.Error(err)
			return
		}
		// Sample the managed-process count while the job runs.
		for i := 0; i < 50 && !mx.Dead && !mx.Zombie; i++ {
			if n := e.sys.NumManaged(); n > managedPeak {
				managedPeak = n
			}
			task.Compute(20 * time.Millisecond)
		}
		code := task.WatchExit(mx)
		if code != 0 {
			t.Errorf("mpiexec exited %d", code)
		}
	})
	// Expected process tree: 2 mpds + 4 proxies + 4 ranks + mpiexec.
	if managedPeak < 11 {
		t.Fatalf("managed peak = %d, want ≥11 (mpds+proxies+ranks+mpiexec)", managedPeak)
	}
	ino, err := e.c.Node(0).FS.ReadFile("/out/mpi-hello.verify")
	if err != nil {
		t.Fatal("no verify file")
	}
	k := &npb.Kernel{}
	for _, s := range npb.Benchmarks {
		if s.Name == "mpi-hello" {
			k.Spec = s
		}
	}
	if string(ino.Data) != k.FormatVerify(4) {
		t.Fatalf("verify = %q, want %q", ino.Data, k.FormatVerify(4))
	}
}

func TestNASKernelCheckpointRestartUnderOpenMPI(t *testing.T) {
	e := newEnv(t, 2, dmtcp.Config{Compress: true})
	e.drive(t, func(task *kernel.Task) {
		// orterun nas-lu np=4 at 2% of class C so writes stay small.
		mx, err := e.sys.Launch(0, "orterun", "4", "2", "0", strconv.Itoa(mpi.BasePort), "nas-lu", "2")
		if err != nil {
			t.Error(err)
			return
		}
		task.Compute(250 * time.Millisecond) // mid-computation
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		// orterun + 2 orteds + 4 ranks = 7 (plus transient ssh procs).
		if round.NumProcs < 7 {
			t.Errorf("checkpointed %d processes, want ≥7", round.NumProcs)
		}
		task.Compute(50 * time.Millisecond)
		e.sys.KillManaged()
		_ = mx
		if _, err := e.sys.RestartAll(task, round, nil); err != nil {
			t.Error(err)
			return
		}
		// Let the restored job run to completion: the restored
		// orterun exits once every rank reports done.
		deadline := task.Now().Add(60 * time.Second)
		for task.Now() < deadline {
			if e.c.Node(0).FS.Exists("/out/nas-lu.verify") {
				break
			}
			task.Compute(100 * time.Millisecond)
		}
	})
	ino, err := e.c.Node(0).FS.ReadFile("/out/nas-lu.verify")
	if err != nil {
		t.Fatal("nas-lu never verified after restart")
	}
	spec, _ := npb.SpecFor("nas-lu")
	k := &npb.Kernel{Spec: spec}
	if string(ino.Data) != k.FormatVerify(4) {
		t.Fatalf("verify = %q, want %q (stream not exactly-once)", ino.Data, k.FormatVerify(4))
	}
}

// scribbleProg is a two-rank program that overwrites what Sendrecv
// returned, and its receive buffer, then idles before its Commit until
// the test has checkpointed and killed it.  Rank 0's buffer fits the
// message (the result aliases it); rank 1's does not.
type scribbleProg struct {
	size   int
	parked map[int]bool
	got    map[string][]byte // "rank r first" / "rank r replay"
}

func scribblePayload(rank, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*31 + i%251)
	}
	return b
}

func (p *scribbleProg) exchange(w *mpi.World, label string) {
	bufLen := p.size
	if w.Rank == 1 {
		bufLen = 16
	}
	in := make([]byte, bufLen)
	got, err := w.Sendrecv(1-w.Rank, 3, scribblePayload(w.Rank, p.size), in)
	if err != nil {
		return
	}
	p.got[fmt.Sprintf("rank %d %s", w.Rank, label)] = append([]byte(nil), got...)
	for i := range got {
		got[i] = 0xEE
	}
	for i := range in {
		in[i] = 0xEE
	}
}

func (p *scribbleProg) Main(t *kernel.Task, args []string) {
	ra, err := mpi.ParseRankArgs(args)
	if err != nil {
		return
	}
	w, err := mpi.Init(t, ra.Rank, ra.Layout, []int{1 - ra.Rank})
	if err != nil {
		return
	}
	w.Commit(nil)
	p.exchange(w, "first")
	p.parked[w.Rank] = true
	for {
		t.Compute(10 * time.Millisecond)
	}
}

func (p *scribbleProg) Restore(t *kernel.Task, state []byte) {
	w, _, err := mpi.Resume(t, state)
	if err != nil {
		t.Printf("resume: %v\n", err)
		return
	}
	p.exchange(w, "replay")
	w.Commit(nil)
}

// TestReplayAfterOverwrite guards the rule that the reassembly log, the
// rollback record, never aliases a caller's buffer: a rank that
// overwrites what Sendrecv returned, and its receive buffer, then is
// checkpointed before its Commit, re-reads the original bytes when it
// replays the receive after a restart.
func TestReplayAfterOverwrite(t *testing.T) {
	e := newEnv(t, 2, dmtcp.Config{})
	prog := &scribbleProg{size: 20 << 10, parked: map[int]bool{}, got: map[string][]byte{}}
	e.c.Register("scribble", prog)
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(0, "orterun", "2", "1", "0", strconv.Itoa(mpi.BasePort), "scribble"); err != nil {
			t.Error(err)
			return
		}
		deadline := task.Now().Add(5 * time.Second)
		for !(prog.parked[0] && prog.parked[1]) && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !(prog.parked[0] && prog.parked[1]) {
			t.Error("ranks never finished their first exchange")
			return
		}
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, round, nil); err != nil {
			t.Error(err)
			return
		}
		deadline = task.Now().Add(5 * time.Second)
		for len(prog.got) < 4 && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
	})
	for r := 0; r < 2; r++ {
		want := scribblePayload(1-r, prog.size)
		for _, label := range []string{"first", "replay"} {
			key := fmt.Sprintf("rank %d %s", r, label)
			got, ok := prog.got[key]
			switch {
			case !ok:
				t.Errorf("%s: no receive recorded", key)
			case !bytes.Equal(got, want):
				t.Errorf("%s: received %d bytes that differ from the %d sent", key, len(got), len(want))
			}
		}
	}
}

func TestNASKernelsVerifyUninterrupted(t *testing.T) {
	// Every kernel at tiny scale must self-verify without checkpoints.
	for _, name := range []string{"nas-ep", "nas-is", "nas-cg", "nas-mg"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 2, dmtcp.Config{})
			e.drive(t, func(task *kernel.Task) {
				mx, err := e.sys.Launch(0, "orterun", "4", "2", "0",
					strconv.Itoa(mpi.BasePort), name, "1")
				if err != nil {
					t.Error(err)
					return
				}
				if code := task.WatchExit(mx); code != 0 {
					t.Errorf("orterun exited %d", code)
				}
			})
			ino, err := e.c.Node(0).FS.ReadFile("/out/" + name + ".verify")
			if err != nil {
				t.Fatalf("no verify output for %s", name)
			}
			spec, _ := npb.SpecFor(name)
			k := &npb.Kernel{Spec: spec}
			if string(ino.Data) != k.FormatVerify(4) {
				t.Fatalf("verify = %q, want %q", ino.Data, k.FormatVerify(4))
			}
		})
	}
}

func TestRepeatedCheckpointsDuringNASRun(t *testing.T) {
	e := newEnv(t, 2, dmtcp.Config{Compress: false})
	e.drive(t, func(task *kernel.Task) {
		mx, err := e.sys.Launch(0, "orterun", "4", "2", "0", strconv.Itoa(mpi.BasePort), "nas-cg", "1")
		if err != nil {
			t.Error(err)
			return
		}
		// Checkpoint three times while the job runs; it must still
		// verify (checkpoints are transparent).
		for i := 0; i < 3; i++ {
			task.Compute(120 * time.Millisecond)
			if _, err := e.sys.Checkpoint(task); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
		if code := task.WatchExit(mx); code != 0 {
			t.Errorf("orterun exited %d", code)
		}
	})
	ino, err := e.c.Node(0).FS.ReadFile("/out/nas-cg.verify")
	if err != nil {
		t.Fatal("no verify output")
	}
	spec, _ := npb.SpecFor("nas-cg")
	k := &npb.Kernel{Spec: spec}
	if string(ino.Data) != k.FormatVerify(4) {
		t.Fatalf("verify = %q, want %q", ino.Data, k.FormatVerify(4))
	}
}

func TestVerifyStringsDiffer(t *testing.T) {
	// Sanity: expected checksums distinguish kernels and sizes.
	seen := map[string]bool{}
	for _, s := range npb.Benchmarks {
		k := &npb.Kernel{Spec: s}
		for _, np := range []int{4, 8} {
			v := k.FormatVerify(np)
			if seen[v] {
				t.Fatalf("duplicate verify string %q", v)
			}
			seen[v] = true
			if !strings.Contains(v, s.Name) {
				t.Fatalf("verify %q missing name", v)
			}
		}
	}
}
