package dmtcp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/mtcp"
)

// Failure-injection and edge-case coverage for the checkpointing
// layers.

func TestCheckpointWithNoManagedProcesses(t *testing.T) {
	e := newEnv(t, 1, Config{})
	e.drive(t, func(task *kernel.Task) {
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Errorf("empty checkpoint: %v", err)
			return
		}
		if round.NumProcs != 0 {
			t.Errorf("procs = %d", round.NumProcs)
		}
	})
}

func TestProcessExitDuringSession(t *testing.T) {
	e := newEnv(t, 1, Config{})
	e.drive(t, func(task *kernel.Task) {
		// A short-lived app registers and exits; a later checkpoint
		// must not include (or wait for) the dead client.
		e.sys.Launch(0, "counter", "3", "/out/short")
		task.Compute(200 * time.Millisecond)
		if n := e.sys.NumManaged(); n != 0 {
			t.Errorf("managed after exit = %d", n)
		}
		e.sys.Launch(0, "counter", "1000", "/out/long")
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		if round.NumProcs != 1 {
			t.Errorf("procs = %d, want 1 (dead client excluded)", round.NumProcs)
		}
	})
}

func TestCorruptImageRejectedAtRestart(t *testing.T) {
	e := newEnv(t, 1, Config{})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "1000", "/out/corrupt")
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		// Flip a byte in the stored image.
		path := round.Images[0].Path
		ino, _ := e.c.Node(0).FS.ReadFile(path)
		bad := append([]byte(nil), ino.Data...)
		bad[len(bad)/2] ^= 0xff
		e.c.Node(0).FS.WriteFile(path, bad, ino.LogicalSize)
		if _, err := mtcp.Decode(bad); err == nil {
			t.Error("corrupt image decoded cleanly")
		}
		// The restart program hands the decoder's error to RestartAll
		// rather than wedging the cluster.
		e.sys.KillManaged()
		err = restartWithin(t, e, task, round, nil, 10*time.Second, nil)
		if !errors.Is(err, mtcp.ErrBadImage) {
			t.Errorf("restart of corrupt image: err = %v, want mtcp.ErrBadImage in its chain", err)
		}
	})
}

// TestRestartAllEndsItsGroup pins that RestartAll journals the end of
// its restart group however it returns — every host reported, a
// restart program failed, or a host's images were gone before its
// program could spawn — so a later takeover never resumes it.
func TestRestartAllEndsItsGroup(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// strike breaks the round, if at all, once its processes died.
		strike  func(e *env, round *CkptRound)
		place   Placement
		wantErr bool
	}{
		{name: "every host reported"},
		{
			name: "a restart program failed", wantErr: true,
			strike: func(e *env, round *CkptRound) { e.c.Node(1).FS.Unlink(round.Images[0].Path) },
		},
		{
			name: "images died with their node", cfg: Config{Store: true}, wantErr: true,
			strike: func(e *env, _ *CkptRound) { e.c.KillNode(1) }, place: Placement{"node01": 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 2, tc.cfg)
			e.drive(t, func(task *kernel.Task) {
				e.sys.Launch(1, "counter", "1000", "/out/group")
				task.Compute(50 * time.Millisecond)
				round, err := e.sys.Checkpoint(task)
				if err != nil {
					t.Error(err)
					return
				}
				e.sys.KillManaged()
				if tc.strike != nil {
					tc.strike(e, round)
				}
				err = restartWithin(t, e, task, round, tc.place, 10*time.Second, nil)
				if (err != nil) != tc.wantErr {
					t.Errorf("err = %v, want an error: %v", err, tc.wantErr)
				}
				if g := e.sys.Coord.st().Restart; g != nil {
					t.Errorf("restart group %s still armed after RestartAll returned", g.Gen)
				}
			})
		})
	}
}

func TestSecondCheckpointAfterRestart(t *testing.T) {
	e := newEnv(t, 1, Config{Compress: true})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "2000", "/out/second")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, r1, nil); err != nil {
			t.Error(err)
			return
		}
		task.Compute(50 * time.Millisecond)
		// The restored process must be checkpointable again.
		r2, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Errorf("second checkpoint: %v", err)
			return
		}
		if r2.NumProcs != 1 {
			t.Errorf("second round procs = %d", r2.NumProcs)
		}
		// And restartable again (checkpoint chains).
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, r2, nil); err != nil {
			t.Errorf("second restart: %v", err)
			return
		}
		task.Compute(100 * time.Millisecond)
		if e.sys.NumManaged() != 1 {
			t.Error("process lost after second restart")
		}
	})
}

func TestBackToBackCheckpointRequestsQueue(t *testing.T) {
	e := newEnv(t, 1, Config{})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "2000", "/out/b2b")
		task.Compute(50 * time.Millisecond)
		// Issue two requests without waiting: both rounds must
		// complete (the coordinator queues the second).
		done := 0
		for i := 0; i < 2; i++ {
			task.P.SpawnTask("req", false, func(rt *kernel.Task) {
				if _, err := e.sys.Checkpoint(rt); err == nil {
					done++
				}
			})
		}
		deadline := task.Now().Add(30 * time.Second)
		for done < 2 && task.Now() < deadline {
			task.Compute(50 * time.Millisecond)
		}
		if done != 2 {
			t.Errorf("completed requests = %d, want 2", done)
		}
		// Concurrent requests may be satisfied by a single round (both
		// waiters release when it completes); the queued follow-up
		// round, if any, must also finish without wedging the session.
		task.Compute(10 * time.Second)
		if n := len(e.sys.Coord.Rounds()); n < 1 || n > 2 {
			t.Errorf("coordinator rounds = %d", n)
		}
	})
}

func TestFcntlOwnersRestoredAfterCheckpoint(t *testing.T) {
	e := newEnv(t, 1, Config{})
	ownerOK := make(chan bool, 1)
	e.c.Register("ownapp", ownerProg{ok: ownerOK})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "ownapp")
		task.Compute(30 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Error(err)
			return
		}
		task.Compute(100 * time.Millisecond)
	})
	select {
	case ok := <-ownerOK:
		if !ok {
			t.Fatal("F_SETOWN value not restored after election (§4.3)")
		}
	default:
		t.Fatal("owner check never ran")
	}
}

type ownerProg struct{ ok chan bool }

func (o ownerProg) Main(t *kernel.Task, _ []string) {
	a, _ := t.SocketPair()
	const marker = kernel.Pid(31337)
	t.Fcntl(a, kernel.FSetOwn, marker)
	t.P.SaveState([]byte{0})
	for {
		t.Compute(20 * time.Millisecond)
		if own, _ := t.Fcntl(a, kernel.FGetOwn, 0); own == marker {
			select {
			case o.ok <- true:
			default:
			}
		} else {
			select {
			case o.ok <- false:
			default:
			}
		}
	}
}

func (o ownerProg) Restore(t *kernel.Task, _ []byte) {
	for {
		t.Compute(20 * time.Millisecond)
	}
}

func TestRestartScriptListsEveryHost(t *testing.T) {
	e := newEnv(t, 3, Config{})
	e.drive(t, func(task *kernel.Task) {
		for n := 0; n < 3; n++ {
			e.sys.Launch(kernel.NodeID(n), "counter", "1000", "/out/s")
		}
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		script := RestartScript(round)
		for _, host := range []string{"node00", "node01", "node02"} {
			if !strings.Contains(script, "ssh "+host+" dmtcp_restart") {
				t.Errorf("script missing host %s:\n%s", host, script)
			}
		}
	})
}

func TestVirtualPidConflictForcesRefork(t *testing.T) {
	e := newEnv(t, 1, Config{})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/vp")
		task.Compute(50 * time.Millisecond)
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
		task.Compute(50 * time.Millisecond)
		restored := e.sys.ManagedProcesses()
		if len(restored) != 1 {
			t.Fatalf("restored = %d", len(restored))
		}
		vpid := e.sys.ManagerOf(restored[0]).VirtPid()
		// A forked child of a NEW managed process whose real pid would
		// collide with the restored virtual pid must be re-forked to a
		// different pid.  Spawn forkers until pids pass the collision
		// window and verify no duplicate registrations happened.
		e.c.RegisterFunc("forker", func(ft *kernel.Task, _ []string) {
			for i := 0; i < 3; i++ {
				pid := ft.ForkFn("kid", func(ct *kernel.Task) { ct.Exit(0) })
				if pid == vpid && ft.P.Pid != restored[0].Pid {
					t.Errorf("child virtual pid %d collides with restored process", pid)
				}
				ft.WaitPid(pid)
			}
		})
		e.c.Node(0).Kern.Spawn("forker", nil, e.sys.CheckpointEnv())
		task.Compute(100 * time.Millisecond)
	})
}
