package dmtcp

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// Parallel pipelined write path coverage: worker stats and eager
// replication overlap surfacing in rounds, and the mid-stream
// node-kill contract.

// bigDirty is a Resumable workload with a large payload-less heap, so
// checkpoint writes take long enough to kill a node in the middle of.
type bigDirty struct{}

func (bigDirty) Main(t *kernel.Task, args []string) {
	mb := 96
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil && v > 0 {
			mb = v
		}
	}
	t.MapLib("/lib/libc.so", 4*model.MB)
	t.MapAnon("[heap]", int64(mb)*model.MB, model.ClassData)
	t.P.SaveState([]byte{1})
	bigDirtyIdle(t)
}

func (bigDirty) Restore(t *kernel.Task, _ []byte) { bigDirtyIdle(t) }

func bigDirtyIdle(t *kernel.Task) {
	for {
		t.Compute(20 * time.Millisecond)
	}
}

// TestPipelineRoundReportsWorkersAndOverlap pins the stats plumbing:
// a store-mode round written with CkptWorkers carries the worker count
// and the eagerly-replicated overlap bytes through the coordinator
// into the round record, and the generation still ends up fully
// replicated (watermark advanced) without an explicit fan-out wait
// between commit and the assertion window.
func TestPipelineRoundReportsWorkersAndOverlap(t *testing.T) {
	e := newEnv(t, 2, Config{Compress: true, Store: true, ReplicaFactor: 1, CkptWorkers: 4})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		e.sys.Launch(0, "bigdirty", "64")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		img := r1.Images[0]
		if img.Workers != 4 {
			t.Errorf("round image workers = %d, want 4", img.Workers)
		}
		if r1.OverlapBytes <= 0 {
			t.Errorf("no eager-replication overlap recorded: %+v", r1)
		}
		if r1.OverlapBytes > r1.Bytes {
			t.Errorf("overlap %d exceeds bytes written %d", r1.OverlapBytes, r1.Bytes)
		}
		e.sys.Replica.WaitIdle(task)
		name, gen, _ := store.NameForManifest(img.Path)
		if wm, ok := e.sys.StoreOn(e.c.Node(0)).ReplicationWatermark(name); !ok || wm < gen {
			t.Errorf("watermark = %d,%v after streamed fan-out, want >= %d", wm, ok, gen)
		}
		if st := e.sys.Replica.Stats; st.Generations < 1 || st.Pushes < 1 {
			t.Errorf("replica stats after streamed generation: %+v", st)
		}
	})
}

// TestKillNodeMidStreamOrphansAreGCable pins the eager-streaming
// safety contract: chunks streamed to a peer ahead of an uncommitted
// generation's manifest are plain unreferenced objects — the peer's
// mark-and-sweep reclaims them, and recovery from the last committed
// generation is never blocked by them.
func TestKillNodeMidStreamOrphansAreGCable(t *testing.T) {
	e := newEnv(t, 3, Config{Compress: true, Store: true, ReplicaFactor: 1, CkptWorkers: 2})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		e.sys.Launch(1, "bigdirty", "96")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)

		// Dirty everything and start a second round, killing the
		// writer's node mid-write: its chunks are streaming to node2
		// (the ring peer) with no committed manifest behind them.
		for _, p := range e.sys.ManagedProcesses() {
			if a := p.Mem.Area("[heap]"); a != nil {
				a.TouchFraction(1.0, 1)
			}
		}
		task.P.SpawnTask("req", false, func(rt *kernel.Task) {
			e.sys.Checkpoint(rt) // the round dies with the node; error is fine
		})
		task.Idle(1 * time.Second) // suspend ≈0.03 s, nothing to drain; write ≈1.7 s
		if killed := e.c.KillNode(1); killed == 0 {
			t.Fatal("node kill was a no-op")
		}

		// The peer now holds eagerly streamed orphans of the
		// uncommitted generation 2: unreferenced, hence GC-able.
		peer := store.Open(e.c.Node(2), store.Config{Root: e.sys.StoreRoot(), Compress: true})
		gc := peer.GC(task)
		if gc.Swept == 0 {
			t.Error("mid-stream kill left no sweepable orphans on the peer (stream never overlapped?)")
		}
		if gc.Live == 0 {
			t.Error("peer lost the committed generation's chunks")
		}

		// Recovery restarts from the committed, fully-replicated
		// generation 1 — the orphans neither block nor corrupt it.
		rec, err := e.sys.Recover(task)
		if err != nil {
			t.Fatalf("recover after mid-stream kill: %v", err)
		}
		if got := rec.Round.Images[0].Generation; got != r1.Images[0].Generation {
			t.Errorf("recovered from generation %d, want %d", got, r1.Images[0].Generation)
		}
		task.Compute(50 * time.Millisecond)
		if n := e.sys.NumManaged(); n != 1 {
			t.Errorf("managed processes after recovery = %d, want 1", n)
		}
	})
}
