package dmtcp

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// Lazy post-copy restore coverage: the happy-path residency contract,
// a demand fault racing the prefetcher while the serving holder dies,
// and a restored process exiting with the prefetch still draining.

// lazyTouch is bigDirty plus a post-restore access pattern: eight
// strided first-touch probes across the heap, most of which land ahead
// of the ascending background prefetch and demand-fault.
type lazyTouch struct{}

func (lazyTouch) Main(t *kernel.Task, args []string) {
	mb := 128
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

func (lazyTouch) Restore(t *kernel.Task, _ []byte) {
	if h := t.P.Mem.Area("[heap]"); h != nil && h.Bytes > 0 {
		stride := h.Bytes / 8
		for i := 0; i < 8; i++ {
			off := int64(i) * stride
			if err := h.EnsureRange(t, off, 64*model.KB); err != nil {
				panic(err)
			}
			t.Compute(5 * time.Millisecond)
		}
	}
	bigDirtyIdle(t)
}

// lazyQuit exits as soon as it is restored: the post-copy tail must
// notice and wind down instead of draining chunks nobody will touch.
type lazyQuit struct{}

func (lazyQuit) Main(t *kernel.Task, args []string) {
	lazyTouch{}.Main(t, args)
}

func (lazyQuit) Restore(t *kernel.Task, _ []byte) {}

// lazyBytes is lazyTouch whose library and heap carry real, distinct
// bytes in every chunk (as libBytes does for its library), and whose
// Restore checks them at the instant each first-touch probe returns:
// probes counts the probes, bad those that read anything but the
// checkpointed bytes.
type lazyBytes struct{ probes, bad *int }

// lazyAreas are the areas lazyBytes fills, each word its offset tagged
// with the area's salt.
var lazyAreas = []struct {
	name string
	salt byte
}{{"/lib/libc.so", 'l'}, {"[heap]", 'h'}}

func lazyPattern(salt byte, n int64) []byte {
	b := make([]byte, n)
	for off := 0; off+8 <= len(b); off += 8 {
		binary.LittleEndian.PutUint64(b[off:], uint64(off)<<8|uint64(salt))
	}
	return b
}

func (lazyBytes) Main(t *kernel.Task, _ []string) {
	lib := t.MapLib(lazyAreas[0].name, 4*model.MB)
	lib.Payload = lazyPattern(lazyAreas[0].salt, lib.Bytes)
	heap := t.MapAnon(lazyAreas[1].name, 8*model.MB, model.ClassData)
	heap.Payload = lazyPattern(lazyAreas[1].salt, heap.Bytes)
	heap.Touch(0, heap.Bytes)
	t.P.SaveState([]byte{1})
	bigDirtyIdle(t)
}

func (p lazyBytes) Restore(t *kernel.Task, _ []byte) {
	for _, la := range lazyAreas {
		a := t.P.Mem.Area(la.name)
		want := lazyPattern(la.salt, a.Bytes)
		for off, n := int64(0), 64*model.KB; off+n <= a.Bytes; off += a.Bytes / 8 {
			if err := a.EnsureRange(t, off, n); err != nil {
				panic(err)
			}
			*p.probes++
			if !bytes.Equal(a.Payload[off:off+n], want[off:off+n]) {
				*p.bad++
			}
			t.Compute(5 * time.Millisecond)
		}
	}
	bigDirtyIdle(t)
}

// lazyEnv checkpoints a lazyTouch workload on node1 through the
// replicated store, quiesces replication, and kills the managed
// process (the node and its store survive as a holder).
func lazyEnv(t *testing.T, e *env, task *kernel.Task, prog string, mb int) *CkptRound {
	t.Helper()
	if _, err := e.sys.Launch(1, prog, strconv.Itoa(mb)); err != nil {
		t.Fatal(err)
	}
	task.Compute(50 * time.Millisecond)
	round, err := e.sys.Checkpoint(task)
	if err != nil {
		t.Fatal(err)
	}
	e.sys.Replica.WaitIdle(task)
	e.sys.KillManaged()
	return round
}

// TestLazyRestartBasics pins the core post-copy contract on a cold
// node: the process resumes on a skeleton long before the image is
// resident, demand faults and the background prefetch split the
// remaining bytes exactly, and once the drain completes every area is
// fully resident and the local store holds the complete image.
func TestLazyRestartBasics(t *testing.T) {
	e := newEnv(t, 5, Config{Compress: false, Store: true, ReplicaFactor: 3,
		CkptWorkers: 4, LazyRestore: true})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("lazytouch", lazyTouch{})
		round := lazyEnv(t, e, task, "lazytouch", 128)

		stats, err := e.sys.RestartAll(task, round, Placement{"node01": 0})
		if err != nil {
			t.Fatal(err)
		}

		// The resume pause and the drain partition the restart exactly.
		if stats.ResumePause <= 0 || stats.PrefetchDrain <= 0 {
			t.Fatalf("lazy restart reported no pause/drain split: %+v", stats)
		}
		if got := stats.ResumePause + stats.PrefetchDrain; got != stats.Total {
			t.Errorf("pause %v + drain %v != total %v", stats.ResumePause, stats.PrefetchDrain, stats.Total)
		}
		if stats.ResumePause > stats.Total/2 {
			t.Errorf("resume pause %v is not small against total %v", stats.ResumePause, stats.Total)
		}

		// The strided probes fault; faulted and prefetched bytes plus the
		// skeleton reconcile exactly with everything fetched.
		if stats.DemandFaults == 0 || stats.DemandBytes <= 0 {
			t.Errorf("no demand faults recorded: %+v", stats)
		}
		if stats.PrefetchBytes <= 0 {
			t.Errorf("no background prefetch recorded: %+v", stats)
		}
		skeleton := stats.FetchedBytes - stats.DemandBytes - stats.PrefetchBytes
		budget := int64(e.c.Params.LazySkeletonChunks) * kernel.CkptChunkBytes
		if skeleton <= 0 || skeleton > budget {
			t.Errorf("skeleton fetch = %d bytes, want in (0, %d]", skeleton, budget)
		}

		// Post-drain residency: no live area still has a presence map.
		found := false
		for _, p := range e.sys.ManagedProcesses() {
			if p.Node.ID != 0 || p.ProgName != "lazytouch" {
				continue
			}
			found = true
			for _, a := range p.Mem.Areas() {
				if a.Lazy() {
					t.Errorf("area %s still lazy after drain (%d absent)", a.Name, len(a.AbsentChunks()))
				}
			}
		}
		if !found {
			t.Fatal("restored process not running on node0")
		}

		// The cold node's store now holds the full image.
		st := store.Open(e.c.Node(0), store.Config{Root: e.sys.StoreRoot()})
		m, err := st.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("restored manifest unreadable: %v", err)
		}
		if missing := st.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after drain", len(missing))
		}
	})
}

// TestLazyRestartFaultSurvivesHolderLoss kills a serving holder while
// the drain is in flight and demand faults are racing the prefetcher:
// the pull stream requeues the lost holder's chunk and the surviving
// holder finishes the image, faults included.
func TestLazyRestartFaultSurvivesHolderLoss(t *testing.T) {
	e := newEnv(t, 5, Config{Compress: false, Store: true, ReplicaFactor: 2,
		CkptWorkers: 2, LazyRestore: true})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("lazytouch", lazyTouch{})
		round := lazyEnv(t, e, task, "lazytouch", 128)
		// Lose the writer too: only the replica holders node2/node3 can
		// serve the pull.
		if killed := e.c.KillNode(1); killed == 0 {
			t.Fatal("node kill was a no-op")
		}

		var stats *RestartStages
		var rerr error
		done := false
		task.P.SpawnTask("restarter", false, func(rt *kernel.Task) {
			stats, rerr = e.sys.RestartAll(rt, round, Placement{"node01": 0})
			done = true
		})
		// The 128 MB drain off two holders runs ~0.6 s; 100 ms lands
		// inside it, after the skeleton resume, with faults outstanding.
		task.Idle(100 * time.Millisecond)
		if killed := e.c.KillNode(2); killed == 0 {
			t.Fatal("holder kill was a no-op")
		}
		for !done {
			task.Idle(20 * time.Millisecond)
		}
		if rerr != nil {
			t.Fatalf("lazy restart with holder fallback: %v", rerr)
		}
		if stats.DemandFaults == 0 {
			t.Errorf("no demand faults despite the touching restore: %+v", stats)
		}

		// Node3 alone completed the image.
		st := store.Open(e.c.Node(0), store.Config{Root: e.sys.StoreRoot()})
		m, err := st.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("restored manifest unreadable: %v", err)
		}
		if missing := st.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after holder-loss drain", len(missing))
		}
		task.Compute(50 * time.Millisecond)
		for _, p := range e.sys.ManagedProcesses() {
			if p.Node.ID == 0 && p.ProgName == "lazytouch" {
				return
			}
		}
		t.Error("restored process not running on node0")
	})
}

// TestLazyRestartProcessExitAbortsDrain restores a program that exits
// immediately: the restart must return cleanly (an aborted tail is not
// a failure), the pull stream must stop well short of the full image,
// and whatever landed stays durable in the local store.
func TestLazyRestartProcessExitAbortsDrain(t *testing.T) {
	e := newEnv(t, 5, Config{Compress: false, Store: true, ReplicaFactor: 3,
		CkptWorkers: 4, LazyRestore: true})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("lazyquit", lazyQuit{})
		round := lazyEnv(t, e, task, "lazyquit", 256)

		stats, err := e.sys.RestartAll(task, round, Placement{"node01": 0})
		if err != nil {
			t.Fatalf("restart of an exiting program must not fail: %v", err)
		}
		if stats.ResumePause <= 0 {
			t.Errorf("no skeleton resume recorded: %+v", stats)
		}
		// The drain aborted early: nowhere near the 256 MB heap moved.
		if moved := stats.DemandBytes + stats.PrefetchBytes; moved >= 128*model.MB {
			t.Errorf("aborted drain still pulled %d bytes of a 256 MB image", moved)
		}
		// Whatever did land is durable, not torn: every chunk present on
		// node0 decodes (MissingChunks only reports absent ones).
		st := store.Open(e.c.Node(0), store.Config{Root: e.sys.StoreRoot()})
		m, err := st.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("manifest unreadable: %v", err)
		}
		if missing := st.MissingChunks(m.Refs()); len(missing) == 0 {
			t.Error("aborted drain left a complete image; abort never happened?")
		}
	})
}

// TestLazyFaultReturnsCheckpointedBytes checks the post-copy contract
// at the instant a first-touch fault returns, not after the drain:
// every probe of a lazily restored library and heap must read exactly
// the checkpointed bytes, whether its chunk came by demand fault or
// had already been prefetched.
func TestLazyFaultReturnsCheckpointedBytes(t *testing.T) {
	e := newEnv(t, 4, Config{Store: true, ReplicaFactor: 2, CkptWorkers: 2, LazyRestore: true})
	var probes, bad int
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("lazybytes", lazyBytes{&probes, &bad})
		round := lazyEnv(t, e, task, "lazybytes", 0)
		stats, err := e.sys.RestartAll(task, round, Placement{"node01": 0})
		if err != nil {
			t.Errorf("lazy restart: %v", err)
			return
		}
		if stats.DemandFaults == 0 {
			t.Errorf("no demand faults, so no probe raced the drain: %+v", stats)
		}
		for deadline := task.Now().Add(time.Second); probes < 16 && task.Now() < deadline; {
			task.Compute(10 * time.Millisecond)
		}
	})
	if probes != 16 {
		t.Fatalf("restored program made %d probes, want 16", probes)
	}
	if bad > 0 {
		t.Errorf("%d of %d probes read other bytes than the checkpointed ones", bad, probes)
	}
}
