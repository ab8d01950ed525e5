package mtcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

// fakePull is a post-copy fetch stage for mtcp-level tests: in the
// background it copies chunks from a source store into the restoring
// one, one per perChunk of virtual time and in list order, and Demand
// pulls a chunk at once, ahead of that order.  Every chunk is copied
// and delivered once, whoever asks first.
type fakePull struct {
	src, dst *store.Store
	refs     []store.ChunkRef
	deliver  func(store.ChunkRef)
	perChunk time.Duration
	w        *sim.WaitQueue
	state    map[string]int // hash → 1 in flight, 2 local
	demands  int
}

func (f *fakePull) pull(t *kernel.Task, ref store.ChunkRef) {
	for f.state[ref.Hash] == 1 {
		f.w.Wait(t.T)
	}
	if f.state[ref.Hash] == 2 {
		return
	}
	f.state[ref.Hash] = 1
	if !f.dst.HasChunk(ref.Hash) {
		t.Idle(f.perChunk)
		ino, _ := f.src.Node.FS.ReadFile(f.src.ChunkPath(ref.Hash))
		f.dst.Node.FS.WriteFile(f.dst.ChunkPath(ref.Hash), ino.Data, ino.LogicalSize)
	}
	f.state[ref.Hash] = 2
	f.deliver(ref)
	f.w.WakeAll()
}

// Wait is the fetch stage: it pulls every chunk not demanded yet.
func (f *fakePull) Wait(t *kernel.Task) error {
	for _, ref := range f.refs {
		f.pull(t, ref)
	}
	return nil
}

func (f *fakePull) Demand(t *kernel.Task, ref store.ChunkRef) error {
	f.demands++
	f.pull(t, ref)
	return nil
}

func (f *fakePull) Abort() {}

// buildPostCopyImage captures a process whose heap holds distinct bytes
// in every chunk, so a chunk landed at the wrong offset, or not at all,
// shows in the restored memory.
func buildPostCopyImage(task *kernel.Task) *Image {
	task.MapLib("/lib/libc.so", 2*model.MB)
	heap := task.MapAnon("[heap]", 16*model.MB, model.ClassData)
	heap.Payload = make([]byte, heap.Bytes)
	for i := range heap.Payload {
		heap.Payload[i] = byte(i>>20) ^ byte(i*7)
	}
	heap.Touch(0, heap.Bytes)
	heap.TouchFraction(0.5, 3)
	task.P.SaveState([]byte("iteration=9"))
	return Capture(task.P, 555)
}

// TestRestorePostCopyFaultsAndDrain drives the restore pipeline's
// post-copy side without the DMTCP layer: a lazy restore's pending
// chunks run through a second pipeline whose fetch stage is slow, the
// pipeline is wired into a live process, and three threads fault chunks
// in — two of them the same chunk — while the install pool drains the
// rest.  Every coordinate lands exactly once, every presence map
// clears, the pipeline counts as many faults as demanded a chunk, and
// the process ends up with the checkpointed memory.
func TestRestorePostCopyFaultsAndDrain(t *testing.T) {
	eng, c := testCluster(t)
	c.RegisterFunc("host", func(t *kernel.Task, _ []string) { t.Idle(time.Hour) })
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPostCopyImage(task)
		src := store.Open(task.P.Node, store.Config{Root: "/ckpt/pc-src/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: src, Workers: 4})
		dst := store.Open(task.P.Node, store.Config{Root: "/ckpt/pc-dst/store", Compress: true})
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		dstPath := dst.ManifestPath(ImageBase(img), res.Generation)
		task.P.Node.FS.WriteFile(dstPath, ino.Data, ino.LogicalSize)

		got, pending, _, err := Restore(task, dstPath, RestoreOptions{Workers: 2, Lazy: true,
			Fetch: &copyFetcher{src: src, dst: dst}})
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) < 10 {
			t.Fatalf("only %d chunks pending", len(pending))
		}
		var want int64
		for _, pc := range pending {
			want += pc.Ref.StoredBytes
		}

		pl, refs := NewPipeline(task, got, dst, pending, nil)
		f := &fakePull{src: src, dst: dst, refs: refs, deliver: pl.Deliver, perChunk: 2 * time.Millisecond,
			w: sim.NewWaitQueue(eng, "fake-pull"), state: map[string]int{}}
		pl.Start(task, 4, f.Wait)

		p, err := c.Node(0).Kern.Spawn("host", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		InstallMemory(p, got, task, nil)
		pl.Wire(p, f)
		var heap *kernel.VMArea
		var wantHeap []byte
		for i, a := range p.Mem.Areas() {
			if a.Name == "[heap]" {
				heap, wantHeap = a, img.Areas[i].Payload
			}
		}
		absent := heap.AbsentChunks()
		if len(absent) < 6 {
			t.Fatalf("only %d heap chunks absent after wiring", len(absent))
		}
		// Thread k touches absent[k], absent[k+3], ...; threads 0 and 1
		// both touch the coldest chunk, last in the fetch order.
		cold := absent[len(absent)-1]
		done := 0
		doneW := sim.NewWaitQueue(eng, "faulters")
		for k := 0; k < 3; k++ {
			touch := []int{}
			for i := k; i < 6; i += 3 {
				touch = append(touch, absent[i])
			}
			if k < 2 {
				touch = append(touch, cold)
			}
			p.SpawnTask("faulter", false, func(ft *kernel.Task) {
				for _, idx := range touch {
					off := int64(idx) * kernel.CkptChunkBytes
					if err := heap.EnsureRange(ft, off, 1); err != nil {
						t.Errorf("fault on chunk %d: %v", idx, err)
					}
					end := min(off+kernel.CkptChunkBytes, int64(len(heap.Payload)))
					if !heap.ChunkPresent(idx) || !bytes.Equal(heap.Payload[off:end], wantHeap[off:end]) {
						t.Errorf("fault on chunk %d returned before its bytes were in", idx)
					}
				}
				done++
				doneW.WakeAll()
			})
		}
		for done < 3 {
			doneW.Wait(task.T)
		}
		if err := pl.Drain(task); err != nil {
			t.Fatal(err)
		}

		if pl.left != 0 || pl.stored != want {
			t.Errorf("%d coordinates left, %d stored bytes landed; want 0 and %d", pl.left, pl.stored, want)
		}
		for i, s := range pl.state {
			if s != landed {
				t.Errorf("coordinate %d (%+v) never landed", i, pending[i])
			}
		}
		for _, a := range p.Mem.Areas() {
			if a.Lazy() {
				t.Errorf("area %s still has absent chunks %v", a.Name, a.AbsentChunks())
			}
		}
		if pl.Faults() == 0 || pl.Faults() != f.demands {
			t.Errorf("pipeline counted %d faults, %d demanded a chunk", pl.Faults(), f.demands)
		}
		if pl.Faults() >= len(pending) {
			t.Errorf("%d faults for %d pending chunks: the pool drained nothing", pl.Faults(), len(pending))
		}
		if len(p.Mem.Areas()) != len(img.Areas) {
			t.Fatalf("process has %d areas, image %d", len(p.Mem.Areas()), len(img.Areas))
		}
		for i, a := range p.Mem.Areas() {
			if !bytes.Equal(a.Payload, img.Areas[i].Payload) {
				t.Errorf("area %s differs from the checkpointed one", a.Name)
			}
		}
	})
}

// TestPostCopyFaultTakesStagedRead pins that a demand fault on a chunk
// the read-ahead stage has already read, but no installer has claimed
// yet, lands the stage's copy instead of reading the chunk off the
// disk a second time.  The fetch stage delivers every pending chunk
// within a few milliseconds, the stage reads them as they arrive, and
// one installer gunzips them at about 20 ms a chunk; 5 ms in, a thread
// touches the coldest absent chunks, which by then wait read and
// unclaimed.  The disk must serve each pending chunk's stored bytes
// exactly once: no re-reads.
func TestPostCopyFaultTakesStagedRead(t *testing.T) {
	eng, c := testCluster(t)
	c.RegisterFunc("host", func(t *kernel.Task, _ []string) { t.Idle(time.Hour) })
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPostCopyImage(task)
		src := store.Open(task.P.Node, store.Config{Root: "/ckpt/rr-src/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: src, Workers: 4})
		dst := store.Open(task.P.Node, store.Config{Root: "/ckpt/rr-dst/store", Compress: true})
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		dstPath := dst.ManifestPath(ImageBase(img), res.Generation)
		task.P.Node.FS.WriteFile(dstPath, ino.Data, ino.LogicalSize)
		got, pending, _, err := Restore(task, dstPath, RestoreOptions{Workers: 1, Lazy: true,
			Fetch: &copyFetcher{src: src, dst: dst}})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, pc := range pending {
			want += pc.Ref.StoredBytes
		}

		disk := task.P.Node.DiskR
		before := disk.TotalBytes()
		pl, refs := NewPipeline(task, got, dst, pending, nil)
		f := &fakePull{src: src, dst: dst, refs: refs, deliver: pl.Deliver, perChunk: 100 * time.Microsecond,
			w: sim.NewWaitQueue(eng, "fake-pull"), state: map[string]int{}}
		pl.Start(task, 1, f.Wait)
		p, err := c.Node(0).Kern.Spawn("host", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		InstallMemory(p, got, task, nil)
		pl.Wire(p, f)
		var heap *kernel.VMArea
		for _, a := range p.Mem.Areas() {
			if a.Name == "[heap]" {
				heap = a
			}
		}
		absent := heap.AbsentChunks()
		if len(absent) < 4 {
			t.Fatalf("only %d heap chunks absent after wiring", len(absent))
		}
		done := false
		doneW := sim.NewWaitQueue(eng, "faulter")
		p.SpawnTask("faulter", false, func(ft *kernel.Task) {
			ft.Idle(5 * time.Millisecond)
			for _, idx := range absent[len(absent)-3:] {
				if err := heap.EnsureRange(ft, int64(idx)*kernel.CkptChunkBytes, 1); err != nil {
					t.Errorf("fault on chunk %d: %v", idx, err)
				}
			}
			done = true
			doneW.WakeAll()
		})
		for !done {
			doneW.Wait(task.T)
		}
		if err := pl.Drain(task); err != nil {
			t.Fatal(err)
		}
		if pl.Faults() != 3 {
			t.Fatalf("%d faults waited for a chunk, want 3", pl.Faults())
		}
		if read := disk.TotalBytes() - before; read != want {
			t.Errorf("the disk served %d bytes for %d pending stored bytes: %d bytes re-read",
				read, want, read-want)
		}
	})
}
