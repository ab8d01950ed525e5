package store_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestConcurrentPutChunkSingleWriter pins that racing PutChunk callers
// on one hash serialize through the in-flight claim, held until the
// chunk lands off the write-behind stage: exactly one pays the write
// (isNew), the rest observe a dedup hit, and the chunk object lands
// once with a consistent stored size.  CI runs this under
// -race, which also checks the claim registry's cross-test locking.
func TestConcurrentPutChunkSingleWriter(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, true)
		wb := kernel.NewWriteBehind(task, task.P.Node.WritePipeFor(s.ChunkPath("")))
		const workers = 8
		data := []byte("chunk-payload")
		hash := store.ChunkHash("scope", 0, 3, model.MB, model.ClassData, data)

		newCount, finished := 0, 0
		var sizes []int64
		join := sim.NewWaitQueue(eng, "put-join")
		for i := 0; i < workers; i++ {
			task.P.SpawnTask("putter", false, func(wt *kernel.Task) {
				ref := store.ChunkRef{Hash: hash, LogicalBytes: model.MB,
					Entropy: model.ClassData.Entropy, ZeroFrac: model.ClassData.ZeroFrac}
				stored, isNew := s.PutChunk(wt, wb, &ref, data, nil)
				if isNew {
					newCount++
				}
				sizes = append(sizes, stored)
				finished++
				join.WakeAll()
			})
		}
		for finished < workers {
			join.Wait(task.T)
		}
		wb.Close(task)
		if newCount != 1 {
			t.Errorf("racing PutChunk wrote the chunk %d times, want exactly 1", newCount)
		}
		for _, sz := range sizes {
			if sz != sizes[0] {
				t.Errorf("inconsistent stored sizes across racers: %v", sizes)
			}
		}
		if !s.HasChunk(hash) {
			t.Error("chunk object missing after concurrent puts")
		}
		if ino, err := task.P.Node.FS.ReadFile(s.ChunkPath(hash)); err != nil || string(ino.Data) != string(data) {
			t.Errorf("chunk payload corrupted: %v %q", err, ino)
		}
	})
}

// TestConcurrentPutChunkDistinctHashes pins that independent chunks
// written concurrently all land (no lost updates from the claim
// machinery) and stay individually readable.
func TestConcurrentPutChunkDistinctHashes(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, true)
		wb := kernel.NewWriteBehind(task, task.P.Node.WritePipeFor(s.ChunkPath("")))
		const n = 16
		finished := 0
		join := sim.NewWaitQueue(eng, "put-join2")
		hashes := make([]string, n)
		for i := 0; i < n; i++ {
			i := i
			task.P.SpawnTask("putter", false, func(wt *kernel.Task) {
				data := []byte(fmt.Sprintf("payload-%02d", i))
				ref := store.ChunkRef{
					Hash:         store.ChunkHash("scope", i, 1, model.MB, model.ClassData, data),
					LogicalBytes: model.MB,
				}
				hashes[i] = ref.Hash
				if _, isNew := s.PutChunk(wt, wb, &ref, data, nil); !isNew {
					t.Errorf("distinct chunk %d reported as duplicate", i)
				}
				finished++
				join.WakeAll()
			})
		}
		deadline := task.Now().Add(time.Minute)
		for finished < n && task.Now() < deadline {
			join.Wait(task.T)
		}
		wb.Close(task)
		for i, h := range hashes {
			if !s.HasChunk(h) {
				t.Errorf("chunk %d missing after concurrent puts", i)
			}
		}
	})
}

// TestPutChunkWriteBehindAbortReleasesClaim pins the abort path of a
// put: process A claims a chunk, queues it on its write-behind stage
// and dies before the transfer ends.  Process B, waiting on A's claim
// for the same chunk, must wake when A's writer unwinds, find no
// object, and write the chunk itself; no task is left parked on a
// claim whose writer is gone.
func TestPutChunkWriteBehindAbortReleasesClaim(t *testing.T) {
	eng, c := testCluster(t)
	data := []byte("chunk-payload")
	hash := store.ChunkHash("scope", 0, 7, model.MB, model.ClassData, data)
	newRef := func() store.ChunkRef {
		return store.ChunkRef{Hash: hash, LogicalBytes: model.MB,
			Entropy: model.ClassData.Entropy, ZeroFrac: model.ClassData.ZeroFrac}
	}
	bDone, bNew := false, false
	done := sim.NewWaitQueue(eng, "b-done")
	c.RegisterFunc("putter-a", func(task *kernel.Task, _ []string) {
		s := openStore(task, true)
		wb := kernel.NewWriteBehind(task, task.P.Node.WritePipeFor(s.ChunkPath("")))
		ref := newRef()
		if _, isNew := s.PutChunk(task, wb, &ref, data, nil); !isNew {
			t.Error("the first put found the chunk present")
		}
		task.Exit(1) // before the queued chunk lands
	})
	c.RegisterFunc("putter-b", func(task *kernel.Task, _ []string) {
		task.Idle(time.Millisecond) // A holds the claim by now
		s := openStore(task, true)
		wb := kernel.NewWriteBehind(task, task.P.Node.WritePipeFor(s.ChunkPath("")))
		ref := newRef()
		_, bNew = s.PutChunk(task, wb, &ref, data, nil)
		wb.Close(task)
		bDone = true
		done.WakeAll()
	})
	run(t, eng, c, func(task *kernel.Task) {
		for _, prog := range []string{"putter-a", "putter-b"} {
			if _, err := task.P.Node.Kern.Spawn(prog, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := task.Now().Add(time.Minute); !bDone && task.Now() < deadline; {
			done.WaitTimeout(task.T, time.Second)
		}
		if !bDone {
			t.Fatal("a minute on, the second put still waited on the dead writer's claim")
		}
		if !bNew {
			t.Error("the second put saw a dedup hit, but the first writer died before its chunk landed")
		}
		if ino, err := task.P.Node.FS.ReadFile(openStore(task, true).ChunkPath(hash)); err != nil || string(ino.Data) != string(data) {
			t.Errorf("chunk object after the second put: %v %v", ino, err)
		}
	})
}
