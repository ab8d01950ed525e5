package mtcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/store"
)

// copyFetcher fakes the replica fetch stage for mtcp-level tests: it
// copies chunk objects from a source store root into the destination,
// idling per chunk so the transfer takes real virtual time and the
// install pool has something to overlap with.  failAfter > 0 makes it
// die mid-stream after that many chunks (the holder-lost case).
type copyFetcher struct {
	src, dst  *store.Store
	perChunk  time.Duration
	failAfter int
	delivered int
}

func (f *copyFetcher) Fetch(t *kernel.Task, refs []store.ChunkRef, deliver func(store.ChunkRef)) (int64, int, error) {
	var bytes int64
	for _, ref := range refs {
		if f.failAfter > 0 && f.delivered >= f.failAfter {
			return bytes, f.delivered, kernel.ErrClosed
		}
		t.Idle(f.perChunk)
		ino, err := f.src.Node.FS.ReadFile(f.src.ChunkPath(ref.Hash))
		if err != nil {
			return bytes, f.delivered, err
		}
		f.dst.Node.FS.WriteFile(f.dst.ChunkPath(ref.Hash), ino.Data, ino.LogicalSize)
		bytes += ref.StoredBytes
		f.delivered++
		deliver(ref)
	}
	return bytes, f.delivered, nil
}

// imageBytes canonicalizes an image for cross-path comparison.
func imageBytes(img *Image) []byte { return img.Encode() }

// installPending lands a lazy restore's pending chunks in the image
// buffers at their offsets, as the post-copy tail does.
func installPending(t *testing.T, s *store.Store, task *kernel.Task, img *Image, pending []LazyChunk) {
	t.Helper()
	for _, pc := range pending {
		data, err := s.ReadChunkVerified(task, pc.Ref)
		if err != nil {
			t.Fatalf("pending chunk %s: %v", pc.Ref.Hash, err)
		}
		if off := int64(pc.Idx) * kernel.CkptChunkBytes; off < int64(len(img.Areas[pc.Area].Payload)) {
			copy(img.Areas[pc.Area].Payload[off:], data)
		}
	}
}

// TestRestoreStreamedMatchesLoadChunked pins the acceptance contract:
// the restore pipeline reconstructs a byte-identical image to the
// non-streamed loadChunked path, at every worker count, and a local
// (short-circuit) restore reports no fetch and no overlap.  A lazy
// restore at any skeleton size returns a skeleton that, once its
// pending chunks are installed, is the same image.
func TestRestoreStreamedMatchesLoadChunked(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/rs/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: s, Workers: 4})

		want, err := LoadImage(task, res.Path)
		if err != nil {
			t.Fatalf("loadChunked: %v", err)
		}
		ref := imageBytes(want)

		for _, workers := range []int{1, 2, 8} {
			got, pending, rs, err := Restore(task, res.Path, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("streamed restore (%d workers): %v", workers, err)
			}
			if !bytes.Equal(imageBytes(got), ref) {
				t.Errorf("%d workers: streamed image differs from loadChunked", workers)
			}
			if len(pending) != 0 {
				t.Errorf("%d workers: eager restore left %d chunks pending", workers, len(pending))
			}
			if rs.Fetch != 0 || rs.FetchedChunks != 0 || rs.OverlapBytes != 0 {
				t.Errorf("%d workers: local restore reported fetch stats %+v", workers, rs)
			}
			if rs.Workers != workers {
				t.Errorf("workers = %d, want %d", rs.Workers, workers)
			}
		}

		total := res.Chunks
		for _, skel := range []int{0, 4, total} {
			c.Params.LazySkeletonChunks = skel
			got, pending, _, err := Restore(task, res.Path, RestoreOptions{Workers: 2, Lazy: true})
			if err != nil {
				t.Fatalf("lazy restore (skeleton %d): %v", skel, err)
			}
			if want := total - skel; len(pending) != want {
				t.Errorf("skeleton %d: %d chunks pending, want %d", skel, len(pending), want)
			}
			if skel == 0 && bytes.Equal(imageBytes(got), ref) {
				t.Error("empty skeleton already holds the whole image")
			}
			installPending(t, s, task, got, pending)
			if !bytes.Equal(imageBytes(got), ref) {
				t.Errorf("skeleton %d + pending differs from loadChunked", skel)
			}
		}
	})
}

// TestRestoreStreamedParallelDecompress pins the install pool against
// the core model: 4 workers on the 4-core node restore ~4x faster than
// 1, and 8 buy nothing more.
func TestRestoreStreamedParallelDecompress(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/rp/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: s, Workers: 4})
		took := map[int]time.Duration{}
		for _, workers := range []int{1, 4, 8} {
			_, _, rs, err := Restore(task, res.Path, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			took[workers] = rs.Took
		}
		sp4 := float64(took[1]) / float64(took[4])
		if sp4 < 2.0 {
			t.Errorf("4-worker restore speedup %.2fx, want >= 2x", sp4)
		}
		sp8 := float64(took[1]) / float64(took[8])
		if sp8 > sp4*1.10 {
			t.Errorf("8 workers on 4 cores sped restore up %.2fx over %.2fx", sp8, sp4)
		}
	})
}

// TestRestoreStreamedOverlapsFetch pins the pipeline's reason to
// exist: with every chunk remote, install work lands while the fetch
// is still in flight (OverlapBytes > 0), the result is byte-identical,
// and the whole restore beats fetch-then-install.
func TestRestoreStreamedOverlapsFetch(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		src := store.Open(task.P.Node, store.Config{Root: "/ckpt/of-src/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: src, Workers: 4})
		want, err := LoadImage(task, res.Path)
		if err != nil {
			t.Fatal(err)
		}

		// A second root holding only the manifest: every chunk must
		// come through the fetcher.
		dst := store.Open(task.P.Node, store.Config{Root: "/ckpt/of-dst/store", Compress: true})
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		dstPath := dst.ManifestPath(ImageBase(img), res.Generation)
		task.P.Node.FS.WriteFile(dstPath, ino.Data, ino.LogicalSize)

		fetcher := &copyFetcher{src: src, dst: dst, perChunk: 2 * time.Millisecond}
		got, _, rs, err := Restore(task, dstPath, RestoreOptions{Workers: 4, Fetch: fetcher})
		if err != nil {
			t.Fatalf("remote streamed restore: %v", err)
		}
		if rs.FetchedChunks == 0 || rs.Fetch == 0 {
			t.Fatalf("no fetch recorded: %+v", rs)
		}
		if rs.OverlapBytes <= 0 {
			t.Errorf("no fetch/install overlap recorded: %+v", rs)
		}
		if rs.Took < rs.Fetch {
			t.Errorf("pipeline took %v < fetch stage %v", rs.Took, rs.Fetch)
		}
		// Payloads identical to the local load (identity fields differ
		// only in nothing: same header).
		if !bytes.Equal(imageBytes(got), imageBytes(want)) {
			t.Error("remotely streamed image differs from source image")
		}
	})
}

// TestRestoreStreamedFetchFailureAborts pins the no-partial-install
// contract: a fetcher dying mid-stream aborts the whole restore with
// its error; nothing half-assembled escapes.
func TestRestoreStreamedFetchFailureAborts(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		src := store.Open(task.P.Node, store.Config{Root: "/ckpt/ff-src/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: src, Workers: 4})
		dst := store.Open(task.P.Node, store.Config{Root: "/ckpt/ff-dst/store", Compress: true})
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		dstPath := dst.ManifestPath(ImageBase(img), res.Generation)
		task.P.Node.FS.WriteFile(dstPath, ino.Data, ino.LogicalSize)

		fetcher := &copyFetcher{src: src, dst: dst, perChunk: time.Millisecond, failAfter: 3}
		got, _, _, err := Restore(task, dstPath, RestoreOptions{Workers: 4, Fetch: fetcher})
		if err == nil {
			t.Fatal("mid-stream fetch failure restored an image")
		}
		if got != nil {
			t.Fatal("failed restore returned a partial image")
		}

		// And with no fetcher at all, missing chunks are a typed error.
		if _, _, _, err := Restore(task, dstPath, RestoreOptions{Workers: 2}); err == nil {
			t.Fatal("missing chunks with no fetch source restored an image")
		}
	})
}
