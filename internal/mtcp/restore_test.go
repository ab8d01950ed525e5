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
// the restore pipeline reconstructs the image that was written, byte
// for byte, at every worker count, reading every chunk off the disk
// exactly once (the node's read pipe serves the metadata plus each
// chunk's stored bytes, nothing more), and a local (short-circuit)
// restore reports no fetch and no overlap.  A lazy restore at any
// skeleton size returns a skeleton that, once its pending chunks are
// installed, is the same image.
func TestRestoreStreamedMatchesLoadChunked(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/rs/store", Compress: true})
		res := WriteImage(task, img, WriteOptions{Store: s, Workers: 4})

		ref := imageBytes(img)
		ino, _ := task.P.Node.FS.ReadFile(res.Path)
		reads := ino.Size() + 64*1024 // the manifest and header tables
		for _, e := range img.Ext {
			reads += int64(len(e))
		}
		m, _ := s.LoadManifest(res.Path)
		for _, r := range m.Refs() {
			reads += r.StoredBytes
		}
		disk := task.P.Node.DiskR

		for _, workers := range []int{0, 1, 2, 3, 4, 5, 8} {
			before := disk.TotalBytes()
			got, pending, rs, err := Restore(task, res.Path, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("streamed restore (%d workers): %v", workers, err)
			}
			if !bytes.Equal(imageBytes(got), ref) {
				t.Errorf("%d workers: streamed image differs from the written one", workers)
			}
			if n := disk.TotalBytes() - before; n != reads {
				t.Errorf("%d workers: restore read %d bytes off the disk, want %d", workers, n, reads)
			}
			if len(pending) != 0 {
				t.Errorf("%d workers: eager restore left %d chunks pending", workers, len(pending))
			}
			if rs.Fetch != 0 || rs.FetchedChunks != 0 || rs.OverlapBytes != 0 {
				t.Errorf("%d workers: local restore reported fetch stats %+v", workers, rs)
			}
			if rs.Workers != max(workers, 1) {
				t.Errorf("workers = %d, want %d", rs.Workers, max(workers, 1))
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
				t.Errorf("skeleton %d + pending differs from the written image", skel)
			}
		}
	})
}

// TestMonolithicRestoreReadsTheFileOnce pins what a monolithic restart
// reads off the disk: the restart program's LoadImage reads the header
// and the tables, the restored process's ChargeMemoryRestore the rest,
// so the pair reads the image file once, compressed or not.
func TestMonolithicRestoreReadsTheFileOnce(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		for _, compress := range []bool{true, false} {
			res := WriteImage(task, img, WriteOptions{Dir: "/ckpt", Compress: compress})
			ino, _ := task.P.Node.FS.ReadFile(res.Path)
			disk := task.P.Node.DiskR
			before := disk.TotalBytes()
			got, err := LoadImage(task, res.Path)
			if err != nil {
				t.Fatal(err)
			}
			ChargeMemoryRestore(task, got, res.Path, 4)
			if n := disk.TotalBytes() - before; n != ino.Size() {
				t.Errorf("compress=%v: restore read %d bytes off the disk for a %d-byte file",
					compress, n, ino.Size())
			}
		}
	})
}

// TestRestoreHidesReadBehindGunzip pins the read-ahead stage on the
// monolithic and the store restore paths: a compressed image restored
// on an idle node, with 1 and with 4 workers on the 4-core node,
// finishes within one block's read per worker of the same restore with
// reads that cost nothing — the k-th worker's first block is the k-th
// one read, and the reader stays ahead of gunzip after that (the store
// path also reads its manifest).  Reading the whole image before
// decompressing it, as the restore paths once did, exposes the whole
// read: about 50 ms here.
func TestRestoreHidesReadBehindGunzip(t *testing.T) {
	timed := restoreTimes(t, 0)
	free := restoreTimes(t, 1e18)
	p := model.Default()
	block := time.Duration(float64(kernel.CkptChunkBytes) / p.DiskReadBW * 1e9) // bounds one block's stored read
	for _, rc := range []restoreCase{{false, 1}, {false, 4}, {true, 1}, {true, 4}} {
		meta := time.Duration(0)
		if rc.store {
			meta = block // the manifest and tables: well under a chunk
		}
		exposed := timed[rc] - free[rc]
		if bound := time.Duration(rc.workers)*block + meta; exposed < 0 || exposed > bound {
			t.Errorf("%+v: restore took %v, %v more than with free reads, want at most %v",
				rc, timed[rc], exposed, bound)
		}
	}
}

type restoreCase struct {
	store   bool
	workers int
}

// restoreTimes restores one compressed image through each path and
// worker count on a fresh idle node whose disk reads at readBW (0: the
// calibrated rate), and returns each restore's wall time.
func restoreTimes(t *testing.T, readBW float64) map[restoreCase]time.Duration {
	t.Helper()
	eng := sim.NewEngine(1)
	p := model.Default()
	if readBW > 0 {
		p.DiskReadBW = readBW
	}
	c := kernel.NewCluster(eng, p, 1)
	t.Cleanup(eng.Shutdown)
	took := map[restoreCase]time.Duration{}
	run(t, eng, c, func(task *kernel.Task) {
		img := buildPipelineImage(task)
		s := store.Open(task.P.Node, store.Config{Root: "/ckpt/ov/store", Compress: true})
		chunked := WriteImage(task, img, WriteOptions{Store: s, Workers: 4})
		mono := WriteImage(task, img, WriteOptions{Dir: "/ckpt", Compress: true})
		for _, workers := range []int{1, 4} {
			_, _, rs, err := Restore(task, chunked.Path, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			took[restoreCase{store: true, workers: workers}] = rs.Took
			start := task.Now()
			ChargeMemoryRestore(task, img, mono.Path, workers)
			took[restoreCase{workers: workers}] = task.Now().Sub(start)
		}
	})
	return took
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
		// Payloads identical to the image written (identity fields
		// differ only in nothing: same header).
		if !bytes.Equal(imageBytes(got), imageBytes(img)) {
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
