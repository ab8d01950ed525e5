package store_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mtcp"
	"repro/internal/sim"
	"repro/internal/store"
)

func testCluster(t *testing.T) (*sim.Engine, *kernel.Cluster) {
	t.Helper()
	eng := sim.NewEngine(1)
	c := kernel.NewCluster(eng, model.Default(), 2)
	t.Cleanup(eng.Shutdown)
	return eng, c
}

func run(t *testing.T, eng *sim.Engine, c *kernel.Cluster, fn func(*kernel.Task)) {
	t.Helper()
	c.RegisterFunc("m", func(task *kernel.Task, _ []string) {
		fn(task)
		eng.Stop()
	})
	if _, err := c.Node(0).Kern.Spawn("m", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func openStore(task *kernel.Task, compress bool) *store.Store {
	return store.Open(task.P.Node, store.Config{Root: "/ckpt/store", Compress: compress})
}

// capture builds a realistic image: library text, a large heap, and a
// small real payload that must round-trip byte-exactly.
func capture(task *kernel.Task) *mtcp.Image {
	if task.P.Mem.Area("[heap]") == nil {
		task.MapLib("/lib/libc.so", 4*model.MB)
		h := task.P.Mem.MapAnon("[heap]", 64*model.MB, model.ClassData)
		h.Payload = []byte("heap-bytes-v1")
		h.Touch(0, int64(len(h.Payload)))
	}
	task.P.SaveState([]byte("iteration=1"))
	img := mtcp.Capture(task.P, 700)
	img.Ext["dmtcp.fdtable"] = []byte("fdtable")
	return img
}

func TestSecondGenerationDeduplicates(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, true)
		img := capture(task)
		opts := mtcp.WriteOptions{Dir: "/ckpt", Compress: true, Store: s}

		t0 := task.Now()
		g1 := mtcp.WriteImage(task, img, opts)
		fullTook := task.Now().Sub(t0)
		if g1.Generation != 1 || g1.NewChunks != g1.Chunks || g1.Chunks == 0 {
			t.Errorf("gen1 = %+v", g1)
		}

		// Nothing written between checkpoints: the second generation
		// must store ~0 new payload chunks and cost far less.
		img2 := mtcp.Capture(task.P, 700)
		img2.Ext["dmtcp.fdtable"] = []byte("fdtable")
		t1 := task.Now()
		g2 := mtcp.WriteImage(task, img2, opts)
		incrTook := task.Now().Sub(t1)
		if g2.Generation != 2 {
			t.Errorf("gen2 generation = %d", g2.Generation)
		}
		if g2.NewChunks != 0 {
			t.Errorf("clean second generation wrote %d new chunks", g2.NewChunks)
		}
		if g2.DedupBytes == 0 {
			t.Error("no dedup recorded")
		}
		if g2.Bytes >= g1.Bytes/10 {
			t.Errorf("incremental bytes %d not ≪ full %d", g2.Bytes, g1.Bytes)
		}
		if incrTook >= fullTook/2 {
			t.Errorf("incremental write %v not ≪ full %v", incrTook, fullTook)
		}

		// Dirty 10% of the heap: roughly 10% of its chunks rewrite.
		task.P.Mem.Area("[heap]").TouchFraction(0.10, 3)
		img3 := mtcp.Capture(task.P, 700)
		img3.Ext["dmtcp.fdtable"] = []byte("fdtable")
		g3 := mtcp.WriteImage(task, img3, opts)
		if g3.NewChunks == 0 || g3.NewChunks > g3.Chunks/4 {
			t.Errorf("10%% dirty wrote %d of %d chunks", g3.NewChunks, g3.Chunks)
		}
	})
}

func TestRoundtripByteEqualityThroughStore(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, true)
		img := capture(task)
		res := mtcp.WriteImage(task, img, mtcp.WriteOptions{Dir: "/ckpt", Compress: true, Store: s})
		if !store.IsManifestPath(res.Path) {
			t.Fatalf("path %q is not a manifest path", res.Path)
		}
		got, err := mtcp.LoadImage(task, res.Path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if !bytes.Equal(got.Encode(), img.Encode()) {
			t.Error("image did not round-trip byte-exactly through the store")
		}
		// Bulk restore charging must stream the stored bytes.
		t0 := task.Now()
		mtcp.ChargeMemoryRestore(task, got, res.Path, 1)
		if took := task.Now().Sub(t0); took <= 0 {
			t.Errorf("restore charged %v", took)
		}
	})
}

func TestGCReclaimsUnreferencedChunks(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, false)
		opts := mtcp.WriteOptions{Dir: "/ckpt", Store: s}

		img := capture(task)
		mtcp.WriteImage(task, img, opts)

		// Rewrite everything: generation 2 references all-new chunks.
		task.P.Mem.Area("[heap]").TouchFraction(1.0, 9)
		task.P.Mem.Area("/lib/libc.so").TouchFraction(1.0, 9)
		task.P.SaveState([]byte("iteration=2"))
		img2 := mtcp.Capture(task.P, 700)
		img2.Ext["dmtcp.fdtable"] = []byte("fdtable")
		res2 := mtcp.WriteImage(task, img2, opts)

		// Nothing pruned yet: every chunk is still referenced.
		if st := s.GC(task); st.Swept != 0 {
			t.Errorf("GC with live manifests swept %d chunks", st.Swept)
		}

		// Retention keep=1 drops generation 1; its exclusive chunks
		// must be reclaimed while generation 2's all survive.
		st := s.Collect(task, 1)
		if st.Pruned != 1 {
			t.Errorf("pruned = %d, want 1", st.Pruned)
		}
		if st.Swept == 0 || st.SweptBytes == 0 {
			t.Errorf("sweep reclaimed nothing: %+v", st)
		}
		m, err := s.LoadManifest(res2.Path)
		if err != nil {
			t.Fatalf("latest manifest gone: %v", err)
		}
		for _, ref := range m.Refs() {
			if !s.HasChunk(ref.Hash) {
				t.Errorf("referenced chunk %s swept", ref.Hash)
			}
		}
		// The surviving generation must still restore.
		got, err := mtcp.LoadImage(task, res2.Path)
		if err != nil {
			t.Fatalf("load after GC: %v", err)
		}
		if !bytes.Equal(got.Encode(), img2.Encode()) {
			t.Error("post-GC image corrupt")
		}
	})
}

func TestCopyToReplicatesManifestAndChunks(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		src := openStore(task, false)
		img := capture(task)
		res := mtcp.WriteImage(task, img, mtcp.WriteOptions{Dir: "/ckpt", Store: src})

		dst := store.Open(c.Node(1), store.Config{Root: "/ckpt/store"})
		if err := src.CopyTo(dst, res.Path); err != nil {
			t.Fatalf("copy: %v", err)
		}
		m, err := dst.LoadManifest(res.Path)
		if err != nil {
			t.Fatalf("manifest not replicated: %v", err)
		}
		for _, ref := range m.Refs() {
			if !dst.HasChunk(ref.Hash) {
				t.Errorf("chunk %s not replicated", ref.Hash)
			}
		}
	})
}

func TestManifestEncodeDecode(t *testing.T) {
	m := &store.Manifest{
		Name:       "ckpt_app_node00_7",
		Generation: 3,
		Header:     []byte("header-bytes"),
		Areas: []store.AreaChunks{{
			Area: 0,
			Chunks: []store.ChunkRef{{
				Hash: "abc123", LogicalBytes: 1 << 20, StoredBytes: 4096,
				Entropy: 0.3, ZeroFrac: 0.1,
			}},
		}},
	}
	got, err := store.DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Generation != 3 || string(got.Header) != "header-bytes" {
		t.Errorf("identity mismatch: %+v", got)
	}
	if got.NumChunks() != 1 || got.Areas[0].Chunks[0] != m.Areas[0].Chunks[0] {
		t.Errorf("chunks mismatch: %+v", got.Areas)
	}
	if _, err := store.DecodeManifest([]byte("not a manifest")); err == nil {
		t.Error("garbage accepted as manifest")
	}
}

func TestGenerationsAndRetention(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, false)
		opts := mtcp.WriteOptions{Dir: "/ckpt", Store: s}
		for i := 0; i < 4; i++ {
			img := mtcp.Capture(task.P, 700)
			mtcp.WriteImage(task, img, opts)
			task.Compute(time.Millisecond)
		}
		name := "ckpt_m_node00_700"
		if gens := s.Generations(name); len(gens) != 4 || gens[0] != 1 || gens[3] != 4 {
			t.Errorf("generations = %v", gens)
		}
		if next := s.NextGeneration(name); next != 5 {
			t.Errorf("next generation = %d", next)
		}
		s.Prune(task, 2)
		if gens := s.Generations(name); len(gens) != 2 || gens[0] != 3 {
			t.Errorf("after prune: %v", gens)
		}
	})
}

// TestGCNeverCollectsUnreplicatedChunks pins the replication-watermark
// invariant: a generation that is committed locally but not yet fully
// replicated to its peers is pinned — retention must not drop its
// manifest, and mark-and-sweep must therefore never reclaim its
// chunks, even under the tightest keep policy.
func TestGCNeverCollectsUnreplicatedChunks(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, false)
		opts := mtcp.WriteOptions{Dir: "/ckpt", Store: s}

		// Replication active from the first commit (watermark 0), as
		// the checkpoint layer guarantees via InitReplicationWatermark.
		name := "ckpt_m_node00_700"
		s.InitReplicationWatermark(task, name)

		var paths []string
		for i := 0; i < 3; i++ {
			img := capture(task)
			task.P.Mem.Area("[heap]").TouchFraction(0.5, uint64(i+1))
			res := mtcp.WriteImage(task, img, opts)
			paths = append(paths, res.Path)
		}

		// Nothing replicated yet: keep=1 must prune nothing — every
		// generation is above the watermark.
		st := s.Collect(task, 1)
		if st.Pruned != 0 || st.Swept != 0 {
			t.Fatalf("collect reclaimed unreplicated data: %+v", st)
		}
		for gi, p := range paths {
			m, err := s.LoadManifest(p)
			if err != nil {
				t.Fatalf("generation %d pruned while unreplicated: %v", gi+1, err)
			}
			for _, ref := range m.Refs() {
				if !s.HasChunk(ref.Hash) {
					t.Fatalf("generation %d chunk %s swept while unreplicated", gi+1, ref.Hash)
				}
			}
		}

		// Generation 1 replicates and becomes prunable; keep=1 would
		// like to drop generation 2 as well, but it is still above the
		// watermark and stays pinned.
		s.SetReplicationWatermark(task, name, 1)
		st = s.Collect(task, 1)
		if st.Pruned != 1 {
			t.Errorf("watermark 1, keep 1: pruned %d manifests, want 1 (gens 2-3 pinned)", st.Pruned)
		}
		if gens := s.Generations(name); len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
			t.Errorf("generations after partial replication = %v, want [2 3]", gens)
		}
		// Full replication unpins: retention now applies cleanly.
		s.SetReplicationWatermark(task, name, 3)
		s.Collect(task, 1)
		if gens := s.Generations(name); len(gens) != 1 || gens[0] != 3 {
			t.Errorf("generations after full replication = %v, want [3]", gens)
		}
		if _, err := mtcp.LoadImage(task, paths[2]); err != nil {
			t.Errorf("surviving generation unrestorable: %v", err)
		}
	})
}

// TestWrittenPrivateChunksDoNotAliasAcrossProcesses pins the dedup
// scoping rule: untouched (zero) memory and library text dedup
// globally, but once two processes write their private areas, their
// chunks must not alias even at identical write-versions — distinct
// processes hold distinct data in reality.
func TestWrittenPrivateChunksDoNotAliasAcrossProcesses(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, false)
		opts := mtcp.WriteOptions{Dir: "/ckpt", Store: s}

		mkImage := func(vpid int64) *mtcp.Image {
			p := task.P.Kern.SpawnOrphan(fmt.Sprintf("worker%d", vpid), nil, nil)
			p.Mem.Map(&kernel.VMArea{Name: "/lib/libc.so", Kind: kernel.AreaText,
				Bytes: 4 * model.MB, Class: model.ClassText})
			h := p.Mem.MapAnon("[heap]", 8*model.MB, model.ClassData)
			h.TouchFraction(1.0, 1) // both processes at version 1 everywhere
			return mtcp.Capture(p, kernel.Pid(vpid))
		}
		r1 := mtcp.WriteImage(task, mkImage(11), opts)
		r2 := mtcp.WriteImage(task, mkImage(22), opts)
		if r1.NewChunks != r1.Chunks {
			t.Errorf("first image: %d/%d new", r1.NewChunks, r1.Chunks)
		}
		// Process 2 may dedup its library text (same file) but must
		// rewrite every written heap chunk: 8 MB heap = 8 chunks.
		heapChunks := 8
		if r2.Chunks-r2.NewChunks > r2.Chunks-heapChunks {
			t.Errorf("written heap aliased across processes: %d/%d new", r2.NewChunks, r2.Chunks)
		}
		if r2.NewChunks == r2.Chunks {
			t.Errorf("library text did not dedup across processes: %d/%d new", r2.NewChunks, r2.Chunks)
		}
	})
}

// TestPrunePinnedGenerationSurvives pins repair's GC contract: a
// generation pinned by an in-flight repair drive blocks the retention
// pass (and thus the sweep) until every nested pin is released, so a
// re-replication source can never lose chunks mid-repair.
func TestPrunePinnedGenerationSurvives(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s := openStore(task, false)
		opts := mtcp.WriteOptions{Dir: "/ckpt", Store: s}
		for i := 0; i < 4; i++ {
			img := mtcp.Capture(task.P, 700)
			mtcp.WriteImage(task, img, opts)
			task.Compute(time.Millisecond)
		}
		name := "ckpt_m_node00_700"

		// Pin the oldest generation twice (overlapping repair drives
		// nest): retention must drop nothing, since pruning proceeds
		// oldest-first and stops at the pin.
		s.PinGeneration(name, 1)
		s.PinGeneration(name, 1)
		if pruned := s.Prune(task, 2); pruned != 0 {
			t.Errorf("prune with pinned gen removed %d manifests", pruned)
		}
		if gens := s.Generations(name); len(gens) != 4 {
			t.Errorf("generations after pinned prune = %v", gens)
		}

		// One release leaves the nested pin standing.
		s.UnpinGeneration(name, 1)
		if pruned := s.Prune(task, 2); pruned != 0 {
			t.Errorf("prune with nested pin removed %d manifests", pruned)
		}

		// Final release: retention may now age the old generations out.
		s.UnpinGeneration(name, 1)
		if pruned := s.Prune(task, 2); pruned != 2 {
			t.Errorf("prune after unpin removed %d manifests, want 2", pruned)
		}
		if gens := s.Generations(name); len(gens) != 2 || gens[0] != 3 {
			t.Errorf("generations after unpin = %v", gens)
		}
	})
}

// TestHasChunkProbesWithoutAllocating pins the dedup probe: HasChunk
// answers as a lookup of the chunk's full path would, for a local root
// and a shared /san root seen from another node, and builds no path
// string on the heap to do it.
func TestHasChunkProbesWithoutAllocating(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		s, refs := commitOne(t, task)
		hash := refs[0].Hash
		if !s.HasChunk(hash) || !task.P.Node.FS.Exists(s.ChunkPath(hash)) {
			t.Errorf("committed chunk %s not found", hash)
		}
		if s.HasChunk("no-such-chunk") {
			t.Error("HasChunk found a chunk that was never stored")
		}
		if n := testing.AllocsPerRun(100, func() { s.HasChunk(hash) }); n != 0 {
			t.Errorf("HasChunk allocated %.0f times per probe, want 0", n)
		}

		shared := store.Open(task.P.Node, store.Config{Root: "/san/store"})
		task.P.Node.FS.WriteFile(shared.ChunkPath(hash), []byte("x"), 0)
		peer := store.Open(c.Node(1), store.Config{Root: "/san/store"})
		if !peer.HasChunk(hash) {
			t.Error("a chunk under /san is not found from another node")
		}
		if local := store.Open(c.Node(1), store.Config{Root: "/ckpt/store"}); local.HasChunk(hash) {
			t.Error("another node's local store claims a chunk it never stored")
		}
	})
}
