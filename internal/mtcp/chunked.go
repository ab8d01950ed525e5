package mtcp

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/store"
)

// The chunked image path: instead of rewriting a monolithic image
// every generation, each area payload is split into fixed-size
// chunks, fingerprinted against the kernel's dirty-write versions,
// and only chunks the content-addressed store has not seen are
// compressed and written.  A manifest per (process, generation)
// references the chunks, so a second checkpoint of a mostly-idle
// process costs hashing (fast) plus the dirty chunks (few) rather
// than compressing and writing the whole address space again.

// ImageBase returns the canonical image name, globally unique per
// (program, host, virtual pid).  Both the monolithic path (ImagePath)
// and the store (generation keys, post-restart dedup continuity)
// derive their naming from this single definition.
func ImageBase(img *Image) string {
	return fmt.Sprintf("ckpt_%s_%s_%d", img.ProgName, img.Hostname, img.VirtPid)
}

// chunkScope returns the dedup namespace for one chunk:
//
//   - shared mappings dedup by backing object (every attach carries
//     the same bytes);
//   - text areas dedup globally by name (a library's pages are the
//     same file in every process);
//   - pristine private chunks (write-version 0) dedup globally too —
//     untouched anonymous memory is zero pages;
//   - written private chunks are scoped to the owning image: two
//     processes at the same write-version hold *different* data in
//     reality, so their chunks must not alias across processes.
func chunkScope(img *Image, a *AreaRecord, ver uint64) string {
	switch {
	case a.ShmBacking != "":
		return "shm:" + a.ShmBacking
	case a.Kind == kernel.AreaText:
		return a.Name
	case ver == 0:
		return a.Name
	}
	return ImageBase(img) + "/" + a.Name
}

// headerBytes serializes the image with every payload stripped: the
// manifest header from which restart rebuilds identity, tables, and
// area metadata before pulling payload chunks.  PayloadBytes records
// each stripped payload's length so a lazy restore can size the
// buffers chunk installs land in before any chunk has arrived.
func headerBytes(img *Image) []byte {
	hdr := *img
	hdr.Areas = append([]AreaRecord(nil), img.Areas...)
	for i := range hdr.Areas {
		hdr.Areas[i].PayloadBytes = int64(len(hdr.Areas[i].Payload))
		hdr.Areas[i].Payload = nil
	}
	return hdr.Encode()
}

// chunkVersionFor maps a store chunk's logical span onto the kernel's
// write-tracking counters: the chunk's version is the max over the
// tracking chunks it overlaps, so any dirty page in the span changes
// the fingerprint.
func chunkVersionFor(vers []uint64, off, span int64) uint64 {
	if len(vers) == 0 {
		return 0
	}
	lo := off / kernel.CkptChunkBytes
	hi := off / kernel.CkptChunkBytes
	if span > 0 {
		hi = (off + span - 1) / kernel.CkptChunkBytes
	}
	var v uint64
	for i := lo; i <= hi && int(i) < len(vers); i++ {
		if vers[i] > v {
			v = vers[i]
		}
	}
	return v
}

// payloadSpan returns the real payload bytes mapped onto logical
// offsets [off, off+span).
func payloadSpan(payload []byte, off, span int64) []byte {
	n := int64(len(payload))
	lo := off
	if lo > n {
		lo = n
	}
	hi := off + span
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return nil
	}
	return payload[lo:hi]
}

// areaKeys assigns each image area a stable lookup key: its name plus
// an occurrence index, so duplicate names (two identically named
// mappings) cannot alias each other across generations.
func areaKeys(areas []AreaRecord) []string {
	seen := map[string]int{}
	keys := make([]string, len(areas))
	for i := range areas {
		n := areas[i].Name
		keys[i] = fmt.Sprintf("%s#%d", n, seen[n])
		seen[n]++
	}
	return keys
}

// priorGen is the previous committed generation of an image: its chunk
// refs and write versions keyed by area, loaded once per write so
// clean chunks are recognized by version without rescanning content.
type priorGen struct {
	refs map[string][]store.ChunkRef
	vers map[string][]uint64
}

// lookup returns the prior generation's ref for (areaKey, idx) when
// the chunk's write version and span are unchanged — the kernel's
// dirty tracking proving the content identical.
func (pg *priorGen) lookup(areaKey string, idx int, ver uint64, span int64) (store.ChunkRef, bool) {
	if pg == nil {
		return store.ChunkRef{}, false
	}
	vs := pg.vers[areaKey]
	rs := pg.refs[areaKey]
	if idx >= len(vs) || idx >= len(rs) {
		return store.ChunkRef{}, false
	}
	if vs[idx] != ver || rs[idx].LogicalBytes != span {
		return store.ChunkRef{}, false
	}
	return rs[idx], true
}

// loadPrior reads the newest committed generation below gen, charging
// the manifest metadata read.  nil means a cold start: the image has
// no history in this store and the write proceeds straight through —
// no per-chunk dedup bookkeeping can pay for itself.
func loadPrior(t *kernel.Task, s *store.Store, name string, gen int64) *priorGen {
	var best int64
	for _, g := range s.Generations(name) {
		if g < gen && g > best {
			best = g
		}
	}
	if best == 0 {
		return nil
	}
	path := s.ManifestPath(name, best)
	m, err := s.LoadManifest(path)
	if err != nil {
		return nil
	}
	hdr, err := Decode(m.Header)
	if err != nil {
		return nil
	}
	if ino, err := t.P.Node.FS.ReadFile(path); err == nil {
		t.P.Node.ReadPipeFor(path).Read(t.T, ino.Size())
	}
	keys := areaKeys(hdr.Areas)
	pg := &priorGen{
		refs: make(map[string][]store.ChunkRef, len(hdr.Areas)),
		vers: make(map[string][]uint64, len(hdr.Areas)),
	}
	for i := range hdr.Areas {
		pg.vers[keys[i]] = hdr.Areas[i].ChunkVers
	}
	for _, ac := range m.Areas {
		if ac.Area >= 0 && ac.Area < len(keys) {
			pg.refs[keys[ac.Area]] = ac.Chunks
		}
	}
	return pg
}

// chunkWork is one chunk of one area awaiting hashing/write.
type chunkWork struct {
	area      int
	idx       int
	off, span int64
	ver       uint64
}

// writeChunked is checkpoint step 5 through the store: a parallel,
// pipelined write path.  A pool of opts.Workers tasks partitions the
// image's chunks, recognizes clean chunks by the kernel's write
// versions (no content rescans), compresses and writes the dirty ones
// concurrently (the node's core scheduler meters the real speedup),
// and hands every finished chunk to opts.Stream so replication fan-out
// overlaps the write.  The calling task is the committer: it assembles
// the manifest from the index-addressed results — byte-identical
// regardless of worker count or completion order — and commits it.
func writeChunked(t *kernel.Task, img *Image, opts WriteOptions) WriteResult {
	s := opts.Store
	p := t.P.Node.Cluster.Params
	start := t.Now()

	t.Compute(p.WriteSetup)
	t.Compute(time.Duration(len(img.Areas)) * p.PerAreaCost)

	name := ImageBase(img)
	gen := opts.Generation
	if gen == 0 {
		gen = s.NextGeneration(name)
	}
	prior := loadPrior(t, s, name, gen)
	keys := areaKeys(img.Areas)

	// Deterministic work list and index-addressed result slots.
	var work []chunkWork
	results := make([][]store.ChunkRef, len(img.Areas))
	// Store chunks are the kernel's dirty-tracking chunks, so chunk
	// versions map 1:1 onto them.
	const cb = kernel.CkptChunkBytes
	for ai := range img.Areas {
		a := &img.Areas[ai]
		logical := a.Bytes
		if pl := int64(len(a.Payload)); pl > logical {
			logical = pl
		}
		n := 0
		if logical > 0 {
			n = int((logical + cb - 1) / cb)
		}
		results[ai] = make([]store.ChunkRef, n)
		for i := 0; i < n; i++ {
			off := int64(i) * cb
			span := cb
			if off+span > logical {
				span = logical - off
			}
			work = append(work, chunkWork{area: ai, idx: i, off: off, span: span,
				ver: chunkVersionFor(a.ChunkVers, off, span)})
		}
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	track := fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid)
	chunksStart := t.Now()
	var newBytes, dedupBytes int64
	newChunks := 0
	kernel.RunWorkers(t, workers, len(work), "ckpt-worker", func(wt *kernel.Task, i int) error {
		w := work[i]
		a := &img.Areas[w.area]
		// Clean chunk: same write version (and span) as the prior
		// generation means same content — reuse its ref after one
		// index probe, never rescanning the span.
		if pr, ok := prior.lookup(keys[w.area], w.idx, w.ver, w.span); ok {
			wt.Compute(p.ChunkLookupCost)
			if s.HasChunk(pr.Hash) {
				pr.Heat = int64(w.ver)
				results[w.area][w.idx] = pr
				dedupBytes += pr.StoredBytes
				if opts.Stream != nil {
					opts.Stream.Chunk(wt, pr)
				}
				return nil
			}
		}
		// Dirty (or cold-start) chunk: identity derives from the dedup
		// scope, position, and write version; only real payload bytes
		// need content fingerprinting.
		data := payloadSpan(a.Payload, w.off, w.span)
		if n := int64(len(data)); n > 0 {
			wt.Compute(p.HashTime(n))
		}
		ref := store.ChunkRef{
			Hash:         store.ChunkHash(chunkScope(img, a, w.ver), w.idx, w.ver, w.span, a.Class(), data),
			LogicalBytes: w.span,
			Entropy:      a.Entropy,
			ZeroFrac:     a.ZeroFrac,
			Heat:         int64(w.ver),
		}
		stored, isNew := s.PutChunk(wt, &ref, data)
		results[w.area][w.idx] = ref
		if isNew {
			newChunks++
			newBytes += stored
		} else {
			dedupBytes += stored
		}
		if opts.Stream != nil {
			opts.Stream.Chunk(wt, ref)
		}
		return nil
	})

	t.Trace().Span(t.Host(), track, "ckpt.write.chunks", "ckpt", chunksStart, t.Now(),
		obs.A("workers", int64(workers)), obs.A("chunks", int64(len(work))),
		obs.A("new_bytes", newBytes), obs.A("dedup_bytes", dedupBytes))

	commitStart := t.Now()
	m := &store.Manifest{
		Name:       name,
		Generation: gen,
		Header:     headerBytes(img),
	}
	chunks := 0
	for ai := range img.Areas {
		m.Areas = append(m.Areas, store.AreaChunks{Area: ai, Chunks: results[ai]})
		chunks += len(results[ai])
	}

	path, manifestBytes := s.WriteManifest(t, m)
	res := WriteResult{
		Path:       path,
		Bytes:      newBytes + manifestBytes,
		RawBytes:   img.LogicalBytes(),
		Took:       t.Now().Sub(start),
		Generation: m.Generation,
		Chunks:     chunks,
		NewChunks:  newChunks,
		DedupBytes: dedupBytes,
		Workers:    workers,
	}
	if opts.Stream != nil {
		res.OverlapBytes = opts.Stream.Commit(t, path)
	}
	if opts.Fsync {
		syncStart := t.Now()
		t.P.Node.WritePipeFor(s.ChunkPath("")).Sync(t.T)
		res.SyncTook = t.Now().Sub(syncStart)
		res.Took = t.Now().Sub(start)
	}
	t.Trace().Span(t.Host(), track, "ckpt.write.commit", "ckpt", commitStart, t.Now(),
		obs.A("gen", res.Generation), obs.A("overlap_bytes", res.OverlapBytes))
	return res
}

// loadChunked reads a manifest back into an Image, charging only the
// metadata read (manifest plus header tables); the bulk chunk
// streaming is charged by chargeChunkedRestore.
func loadChunked(t *kernel.Task, path string) (*Image, error) {
	p := t.P.Node.Cluster.Params
	root, ok := store.RootForManifest(path)
	if !ok {
		return nil, ErrBadImage
	}
	s := store.Open(t.P.Node, store.Config{Root: root})
	ino, err := t.P.Node.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := store.ManifestOf(ino)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	img, err := Decode(m.Header)
	if err != nil {
		return nil, err
	}
	for _, ac := range m.Areas {
		if ac.Area < 0 || ac.Area >= len(img.Areas) {
			return nil, fmt.Errorf("%w: manifest area %d out of range", ErrBadImage, ac.Area)
		}
		var buf []byte
		for _, ref := range ac.Chunks {
			data, err := s.ReadChunkVerified(t, ref)
			if err != nil {
				return nil, fmt.Errorf("%w: missing or corrupt chunk %s: %v", ErrBadImage, ref.Hash, err)
			}
			buf = append(buf, data...)
		}
		img.Areas[ac.Area].Payload = buf
	}
	img.manifest = m
	t.Compute(p.RestoreSetup)
	meta := ino.Size() + 64*1024
	for _, e := range img.Ext {
		meta += int64(len(e))
	}
	t.P.Node.ReadPipeFor(path).Read(t.T, meta)
	return img, nil
}

// chargeChunkedRestore charges the bulk of a store-backed restart:
// streaming every referenced chunk through a read-ahead stage while
// one consumer decompresses the compressed ones — or, for an image the
// restore pipeline already loaded, only the per-area install
// bookkeeping.
func chargeChunkedRestore(t *kernel.Task, img *Image, path string) {
	p := t.P.Node.Cluster.Params
	if !img.bulkCharged {
		root, _ := store.RootForManifest(path) // IsManifestPath held
		s := store.Open(t.P.Node, store.Config{Root: root})
		m := img.manifest // decoded by loadChunked for this same image
		if m == nil {
			var err error
			if m, err = s.LoadManifest(path); err != nil {
				return
			}
		}
		refs := m.Refs()
		stored := make([]int64, len(refs))
		for i, r := range refs {
			stored[i] = r.StoredBytes
		}
		kernel.ReadAll(t, t.P.Node.ReadPipeFor(s.ChunkPath("")), stored, 1, func(wt *kernel.Task, i int) {
			store.ChargeGunzip(wt, refs[i])
		})
	}
	t.Compute(time.Duration(len(img.Areas)) * p.PerAreaCost)
}
