package mtcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// The restore pipeline: the read-path mirror of the parallel pipelined
// write, and the one way a store image comes back.  Restore reads the
// manifest and verifies every local chunk — a corrupt one is
// quarantined and treated as missing, so latent disk corruption found
// at restart heals instead of being installed.  A fetch stage pulls
// the missing chunks through the caller's ChunkFetcher; a read-ahead
// stage (kernel.ReadAhead) reads each chunk off the local disk the
// moment it is local, in order; and a worker pool decompresses each
// chunk whose read has ended and installs it at its offset.  A restart
// on a replica holder is therefore pure parallel decompress behind one
// chunk's read, and a restart on a cold node hides most of the
// decompress time inside the transfer.
//
// An eager restore returns with every chunk installed.  A lazy
// (post-copy) one returns as soon as the skeleton is in — the hottest
// few chunks plus every shared-area chunk — and hands the rest back,
// hottest-first, for a second run of the same pipeline after the
// process resumes: its fetch stage is the DMTCP layer's pull stream, a
// first-touch fault pulls its chunk on demand, and the pool drains the
// remainder.

// ChunkFetcher supplies chunks the local store lacks during a restore
// — the pull peer of the write path's ChunkStream.  The DMTCP layer
// implements it over a replica.PullStream; MTCP only sees this
// interface.
type ChunkFetcher interface {
	// Fetch pulls refs into the local store, invoking deliver as each
	// chunk becomes locally durable (any order).  It returns the
	// stored bytes and chunk count actually transferred.  On error,
	// chunks delivered so far remain valid; the pipeline aborts and
	// the caller discards the partially restored image.
	Fetch(t *kernel.Task, refs []store.ChunkRef, deliver func(store.ChunkRef)) (int64, int, error)
}

// RestoreOptions controls a restore.
type RestoreOptions struct {
	// Workers sizes the install pool (decompression CPU; the node's
	// core scheduler bounds the real speedup).  <= 1 installs serially
	// but still overlaps with the fetch and read-ahead stages: one
	// reader task reads the chunks whatever the pool's size.
	Workers int
	// Fetch supplies chunks the local store lacks; nil requires every
	// chunk to be local already (the short-circuit-only case).
	Fetch ChunkFetcher
	// Lazy makes the restore post-copy: it fetches and installs only
	// the skeleton — the Params.LazySkeletonChunks hottest private
	// chunks by manifest heat, plus every chunk of a shared
	// (shm-backed) area, which cannot restore lazily — and returns the
	// rest as pending.
	Lazy bool
}

// RestoreStats reports one restore.
type RestoreStats struct {
	// Took is the pipeline wall time: metadata read through the last
	// installed chunk.
	Took time.Duration
	// Fetch is the network stage's active time (zero when every chunk
	// was local); FetchedBytes/FetchedChunks what actually traveled.
	Fetch         time.Duration
	FetchedBytes  int64
	FetchedChunks int
	// OverlapBytes is the stored bytes already decompressed/installed
	// when the fetch stage finished — the work the pipeline hid inside
	// the transfer, which a fetch-then-install restore would have paid
	// serially afterwards.
	OverlapBytes int64
	// Workers is the install pool size used.
	Workers int
}

// LazyChunk locates one chunk a lazy restore left pending: Area is the
// image area index (not the manifest's area-list index), Idx the chunk
// index within that area's payload, and Ref the store reference to
// pull.
type LazyChunk = store.ChunkCoord

// Restore loads a store manifest into an Image through the restore
// pipeline.  The manifest itself must already be local (callers fetch
// it first — it is metadata-sized); chunk payloads may live anywhere
// opts.Fetch can reach.  Area buffers are sized from their recorded
// payload lengths and every installed chunk lands at its offset.  The
// image has its bulk restore cost paid, so InstallMemory charges only
// its per-area bookkeeping; pending chunks (lazy only, hottest-first)
// are paid for by whoever installs them.
func Restore(t *kernel.Task, path string, opts RestoreOptions) (*Image, []LazyChunk, RestoreStats, error) {
	var rs RestoreStats
	start := t.Now()
	img, m, s, err := openManifest(t, path)
	if err != nil {
		return nil, nil, rs, err
	}

	// The install list: every chunk in manifest order, or the skeleton
	// — a hot-order prefix plus the shared areas — when lazy.  Both
	// lists reuse the slice the manifest hands out, each Area rewritten
	// to its image area.
	coords := m.Coords()
	if opts.Lazy {
		coords = m.HotOrder()
	}
	for i := range coords {
		coords[i].Area = m.Areas[coords[i].Area].Area
	}
	// Verify every local chunk once; a corrupt one is quarantined, so
	// it reads as missing here and to whoever pulls the pending rest.
	local := make(map[string]bool, len(coords))
	for _, c := range coords {
		if _, seen := local[c.Ref.Hash]; seen {
			continue
		}
		err := s.VerifyChunk(c.Ref)
		if errors.Is(err, store.ErrCorruptChunk) {
			s.Quarantine(t, c.Ref.Hash)
		}
		local[c.Ref.Hash] = err == nil
	}
	install, pending := coords, []LazyChunk(nil)
	if opts.Lazy {
		// The skeleton: the budget's hottest private chunks plus every
		// chunk of a shared area; the pending rest stays hottest-first,
		// compacted in place.
		install, pending = nil, coords[:0]
		taken := 0
		for _, c := range coords {
			shared := img.Areas[c.Area].ShmBacking != ""
			if shared || taken < t.P.Node.Cluster.Params.LazySkeletonChunks {
				install = append(install, c)
				if !shared {
					taken++
				}
				continue
			}
			pending = append(pending, c)
		}
	}

	pl, missing := NewPipeline(t, img, s, install, local)
	var fetch func(*kernel.Task) error
	if len(missing) > 0 {
		if opts.Fetch == nil {
			pl.ra.Stop()
			return nil, nil, rs, fmt.Errorf("%w: %d chunks missing locally with no fetch source", ErrBadImage, len(missing))
		}
		fStart := t.Now()
		fetch = func(ft *kernel.Task) error {
			bytes, chunks, err := opts.Fetch.Fetch(ft, missing, pl.Deliver)
			rs.FetchedBytes, rs.FetchedChunks, rs.Fetch = bytes, chunks, ft.Now().Sub(fStart)
			// The network stage just ended: whatever the install pool
			// finished by now rode inside the transfer.
			rs.OverlapBytes = pl.stored
			ft.Trace().Span(ft.Host(), pl.track+" fetch", "restore.fetch", "restore",
				fStart, ft.Now(), obs.A("bytes", bytes), obs.A("chunks", int64(chunks)))
			ft.Trace().Add(ft.Host(), "restore.fetched_bytes", ft.Now(), bytes)
			return err
		}
	}
	// The install pool never spawns more workers than there are chunks;
	// report that effective size, not the configured one, so an
	// all-local restart of a small image doesn't claim a pool it never
	// ran.
	rs.Workers = min(max(opts.Workers, 1), len(install))
	pl.Start(t, rs.Workers, fetch)
	for pl.running > 0 {
		pl.join.Wait(t.T)
	}
	if pl.err != nil {
		// Abort: nothing was installed into a live process — the
		// partially assembled image is discarded whole, so a lost
		// holder can never corrupt a restore.
		return nil, nil, rs, pl.err
	}

	rs.Took = t.Now().Sub(start)
	name := "restore.pipeline"
	if opts.Lazy {
		name = "restore.skeleton"
	}
	t.Trace().Span(t.Host(), pl.track, name, "restore", start, t.Now(),
		obs.A("workers", int64(rs.Workers)), obs.A("chunks", int64(len(install))),
		obs.A("pending", int64(len(pending))), obs.A("fetched_bytes", rs.FetchedBytes),
		obs.A("overlap_bytes", rs.OverlapBytes))
	return img, pending, rs, nil
}

// openManifest reads a store manifest and the image header it carries,
// charging the restore's setup and metadata read, and sizes every area
// buffer from its recorded payload length.
func openManifest(t *kernel.Task, path string) (*Image, *store.Manifest, *store.Store, error) {
	root, ok := store.RootForManifest(path)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: not a manifest path: %s", ErrBadImage, path)
	}
	s := store.Open(t.P.Node, store.Config{Root: root})
	ino, err := t.P.Node.FS.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := store.ManifestOf(ino)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	img, err := Decode(m.Header)
	if err != nil {
		return nil, nil, nil, err
	}
	t.Compute(t.P.Node.Cluster.Params.RestoreSetup)
	meta := ino.Size() + 64*1024
	for _, e := range img.Ext {
		meta += int64(len(e))
	}
	t.P.Node.ReadPipeFor(path).Read(t.T, meta)

	for _, ac := range m.Areas {
		if ac.Area < 0 || ac.Area >= len(img.Areas) {
			return nil, nil, nil, fmt.Errorf("%w: manifest area %d out of range", ErrBadImage, ac.Area)
		}
		a := &img.Areas[ac.Area]
		a.Payload = nil
		if a.PayloadBytes > 0 {
			a.Payload = make([]byte, a.PayloadBytes)
		}
	}
	return img, m, s, nil
}

// Pipeline is the restore pipeline above, landing a list of chunks at
// their image coordinates: an eager restore runs it over its install
// list, a post-copy tail a second time over the pending rest.  Chunks
// land in the image buffers until Wire switches landing to the forked
// process's live areas.  Each chunk is claimed once, by a worker or a
// faulting thread, whoever gets there first; the first error stops the
// read-ahead stage, and every worker winds down.
type Pipeline struct {
	img    *Image
	s      *store.Store
	coords []store.ChunkCoord // Area is the image area index
	byHash map[string][]int   // hash → coordinates awaiting delivery
	ra     *kernel.ReadAhead  // coordinates whose chunk is local
	state  []uint8            // per coordinate: free, claimed or landed
	left   int                // coordinates not landed yet
	stored int64              // stored bytes landed
	track  string

	running int            // pool workers and fetch stage still running
	join    *sim.WaitQueue // the pool's exits and the fetch stage's end
	landed  *sim.WaitQueue // every landing, the end, an error: Drain and faulting threads
	err     error

	// Post-copy, once wired: the owner process, its live areas by image
	// area index, each absent chunk's coordinate, and the demand path.
	proc    *kernel.Process
	live    map[int]*kernel.VMArea
	at      map[[2]int]int
	src     Demander
	faults  int
	aborted bool
}

// Demander is what a post-copy pipeline needs of its fetch stage beyond
// the end of the fetch: pull one chunk ahead of the fetch order (Demand
// blocks until it is local) and stop fetching.  replica.PullStream is
// one.
type Demander interface {
	Demand(t *kernel.Task, ref store.ChunkRef) error
	Abort()
}

const (
	free uint8 = iota
	claimed
	landed
)

// NewPipeline indexes coords and starts the read-ahead stage off s's
// chunk directory in t's process.  Chunks local reports present are
// queued on the stage at once, in list order; the rest wait for
// Deliver.  It returns the rest, unique by hash (a dedup'd chunk
// referenced by several coordinates travels once and lands
// everywhere): what the fetch stage must pull.
func NewPipeline(t *kernel.Task, img *Image, s *store.Store, coords []store.ChunkCoord, local map[string]bool) (*Pipeline, []store.ChunkRef) {
	eng := t.P.Node.Cluster.Eng
	pl := &Pipeline{img: img, s: s, coords: coords, state: make([]uint8, len(coords)), left: len(coords),
		track:  fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid),
		join:   sim.NewWaitQueue(eng, t.P.Node.Hostname+".restore-join"),
		landed: sim.NewWaitQueue(eng, "restore.landed")}
	// The stage's reader never reads a chunk a fault already claimed.
	pl.ra = kernel.NewReadAhead(t, t.P.Node.ReadPipeFor(s.ChunkPath("")),
		func(i int) bool { return pl.state[i] == free })
	var missing []store.ChunkRef
	for i, c := range coords {
		if local[c.Ref.Hash] {
			pl.ra.Queue(i, c.Ref.StoredBytes)
			continue
		}
		if pl.byHash == nil {
			pl.byHash = make(map[string][]int, len(coords)-i)
		}
		if len(pl.byHash[c.Ref.Hash]) == 0 {
			missing = append(missing, c.Ref)
		}
		pl.byHash[c.Ref.Hash] = append(pl.byHash[c.Ref.Hash], i)
	}
	return pl, missing
}

// Deliver queues every coordinate of a chunk that just became locally
// durable on the read-ahead stage, which wakes one idle worker per
// chunk it has read.  The fetch stage calls it, on whichever task
// landed the chunk.
func (pl *Pipeline) Deliver(ref store.ChunkRef) {
	for _, i := range pl.byHash[ref.Hash] {
		pl.ra.Queue(i, ref.StoredBytes)
	}
}

// Start runs the fetch stage (nil when every chunk is local) on its own
// task and an install pool of workers tasks.  The fetch stage's end
// closes the read-ahead stage; its error fails the pipeline, unless the
// pipeline was aborted.
func (pl *Pipeline) Start(t *kernel.Task, workers int, fetch func(*kernel.Task) error) {
	if fetch == nil {
		pl.ra.Close()
	} else {
		pl.running++
		t.P.SpawnTask("restore-fetch", true, func(ft *kernel.Task) {
			if err := fetch(ft); err != nil && !pl.aborted {
				pl.end(err)
			} else {
				pl.ra.Close()
			}
			pl.exit()
		})
	}
	for w := 0; w < workers; w++ {
		w := w
		pl.running++
		t.P.SpawnTask("restore-worker", true, func(wt *kernel.Task) { pl.work(wt, w) })
	}
}

// work is install worker w: it claims the chunks the stage has read, in
// read order, skips one a fault claimed meanwhile, and lands each other
// one.  It exits when the stage ends, and aborts the pipeline if the
// owner process died.
func (pl *Pipeline) work(t *kernel.Task, w int) {
	start, stored := t.Now(), int64(0)
	defer func() {
		t.Trace().Span(t.Host(), fmt.Sprintf("%s install.%d", pl.track, w),
			"restore.install", "restore", start, t.Now(), obs.A("stored_bytes", stored))
		pl.exit()
	}()
	for {
		i, ok := pl.ra.Claim(t)
		if !ok {
			return
		}
		if pl.proc != nil && (pl.proc.Dead || pl.proc.Zombie) {
			pl.end(nil)
			return
		}
		if pl.state[i] != free {
			continue
		}
		pl.state[i] = claimed
		if !pl.land(t, i) {
			return
		}
		stored += pl.coords[i].Ref.StoredBytes
	}
}

// land pays claimed coordinate i's decompression, reads its chunk
// verified and copies it in: into the image buffers, or into the live
// area, marking it present, once wired.  A chunk that went bad since
// it was verified is quarantined and fails the pipeline.
func (pl *Pipeline) land(t *kernel.Task, i int) bool {
	c := pl.coords[i]
	store.ChargeGunzip(t, c.Ref)
	data, err := pl.s.ReadChunkVerified(t, c.Ref)
	if err != nil {
		pl.end(fmt.Errorf("%w: chunk %s vanished mid-restore: %w", ErrBadImage, c.Ref.Hash, err))
		return false
	}
	if a := pl.live[c.Area]; a != nil {
		a.InstallChunk(c.Idx, data)
	} else if buf, off := pl.img.Areas[c.Area].Payload, int64(c.Idx)*kernel.CkptChunkBytes; off < int64(len(buf)) {
		copy(buf[off:], data)
	}
	pl.state[i] = landed
	pl.stored += c.Ref.StoredBytes
	if pl.left--; pl.left == 0 {
		pl.ra.Stop() // every chunk is in: the workers exit
	}
	pl.landed.WakeAll()
	return true
}

// end ends the pipeline: the stage stops, so the workers exit, and the
// drain and the faulting threads wake to see why.  A non-nil err fails
// it (the first error is kept); nil aborts it because the owner process
// died, which also stops the fetch stage — whatever landed in the local
// store stays durable.
func (pl *Pipeline) end(err error) {
	if err == nil && !pl.aborted {
		pl.aborted = true
		pl.src.Abort()
	}
	if pl.err == nil {
		pl.err = err
	}
	pl.ra.Stop()
	pl.landed.WakeAll()
}

// exit ends a worker or the fetch stage.
func (pl *Pipeline) exit() {
	pl.running--
	pl.join.WakeAll()
	pl.landed.WakeAll()
}

// Wire switches landing to p's live areas.  Restart step 5 calls it
// right after InstallMemory copied the image buffers: every chunk not
// landed yet becomes absent in its area's presence map, and a first
// touch faults it in through src.
func (pl *Pipeline) Wire(p *kernel.Process, src Demander) {
	pl.proc, pl.src = p, src
	areas := p.Mem.Areas()
	absent := make([][]int, len(areas))
	pl.at = make(map[[2]int]int, pl.left)
	for i, c := range pl.coords {
		if pl.state[i] != landed && c.Area >= 0 && c.Area < len(areas) {
			absent[c.Area] = append(absent[c.Area], c.Idx)
			pl.at[[2]int{c.Area, c.Idx}] = i
		}
	}
	pl.live = map[int]*kernel.VMArea{}
	for ai, idx := range absent {
		if len(idx) > 0 {
			ai := ai
			areas[ai].SetLazy(idx, func(t *kernel.Task, _ *kernel.VMArea, chunk int) error {
				return pl.fault(t, ai, chunk)
			})
			pl.live[ai] = areas[ai]
		}
	}
}

// fault is a wired area's first-touch hook: charge the trap, pull the
// chunk ahead of the fetch order, land it unless a worker already
// claimed it, and block this thread until it has landed.  A chunk the
// read-ahead stage has already taken lands off the stage's read, once
// its transfer ends; only one the stage has not taken is read here.
func (pl *Pipeline) fault(t *kernel.Task, area, chunk int) error {
	t.Compute(t.P.Node.Cluster.Params.FaultTrapCost)
	i := pl.at[[2]int{area, chunk}]
	if pl.state[i] == landed {
		return nil
	}
	pl.faults++
	start, ref := t.Now(), pl.coords[i].Ref
	mine := pl.state[i] == free
	pl.state[i] = claimed
	if err := pl.src.Demand(t, ref); err != nil {
		pl.end(err)
		return err
	}
	if mine {
		if !pl.ra.Take(t, i) {
			pl.s.ChargeReadRaw(t, []store.ChunkRef{ref})
		}
		pl.land(t, i)
	}
	for pl.state[i] != landed {
		if pl.err != nil {
			return pl.err
		}
		if pl.aborted {
			return fmt.Errorf("mtcp: post-copy restore aborted")
		}
		pl.landed.Wait(t.T)
	}
	t.Trace().Span(t.Host(), fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid),
		"lazy.fault", "restart", start, t.Now(),
		obs.A("area", int64(area)), obs.A("chunk", int64(chunk)),
		obs.A("stored_bytes", ref.StoredBytes))
	return nil
}

// Drain blocks until every chunk has landed, the pipeline failed, or
// the owner process died, which aborts it cleanly.
func (pl *Pipeline) Drain(t *kernel.Task) error {
	for pl.left > 0 && pl.err == nil && !pl.aborted {
		if pl.proc != nil && (pl.proc.Dead || pl.proc.Zombie) {
			pl.end(nil)
			break
		}
		pl.landed.Wait(t.T)
	}
	return pl.err
}

// Faults counts the first-touch faults that waited for a chunk.
func (pl *Pipeline) Faults() int { return pl.faults }
