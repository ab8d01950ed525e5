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
// hottest-first, for the DMTCP layer to pull after the process
// resumes: a first-touch fault pulls its chunk on demand while a
// background prefetcher drains the remainder.

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

// LazyChunk locates one chunk a lazy restore left pending: the image
// area index, the chunk index within that area's payload, and the
// store reference to pull.
type LazyChunk struct {
	Area int
	Idx  int
	Ref  store.ChunkRef
}

// Restore loads a store manifest into an Image through the restore
// pipeline.  The manifest itself must already be local (callers fetch
// it first — it is metadata-sized); chunk payloads may live anywhere
// opts.Fetch can reach.  Area buffers are sized from their recorded
// payload lengths and every installed chunk lands at its offset.  The
// image has its bulk restore cost paid — ChargeMemoryRestore on it
// charges only per-area install bookkeeping; pending chunks (lazy
// only, hottest-first) are paid for by whoever installs them.
func Restore(t *kernel.Task, path string, opts RestoreOptions) (*Image, []LazyChunk, RestoreStats, error) {
	p := t.P.Node.Cluster.Params
	var rs RestoreStats
	start := t.Now()

	root, ok := store.RootForManifest(path)
	if !ok {
		return nil, nil, rs, fmt.Errorf("%w: not a manifest path: %s", ErrBadImage, path)
	}
	s := store.Open(t.P.Node, store.Config{Root: root})
	ino, err := t.P.Node.FS.ReadFile(path)
	if err != nil {
		return nil, nil, rs, err
	}
	m, err := store.ManifestOf(ino)
	if err != nil {
		return nil, nil, rs, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	img, err := Decode(m.Header)
	if err != nil {
		return nil, nil, rs, err
	}
	t.Compute(p.RestoreSetup)
	meta := ino.Size() + 64*1024
	for _, e := range img.Ext {
		meta += int64(len(e))
	}
	t.P.Node.ReadPipeFor(path).Read(t.T, meta)

	for _, ac := range m.Areas {
		if ac.Area < 0 || ac.Area >= len(img.Areas) {
			return nil, nil, rs, fmt.Errorf("%w: manifest area %d out of range", ErrBadImage, ac.Area)
		}
		a := &img.Areas[ac.Area]
		a.Payload = nil
		if a.PayloadBytes > 0 {
			a.Payload = make([]byte, a.PayloadBytes)
		}
	}

	// The install list: every chunk in manifest order, or the skeleton
	// — a hot-order prefix plus the shared areas — when lazy.
	coords := m.Coords()
	install := coords
	var pending []LazyChunk
	if opts.Lazy {
		coords = m.HotOrder()
		install = nil
		taken := 0
		for _, c := range coords {
			ai := m.Areas[c.Area].Area
			shared := img.Areas[ai].ShmBacking != ""
			if shared || taken < p.LazySkeletonChunks {
				install = append(install, c)
				if !shared {
					taken++
				}
				continue
			}
			pending = append(pending, LazyChunk{Area: ai, Idx: c.Idx, Ref: c.Ref})
		}
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
	// Local chunks are ready at once; the rest go to the fetcher,
	// unique by hash (a dedup'd chunk referenced by several areas
	// travels once and installs everywhere).
	ra := kernel.NewReadAhead(t, t.P.Node.ReadPipeFor(s.ChunkPath("")), nil)
	byHash := make(map[string][]int)
	var missing []store.ChunkRef
	for i, c := range install {
		if local[c.Ref.Hash] {
			ra.Queue(i, c.Ref.StoredBytes)
			continue
		}
		if len(byHash[c.Ref.Hash]) == 0 {
			missing = append(missing, c.Ref)
		}
		byHash[c.Ref.Hash] = append(byHash[c.Ref.Hash], i)
	}
	if len(missing) > 0 && opts.Fetch == nil {
		ra.Stop()
		return nil, nil, rs, fmt.Errorf("%w: %d chunks missing locally with no fetch source", ErrBadImage, len(missing))
	}

	// The install pool never spawns more workers than there are chunks;
	// report that effective size, not the configured one, so an
	// all-local restart of a small image doesn't claim a pool it never
	// ran.
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	nWorkers := workers
	if nWorkers > len(install) {
		nWorkers = len(install)
	}
	rs.Workers = nWorkers

	join := sim.NewWaitQueue(t.P.Node.Cluster.Eng, t.P.Node.Hostname+".restore-join")
	fetching := len(missing) > 0
	var fetchErr error
	var installedStored int64
	// fail records the pipeline's first error and ends the read stage,
	// so every install worker winds down.
	fail := func(err error) {
		if fetchErr == nil {
			fetchErr = err
		}
		ra.Stop()
	}

	track := fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid)
	if fetching {
		fStart := t.Now()
		t.P.SpawnTask("restore-fetch", true, func(ft *kernel.Task) {
			bytes, chunks, err := opts.Fetch.Fetch(ft, missing, func(ref store.ChunkRef) {
				for _, i := range byHash[ref.Hash] {
					ra.Queue(i, ref.StoredBytes)
				}
			})
			rs.FetchedBytes += bytes
			rs.FetchedChunks += chunks
			rs.Fetch = ft.Now().Sub(fStart)
			if err != nil {
				fail(err)
			} else {
				// The network stage just ended: whatever the install
				// pool finished by now rode inside the transfer.
				rs.OverlapBytes = installedStored
				ra.Close()
			}
			ft.Trace().Span(ft.Host(), track+" fetch", "restore.fetch", "restore",
				fStart, ft.Now(), obs.A("bytes", bytes), obs.A("chunks", int64(chunks)))
			ft.Trace().Add(ft.Host(), "restore.fetched_bytes", ft.Now(), bytes)
			fetching = false
			join.WakeAll()
		})
	} else {
		ra.Close()
	}

	// Install pool: each worker claims chunks whose read has ended,
	// charges their decompression (the core scheduler meters the real
	// speedup), and copies the payload to the chunk's offset.
	joined := 0
	for w := 0; w < nWorkers; w++ {
		w := w
		t.P.SpawnTask("restore-worker", true, func(wt *kernel.Task) {
			wStart, wInstalled := wt.Now(), int64(0)
			defer func() {
				wt.Trace().Span(wt.Host(), fmt.Sprintf("%s install.%d", track, w),
					"restore.install", "restore", wStart, wt.Now(),
					obs.A("stored_bytes", wInstalled))
				joined++
				join.WakeAll()
			}()
			for {
				i, ok := ra.Claim(wt)
				if !ok {
					return
				}
				c := install[i]
				store.ChargeGunzip(wt, c.Ref)
				data, err := s.ReadChunkVerified(wt, c.Ref)
				if err != nil {
					fail(fmt.Errorf("%w: chunk %s vanished mid-restore: %v", ErrBadImage, c.Ref.Hash, err))
					return
				}
				off := int64(c.Idx) * kernel.CkptChunkBytes
				if buf := img.Areas[m.Areas[c.Area].Area].Payload; off < int64(len(buf)) {
					copy(buf[off:], data)
				}
				installedStored += c.Ref.StoredBytes
				wInstalled += c.Ref.StoredBytes
			}
		})
	}
	for joined < nWorkers || fetching {
		join.Wait(t.T)
	}
	if fetchErr != nil {
		// Abort: nothing was installed into a live process — the
		// partially assembled image is discarded whole, so a lost
		// holder can never corrupt a restore.
		return nil, nil, rs, fetchErr
	}

	img.manifest = m
	img.bulkCharged = true
	rs.Took = t.Now().Sub(start)
	name := "restore.pipeline"
	if opts.Lazy {
		name = "restore.skeleton"
	}
	t.Trace().Span(t.Host(), track, name, "restore", start, t.Now(),
		obs.A("workers", int64(rs.Workers)), obs.A("chunks", int64(len(install))),
		obs.A("pending", int64(len(pending))), obs.A("fetched_bytes", rs.FetchedBytes),
		obs.A("overlap_bytes", rs.OverlapBytes))
	return img, pending, rs, nil
}
