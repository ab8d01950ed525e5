package dmtcp

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/store"
)

// lazyCtrl drives one image's post-copy tail after a skeleton restore:
// it owns the striped pull-stream that fetches pending chunks from the
// holders, a read-ahead stage that reads each delivered chunk off the
// local disk, a pool of background installers that decompress and land
// the chunks already read, and the first-touch fault hook the kernel
// invokes when the resumed process reaches a chunk that has not landed
// yet.  The pool is as large as the skeleton's install pool, so a
// compressed tail gunzips on every idle core while the stage keeps the
// disk busy, as an eager restore does.
//
// Chunk installs race the fork on purpose: chunks landed before
// InstallMemory copies the image buffers ride into the process for
// free; chunks landing after go through the live area's presence map
// (wire switches the install target).  Demand faults preempt the
// prefetch queue via PullStream.Demand, and the faulting thread claims,
// reads and installs its own chunk unless an installer already claimed
// it — whoever gets there first, exactly once.
type lazyCtrl struct {
	sys   *System
	local *store.Store
	img   *mtcp.Image
	ps    *replica.PullStream
	ra    *kernel.ReadAhead // delivered chunks, by pending index
	w     *sim.WaitQueue    // drain and faulting threads: residency, end of tail

	pending []mtcp.LazyChunk
	refOf   map[[2]int]store.ChunkRef // (area, chunk) → ref
	byHash  map[string][]int          // hash → pending indices sharing it

	installed  map[[2]int]bool
	installing map[[2]int]bool
	remaining  int

	wired   bool
	proc    *kernel.Process
	areas   map[int]*kernel.VMArea
	areaIdx map[*kernel.VMArea]int

	faults  int
	aborted bool
	err     error
}

// newLazyCtrl arms the post-copy tail for one skeleton-restored image
// and starts pulling immediately, so the prefetch overlaps the
// files/conns/fork stages that still separate us from resume.  workers
// sizes the installer pool, capped at the chunks left to pull.
func newLazyCtrl(s *System, t *kernel.Task, img *mtcp.Image, pending []mtcp.LazyChunk, holders []string, workers int) *lazyCtrl {
	lc := &lazyCtrl{
		sys:        s,
		local:      store.Open(t.P.Node, store.Config{Root: s.StoreRoot()}),
		img:        img,
		w:          sim.NewWaitQueue(t.P.Node.Cluster.Eng, "lazy.install"),
		pending:    pending,
		refOf:      make(map[[2]int]store.ChunkRef, len(pending)),
		byHash:     make(map[string][]int, len(pending)),
		installed:  map[[2]int]bool{},
		installing: map[[2]int]bool{},
		areas:      map[int]*kernel.VMArea{},
		areaIdx:    map[*kernel.VMArea]int{},
	}
	var refs []store.ChunkRef
	for i, pc := range pending {
		lc.refOf[[2]int{pc.Area, pc.Idx}] = pc.Ref
		if len(lc.byHash[pc.Ref.Hash]) == 0 {
			refs = append(refs, pc.Ref) // hottest-first, unique by hash
		}
		lc.byHash[pc.Ref.Hash] = append(lc.byHash[pc.Ref.Hash], i)
		lc.remaining++
	}
	lc.ra = kernel.NewReadAhead(t, t.P.Node.ReadPipeFor(lc.local.ChunkPath("")), lc.unclaimed)
	lc.ps = replica.NewPullStream(t, s.Replica, holders, refs,
		replica.PullOptions{Stripe: s.Cfg.LazyHolders, Deliver: lc.onDeliver})
	for i := max(1, min(workers, len(refs))); i > 0; i-- {
		t.P.SpawnTask("lazy-install", true, lc.installer)
	}
	// The pull stream wakes its own waiters on failure; relay that to
	// ours so the installers, drain, and blocked faulters all observe a
	// holders-exhausted stream instead of sleeping forever.  A stream
	// that delivered everything closes the stage: the installers drain
	// what it still holds.
	t.P.SpawnTask("lazy-watch", true, func(wt *kernel.Task) {
		if err := lc.ps.Wait(wt); err != nil && !lc.aborted {
			lc.fail(err)
			return
		}
		lc.ra.Close()
		lc.w.WakeAll()
	})
	return lc
}

// onDeliver runs on a puller task as each chunk becomes locally
// durable: queue every coordinate that shares it on the read-ahead
// stage, which wakes one idle installer per chunk it has read.  A
// chunk read while every installer is busy waits for the first one to
// finish; nobody else waits on a delivery.
func (lc *lazyCtrl) onDeliver(ref store.ChunkRef) {
	for _, i := range lc.byHash[ref.Hash] {
		lc.ra.Queue(i, ref.StoredBytes)
	}
}

// unclaimed reports whether pending chunk i's coordinate is still
// nobody's: the stage's hook as its reader takes the chunk off the
// queue, so it never reads one a fault already installed or is
// installing.
func (lc *lazyCtrl) unclaimed(i int) bool {
	key := [2]int{lc.pending[i].Area, lc.pending[i].Idx}
	return !lc.installed[key] && !lc.installing[key]
}

// fail records the tail's first error and ends it: the stage stops,
// so the installers exit, and the drain and the faulters wake to see
// the error.
func (lc *lazyCtrl) fail(err error) {
	if lc.err == nil {
		lc.err = err
	}
	lc.ra.Stop()
	lc.w.WakeAll()
}

// installer is one task of the background install pool: it claims the
// chunks the stage has read, in read order, skips one a fault claimed
// meanwhile, charges each other one's decompression (the core
// scheduler meters the pool's real speedup) and lands it — into the
// image buffers before the fork, into the live areas (marking
// presence) after.  It exits when the stage ends, and aborts the tail
// if the restored process dies mid-drain.
func (lc *lazyCtrl) installer(t *kernel.Task) {
	for {
		i, ok := lc.ra.Claim(t)
		if !ok {
			lc.w.WakeAll() // the drain rechecks the restored process
			return
		}
		if lc.proc != nil && (lc.proc.Dead || lc.proc.Zombie) {
			lc.abort()
			return
		}
		pc := lc.pending[i]
		key := [2]int{pc.Area, pc.Idx}
		if lc.installed[key] || lc.installing[key] {
			continue // a fault claimed it after the stage read it
		}
		lc.installing[key] = true
		lc.install(t, key, pc.Ref)
	}
}

// install pays one read chunk's decompression and lands it at its
// coordinate.  Runs on an installer or on a faulting thread.
func (lc *lazyCtrl) install(t *kernel.Task, key [2]int, ref store.ChunkRef) {
	store.ChargeGunzip(t, ref)
	// Verified read: a chunk that went bad after it landed is
	// quarantined and never marked present — the tail fails instead.
	data, err := lc.local.ReadChunkVerified(t, ref)
	if err != nil {
		lc.fail(fmt.Errorf("dmtcp: lazy install of chunk %s: %w", ref.Hash, err))
		return
	}
	if lc.wired {
		if a := lc.areas[key[0]]; a != nil {
			a.InstallChunk(key[1], data)
		}
	} else {
		off := int64(key[1]) * kernel.CkptChunkBytes
		if buf := lc.img.Areas[key[0]].Payload; off < int64(len(buf)) {
			copy(buf[off:], data)
		}
	}
	lc.installed[key] = true
	lc.remaining--
	if lc.remaining == 0 {
		lc.ra.Stop() // the tail is done: the installers exit
	}
	lc.w.WakeAll()
}

// wire switches the install target to the forked process's live
// areas: every pending chunk not yet installed becomes absent in its
// area's presence map, with fault as the first-touch hook.  Called by
// restoreProcess right after InstallMemory (which copied the image
// buffers, carrying everything installed so far).
func (lc *lazyCtrl) wire(p *kernel.Process) {
	lc.proc = p
	areas := p.Mem.Areas()
	absent := map[int][]int{}
	var order []int
	for _, pc := range lc.pending {
		if lc.installed[[2]int{pc.Area, pc.Idx}] {
			continue
		}
		if pc.Area < 0 || pc.Area >= len(areas) {
			continue
		}
		if len(absent[pc.Area]) == 0 {
			order = append(order, pc.Area)
		}
		absent[pc.Area] = append(absent[pc.Area], pc.Idx)
	}
	for _, ai := range order {
		a := areas[ai]
		a.SetLazy(absent[ai], lc.fault)
		lc.areas[ai] = a
		lc.areaIdx[a] = ai
	}
	lc.wired = true
}

// fault is the kernel's first-touch hook: charge the trap, preempt the
// prefetch queue, and block this thread until the chunk is resident.
func (lc *lazyCtrl) fault(t *kernel.Task, a *kernel.VMArea, chunk int) error {
	ai, ok := lc.areaIdx[a]
	if !ok {
		return fmt.Errorf("dmtcp: lazy fault on unwired area %s", a.Name)
	}
	p := lc.sys.C.Params
	t.Compute(p.FaultTrapCost)
	key := [2]int{ai, chunk}
	ref, ok := lc.refOf[key]
	if !ok || lc.installed[key] {
		a.MarkPresent(chunk)
		return nil
	}
	lc.faults++
	fStart := t.Now()
	// Claim the coordinate before demanding it, unless an installer
	// already has, so the stage does not read it as well.
	mine := !lc.installing[key]
	lc.installing[key] = true
	if err := lc.ps.Demand(t, ref); err != nil {
		lc.fail(err)
		return err
	}
	// Locally durable now.  Read and install it ourselves if we claimed
	// it; either way, wait for residency.
	if mine {
		lc.local.ChargeReadRaw(t, []store.ChunkRef{ref})
		lc.install(t, key, ref)
	}
	for !lc.installed[key] {
		if lc.err != nil {
			return lc.err
		}
		if lc.aborted {
			return fmt.Errorf("dmtcp: lazy pull aborted")
		}
		lc.w.Wait(t.T)
	}
	t.Trace().Span(t.Host(), fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid),
		"lazy.fault", "restart", fStart, t.Now(),
		obs.A("area", int64(ai)), obs.A("chunk", int64(chunk)),
		obs.A("stored_bytes", ref.StoredBytes))
	return nil
}

// abort stops the tail (the restored process died): pullers wind down
// and whatever landed stays durable in the local store.
func (lc *lazyCtrl) abort() {
	if lc.aborted {
		return
	}
	lc.aborted = true
	lc.ps.Abort()
	lc.ra.Stop()
	lc.w.WakeAll()
}

// drain blocks until every pending chunk is installed, the stream
// failed, or the restored process died (which aborts cleanly).
func (lc *lazyCtrl) drain(t *kernel.Task) error {
	for lc.remaining > 0 && lc.err == nil && !lc.aborted {
		if lc.proc != nil && (lc.proc.Dead || lc.proc.Zombie) {
			lc.abort()
			break
		}
		lc.w.Wait(t.T)
	}
	if lc.err != nil {
		return lc.err
	}
	return nil
}
