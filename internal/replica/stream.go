package replica

import (
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Streams: the one way a generation reaches a peer.  A Stream runs one
// shipper task per target in the source node's replica daemon (so it
// outlives the checkpointed process that feeds it).  Each shipper
// sends want/missing batches of at most streamBatch refs as chunks
// land, then the manifest, then the opDone verify pass.  Once the
// generation is committed its manifest goes out before any batch not
// yet shipped: every chunk that follows is referenced the moment it
// arrives, so the peer's mark-and-sweep can never reclaim it mid-push.
//
// A stream opens one of two ways:
//
//   - NewStream, eager: the checkpoint writer opens it before it
//     starts committing chunks, hands each one over as it lands, and
//     commits it with the manifest, so fan-out overlaps the write.  A
//     peer holding chunks streamed ahead of the commit simply holds
//     unreferenced objects its own GC may reclaim at will; the verify
//     pass re-ships any such hole.  Stream implements the checkpoint
//     layer's ChunkStream interface structurally; this package never
//     imports it.
//   - Ship, committed: a generation already on disk (a repair, the one
//     retry after a partial eager fan-out) opens already committed and
//     already holding its manifest's refs.  A Job with Repair set is
//     the repair class: paced by Params.RepairQoS, cancellable at
//     batch and chunk boundaries, counted in the Repair* stats and
//     traced as replica.repair.
//
// GC watermark semantics: an eager stream initializes the source's
// watermark at commit (before the coordinator's post-round collection
// can run), and any stream advances it only after its full fan-out
// verifies.

// streamBatch bounds how many refs one want/missing round trip covers.
const streamBatch = 32

// Stream is one generation being shipped to its peers.
type Stream struct {
	sv   *Service
	src  *kernel.Node
	name string
	gen  int64
	job  Job // committed streams: what Ship was given

	refs         []store.ChunkRef // chunks handed over, arrival order
	committed    bool
	aborted      bool
	manifestPath string
	// overlap is the pre-commit shipped total of the farthest-ahead
	// peer (a max, not a sum: with factor >= 2 every peer receives the
	// same chunks, and "how much of the image was replicated before
	// commit" must never exceed the image).
	overlap int64
	// writer is the process feeding an eager stream: the checkpointed
	// process that opened it, re-pointed at the forked writer child by
	// its first Chunk call.  A dead writer with no commit means the
	// stream can never complete and is aborted.  Nil for committed
	// streams.
	writer *kernel.Process

	w       *sim.WaitQueue
	targets int
	pending int // shipper tasks still running
	okPeers int
}

// NewStream opens an eager stream for one upcoming generation of name
// on src, fed by writer (the checkpointed process; a forked writer
// child re-points the stream at itself with its first chunk).  The
// stream sizes its ref list for the chunks refs the writer will hand
// over.  It returns nil when nothing can ship: no live daemon on the
// source, or no placement targets.
func (sv *Service) NewStream(src *kernel.Node, writer *kernel.Process, name string, gen int64, chunks int) *Stream {
	return sv.open(src, sv.Targets(src), &Stream{name: name, gen: gen, writer: writer,
		refs: make([]store.ChunkRef, 0, chunks)})
}

// Ship opens a committed stream for the generation at job.ManifestPath
// on src, to job.Targets (ring placement when nil).  When no stream
// can open (no live daemon on the source, no live target, or the
// manifest is gone) it calls job.OnDone(0) at once.
func (sv *Service) Ship(src *kernel.Node, job Job) {
	targets := job.Targets
	if targets == nil {
		targets = sv.Targets(src)
	}
	var s *Stream
	if m, err := store.Open(src, store.Config{Root: sv.Cfg.Root}).LoadManifest(job.ManifestPath); err == nil {
		s = sv.open(src, targets, &Stream{name: m.Name, gen: m.Generation, job: job,
			refs: m.Refs(), committed: true, manifestPath: job.ManifestPath})
	}
	if s == nil && job.OnDone != nil {
		job.OnDone(0)
	}
}

// open registers s and spawns one shipper per target in src's daemon.
func (sv *Service) open(src *kernel.Node, targets []*kernel.Node, s *Stream) *Stream {
	daemon := sv.daemons[src]
	if daemon == nil || daemon.Dead || daemon.Zombie || src.Down || len(targets) == 0 {
		return nil
	}
	s.sv, s.src = sv, src
	s.w = sim.NewWaitQueue(sv.C.Eng, src.Hostname+".stream")
	s.targets, s.pending = len(targets), len(targets)
	sv.streams[src] = append(sv.streams[src], s)
	span := "repl.stream"
	if s.job.Repair {
		span = "replica.repair"
	}
	for _, peer := range targets {
		peer := peer
		daemon.SpawnTask("repl-stream", true, func(st *kernel.Task) {
			shipStart := st.Now()
			ok := s.shipTo(st, peer)
			var okVal int64
			if ok {
				okVal = 1
			}
			st.Trace().Span(st.Host(), "replicad stream→"+peer.Hostname,
				span, "repl", shipStart, st.Now(),
				obs.A("gen", s.gen), obs.A("ok", okVal), obs.A("overlap_bytes", s.overlap))
			s.finishPeer(st, peer, ok)
		})
	}
	return s
}

// Chunk hands one durable chunk to the stream (ChunkStream).
func (s *Stream) Chunk(t *kernel.Task, ref store.ChunkRef) {
	if s.aborted {
		return
	}
	s.writer = t.P
	s.refs = append(s.refs, ref)
	s.w.WakeAll()
}

// Commit reports the written manifest and returns the stored bytes
// the farthest-ahead peer had already received before this instant
// (ChunkStream).  The source's replication watermark is initialized
// here so the coordinator's post-round GC can never prune the
// generation while its fan-out completes.
func (s *Stream) Commit(t *kernel.Task, manifestPath string) int64 {
	if s.aborted {
		return 0
	}
	s.writer = t.P
	store.Open(s.src, store.Config{Root: s.sv.Cfg.Root}).InitReplicationWatermark(t, s.name)
	s.manifestPath = manifestPath
	s.committed = true
	s.w.WakeAll()
	return s.overlap
}

// Abort discards the stream without committing (ChunkStream).
func (s *Stream) Abort() {
	s.aborted = true
	s.w.WakeAll()
}

// stale reports that the stream can never commit: its writer process
// died (or its node did) before the manifest landed.
func (s *Stream) stale() bool {
	if s.committed || s.aborted {
		return false
	}
	if s.src.Down {
		return true
	}
	return s.writer != nil && (s.writer.Dead || s.writer.Zombie)
}

// cancelled reports that the job's Cancel hook abandoned the stream.
func (s *Stream) cancelled() bool { return s.job.Cancel != nil && s.job.Cancel() }

// shipTo feeds one peer: chunks in want/missing batches as they land,
// the manifest as soon as the generation is committed, and the verify
// pass once every handed-over chunk has been offered.
func (s *Stream) shipTo(t *kernel.Task, peer *kernel.Node) bool {
	sv := s.sv
	st := store.Open(s.src, store.Config{Root: sv.Cfg.Root})
	fd := t.Socket()
	defer t.Close(fd)
	if err := t.Connect(fd, kernel.Addr{Host: peer.Hostname, Port: Port}); err != nil {
		return false
	}
	cursor := 0
	var preBytes int64 // this peer's pre-commit shipped total
	manifestSent := false
	for {
		for cursor == len(s.refs) && !s.committed && !s.aborted {
			if s.stale() {
				s.Abort()
				return false
			}
			s.w.WaitTimeout(t.T, 100*time.Millisecond)
		}
		if s.aborted || s.cancelled() {
			return false
		}
		if s.committed && !manifestSent {
			if !sv.shipManifest(t, fd, s.manifestPath) {
				return false
			}
			manifestSent = true
		}
		if cursor == len(s.refs) {
			break // committed and fully drained
		}
		hi := min(len(s.refs), cursor+streamBatch)
		batch := s.refs[cursor:hi]
		cursor = hi
		preCommit := !s.committed
		missing, ok := sv.wantMissing(t, fd, batch)
		if !ok {
			return false
		}
		if !s.shipChunks(t, st, fd, missing) {
			return false
		}
		if preCommit {
			for _, r := range missing {
				preBytes += r.StoredBytes
			}
			if preBytes > s.overlap {
				s.overlap = preBytes
			}
		}
	}
	// The verify pass reports holes as indices into the manifest's
	// chunk order, not the stream's arrival order.
	m, err := st.LoadManifest(s.manifestPath)
	if err != nil {
		return false
	}
	if !s.verifyPush(t, st, fd, m.Refs()) {
		return false
	}
	sv.Stats.Pushes++
	if s.job.Repair {
		sv.Stats.RepairPushes++
	}
	return true
}

// finishPeer retires one shipper; the last one resolves the stream.
func (s *Stream) finishPeer(t *kernel.Task, peer *kernel.Node, ok bool) {
	sv := s.sv
	if ok {
		s.okPeers++
		if sv.OnReplicated != nil {
			sv.OnReplicated(s.name, s.gen, peer.Hostname)
		}
	}
	s.pending--
	if s.pending > 0 {
		return
	}
	// Last shipper out: resolve the stream, then retire it, so WaitIdle
	// cannot return before the watermark and callbacks have landed.
	switch {
	case !s.committed || s.aborted:
		// Never committed: nothing to replicate; the peers hold (at
		// most) unreferenced chunks their GC is free to sweep.
	case s.okPeers == s.targets:
		st := store.Open(s.src, store.Config{Root: sv.Cfg.Root})
		st.SetReplicationWatermark(t, s.name, s.gen)
		sv.Stats.Generations++
		if s.job.Repair {
			sv.Stats.RepairJobs++
		}
		if sv.OnWatermark != nil {
			sv.OnWatermark(s.name, s.gen, s.src.Hostname)
		}
	case s.cancelled():
		sv.Stats.RepairCancels++
	case s.writer != nil:
		// Partial eager fan-out (a peer died or raced its GC out of
		// retries): retry once as a committed stream, which re-picks
		// live targets and ships only what they still lack.
		sv.Ship(s.src, Job{ManifestPath: s.manifestPath})
	}
	if s.job.OnDone != nil {
		s.job.OnDone(s.okPeers)
	}
	ss := sv.streams[s.src]
	for i, other := range ss {
		if other == s {
			sv.streams[s.src] = append(ss[:i], ss[i+1:]...)
			break
		}
	}
	if len(sv.streams[s.src]) == 0 {
		delete(sv.streams, s.src)
	}
	sv.idleW.WakeAll()
}

// wantMissing runs the want/missing dedup handshake for one batch of
// refs on an open peer connection, returning the subset the peer
// lacks.
func (sv *Service) wantMissing(t *kernel.Task, fd int, refs []store.ChunkRef) ([]store.ChunkRef, bool) {
	var e bin.Encoder
	e.B = append(e.B, opWant)
	e.U32(uint32(len(refs)))
	for _, r := range refs {
		e.Str(r.Hash)
	}
	if err := t.SendFrame(fd, e.B); err != nil {
		return nil, false
	}
	resp, err := t.RecvFrame(fd)
	if err != nil || len(resp) == 0 || resp[0] != opAck {
		return nil, false
	}
	return refsAt(resp[1:], refs)
}

// indexFrame is the reply to a want or done request: the indexes of
// the chunks the peer lacks.
func indexFrame(idx []uint32) []byte {
	c := bin.Encoding(opAck)
	codeIndexes(&c, &idx)
	return c.E.B
}

// refsAt returns the refs an index reply names, or false when it is
// corrupt or names an index outside refs.
func refsAt(b []byte, refs []store.ChunkRef) ([]store.ChunkRef, bool) {
	c := bin.Decoding(b)
	var idx []uint32
	codeIndexes(&c, &idx)
	out := make([]store.ChunkRef, 0, len(idx))
	for _, i := range idx {
		if int(i) >= len(refs) {
			return nil, false
		}
		out = append(out, refs[i])
	}
	return out, c.D.Err == nil
}

func codeIndexes(c *bin.Coder, idx *[]uint32) {
	for i := range bin.List(c, idx, 4) {
		c.U32(&(*idx)[i])
	}
}

// shipManifest sends one manifest to an open peer connection.
func (sv *Service) shipManifest(t *kernel.Task, fd int, manifestPath string) bool {
	p := t.P.Node.Cluster.Params
	ino, err := t.P.Node.FS.ReadFile(manifestPath)
	if err != nil {
		return false
	}
	t.Idle(model.TransferTime(p.NetLatency, p.NetBandwidth, int64(len(ino.Data))))
	var me bin.Encoder
	me.B = append(me.B, opManifest)
	me.Str(manifestPath)
	me.Bytes(ino.Data)
	if err := t.SendFrame(fd, me.B); err != nil {
		return false
	}
	sv.Stats.ManifestBytes += int64(len(ino.Data))
	return true
}

// verifyPush has the peer check a shipped generation against the
// manifest it now holds, re-pushing any holes.  The verification
// closes the remaining races: a chunk the want-reply counted as
// present could have been swept by the peer's GC (its referencing
// manifest pruned) before our manifest arrived to pin it, and a chunk
// streamed ahead of the commit could have been swept as unreferenced
// garbage in the same window.
func (s *Stream) verifyPush(t *kernel.Task, st *store.Store, fd int, refs []store.ChunkRef) bool {
	for attempt := 0; ; attempt++ {
		var de bin.Encoder
		de.B = append(de.B, opDone)
		de.Str(s.manifestPath)
		if err := t.SendFrame(fd, de.B); err != nil {
			return false
		}
		ack, err := t.RecvFrame(fd)
		if err != nil || len(ack) == 0 || ack[0] != opAck {
			return false
		}
		missing, ok := refsAt(ack[1:], refs)
		if !ok {
			return false
		}
		if len(missing) == 0 {
			return true
		}
		if attempt >= 2 {
			return false
		}
		if !s.shipChunks(t, st, fd, missing) {
			return false
		}
	}
}

// shipChunks sends the given chunks to an open peer connection: local
// disk read plus one network transfer of the stored (compressed) bytes
// each.  Chunks travel in stored form — no decompression, and the
// transfer occupies no core.  The repair class is paced by
// Params.RepairQoS, capping repair at that fraction of the push
// bandwidth so foreground checkpoint streams keep the rest, and a
// cancelled job stops at the next chunk boundary instead of finishing
// a transfer nobody needs.
func (s *Stream) shipChunks(t *kernel.Task, st *store.Store, fd int, refs []store.ChunkRef) bool {
	sv := s.sv
	p := t.P.Node.Cluster.Params
	var sent int64
	st.ChargeReadRaw(t, refs)
	for _, ref := range refs {
		if s.cancelled() {
			return false
		}
		// Verified read: a locally corrupt chunk is quarantined instead
		// of shipped, the push fails, and the repair drive re-sources
		// the generation from a clean holder.
		data, err := st.ReadChunkVerified(t, ref)
		if err != nil {
			return false
		}
		transfer := model.TransferTime(p.NetLatency, p.NetBandwidth, ref.StoredBytes)
		t.Idle(transfer)
		if s.job.Repair {
			t.IdleQoS(transfer, p.RepairQoS)
		}
		c := bin.Encoding(opChunk)
		ref.Code(&c)
		c.E.Bytes(data)
		if err := t.SendFrame(fd, c.E.B); err != nil {
			return false
		}
		sv.Stats.ChunksSent++
		sv.Stats.BytesSent += ref.StoredBytes
		sent += ref.StoredBytes
	}
	t.Trace().Add(t.Host(), "repl.bytes_sent", t.Now(), sent)
	return true
}
