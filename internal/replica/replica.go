// Package replica is the replicated checkpoint storage service: a
// per-node storage daemon (dmtcp_replicad, a registered kernel program
// like sshd) that serves chunk/manifest get-put over the simulated
// network, plus the streams that copy every checkpoint generation to a
// fixed number of peer nodes.
//
// The design follows stdchk (Al Kiswany et al.): checkpoint data is
// too valuable to live only on the node that wrote it — the node whose
// failure the checkpoint exists to survive — so cluster peers are
// aggregated into a dedicated, replicated storage layer.  Replication
// is dedup-aware end to end: the shipper first asks the peer which
// chunk fingerprints it lacks, and only those chunks travel, so a
// 10%-dirty generation ships ~10% of its image regardless of the
// replication factor's fan-out.
//
// Protocol (length-prefixed frames over one TCP connection):
//
//	want     C→S  a batch of chunk hashes     → indices the peer lacks
//	manifest C→S  one serialized manifest (push; once the generation is
//	              committed, sent before any chunk not yet shipped, so
//	              those are referenced — and GC-safe — on arrival)
//	chunk    C→S  one chunk object (push)
//	done     C→S  end of push                 → peer verifies the whole
//	              generation and reports any chunk it still lacks
//	getman   C→S  manifest path (fetch)       → manifest bytes
//	getchunk C→S  chunk hash (fetch)          → chunk bytes
//
// Bulk time is charged the way the rest of the simulation charges it:
// real payload bytes ride the frames, while modeled (stored) bytes are
// charged explicitly — the sender charges the network transfer, the
// serving side charges its disk read, the receiving side its disk
// write.
package replica

import (
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Port is where every node's replica daemon listens.
const Port = 7791

// Protocol message types (first byte of each frame).
const (
	opWant     = 'w' // push: which of these chunk hashes do you lack?
	opChunk    = 'c' // push: one chunk object
	opManifest = 'm' // push: one manifest
	opDone     = 'd' // push: end of generation → ack
	opGetMan   = 'g' // fetch: manifest by path
	opGetChunk = 'h' // fetch: chunk by hash
	opAck      = 'k'
	opErr      = 'e'
)

// HolderLostError reports that a restore fetch lost its holders: a
// PullStream raises it only after every holder it could fail over to
// failed too.  Hosts lists them in the order tried; Err is the last
// failure.
type HolderLostError struct {
	Hosts []string
	Err   error
}

func (e *HolderLostError) Error() string {
	return fmt.Sprintf("replica: fetch holders %v lost mid-restore: %v", e.Hosts, e.Err)
}

func (e *HolderLostError) Unwrap() error { return e.Err }

// Config selects replication behavior.
type Config struct {
	// Factor is the number of peer nodes every committed generation is
	// copied to.
	Factor int
	// Root is the store root, the same path on every node.
	Root string
}

// Job is one already-committed generation for Ship to stream to its
// peers.
type Job struct {
	ManifestPath string

	// Targets, when non-nil, overrides ring placement for this job —
	// a repair drive names exactly the under-replicated peers to fill.
	Targets []*kernel.Node
	// Repair marks the repair class: background re-replication whose
	// chunk traffic is paced by Params.RepairQoS so restoring
	// redundancy cannot starve foreground checkpoint streams of
	// network bandwidth.
	Repair bool
	// Cancel, when set, is polled at batch and chunk boundaries;
	// returning true abandons the rest of the job cleanly (the
	// generation aged out or was superseded mid-repair).
	Cancel func() bool
	// OnDone, when set, is called once when the job finishes with the
	// number of targets that ended holding a full copy.
	OnDone func(copies int)
}

// Stats aggregates replication traffic for the whole service.
type Stats struct {
	// Generations counts streams whose full fan-out completed.
	Generations int
	// Pushes counts (generation, peer) copies that completed.
	Pushes int
	// ChunksSent and BytesSent count the deduped chunk traffic that
	// actually traveled (stored bytes).
	ChunksSent int
	BytesSent  int64
	// ManifestBytes counts manifest bytes shipped.
	ManifestBytes int64
	// FetchChunks and FetchBytes count recovery/migration fetch
	// traffic served to restarting nodes.
	FetchChunks int
	FetchBytes  int64
	// RepairJobs counts repair-class streams that restored full
	// redundancy; RepairPushes the (generation, peer) copies they
	// completed; RepairCancels the ones abandoned via Job.Cancel.
	RepairJobs    int
	RepairPushes  int
	RepairCancels int
	// ScrubChunks counts chunk objects verified by the background
	// scrubber; ScrubCorrupt the verification failures it quarantined;
	// CorruptServed the serve-side rejections where a fetcher's
	// expected checksum exposed a corrupt local copy.
	ScrubChunks   int
	ScrubCorrupt  int
	CorruptServed int
}

// Service is the cluster-wide handle to the replica subsystem.
// Like the rest of the harness-side state, its fields are shared under
// the engine's cooperative scheduling.
type Service struct {
	C   *kernel.Cluster
	Cfg Config

	// Stats accumulates replication traffic.
	Stats Stats

	// OnReplicated, when set, is called after one (generation, peer)
	// copy completes — the DMTCP coordinator uses it to maintain its
	// placement map.
	OnReplicated func(name string, gen int64, holder string)
	// OnWatermark, when set, is called after a generation's full
	// fan-out completes and the source store's watermark advances.
	OnWatermark func(name string, gen int64, src string)
	// OnCorrupt, when set, is called from a scrubber task after it
	// quarantines a corrupt chunk on host — the DMTCP layer uses it to
	// kick the repair drive so redundancy is restored from a clean
	// holder.
	OnCorrupt func(t *kernel.Task, host string, ref store.ChunkRef)

	idleW *sim.WaitQueue

	// daemons maps each node to its live replica daemon process, where
	// stream shipper tasks run (they must outlive the checkpointed
	// process that feeds them).
	daemons map[*kernel.Node]*kernel.Process
	// streams are the open streams per source node; WaitIdle waits
	// for them.
	streams map[*kernel.Node][]*Stream
}

// Install registers the dmtcp_replicad program and returns the
// service handle.  Call StartAll (or spawn dmtcp_replicad per node)
// before replicating.
func Install(c *kernel.Cluster, cfg Config) *Service {
	sv := &Service{
		C:       c,
		Cfg:     cfg,
		idleW:   sim.NewWaitQueue(c.Eng, "replica.idle"),
		daemons: make(map[*kernel.Node]*kernel.Process),
		streams: make(map[*kernel.Node][]*Stream),
	}
	c.RegisterFunc("dmtcp_replicad", sv.daemonMain)
	return sv
}

// StartAll spawns the replica daemon on every live node.
func (sv *Service) StartAll() error {
	for _, n := range sv.C.Nodes() {
		if n.Down {
			continue
		}
		if _, err := n.Kern.Spawn("dmtcp_replicad", nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// Pending returns the number of streams open on live nodes (work on
// dead nodes is lost with the node).  A stream counts from the moment
// it opens until its fan-out resolves.
func (sv *Service) Pending() int {
	n := 0
	for node, streams := range sv.streams {
		if node.Down {
			continue
		}
		for _, s := range streams {
			if !s.aborted {
				n++
			}
		}
	}
	return n
}

// WaitIdle blocks the calling task until every live node's streams
// have resolved.
func (sv *Service) WaitIdle(t *kernel.Task) {
	for sv.Pending() > 0 {
		sv.idleW.WaitTimeout(t.T, 50*time.Millisecond)
	}
}

// Targets returns the ring-placement peers for generations written on
// src: the next Factor live nodes by ID.
func (sv *Service) Targets(src *kernel.Node) []*kernel.Node {
	nodes := sv.C.Nodes()
	var out []*kernel.Node
	for i := 1; i < len(nodes) && len(out) < sv.Cfg.Factor; i++ {
		n := nodes[(int(src.ID)+i)%len(nodes)]
		if n == src || n.Down {
			continue
		}
		out = append(out, n)
	}
	return out
}

// daemonMain is the dmtcp_replicad program: the home of this node's
// stream shippers and scrubber, plus a get-put server.
func (sv *Service) daemonMain(t *kernel.Task, _ []string) {
	sv.daemons[t.P.Node] = t.P
	if t.P.Node.Cluster.Params.ScrubInterval > 0 {
		t.P.SpawnTask("repl-scrub", true, sv.scrubber)
	}
	lfd, err := t.ListenTCP(Port)
	if err != nil {
		t.Printf("dmtcp_replicad: %v\n", err)
		return
	}
	for {
		fd, err := t.Accept(lfd)
		if err != nil {
			return
		}
		c := fd
		t.P.SpawnTask("repl-conn", false, func(h *kernel.Task) { sv.serve(h, c) })
	}
}

// scrubber is the background integrity daemon: it walks this node's
// local store pass after pass, verifying every committed chunk against
// the checksum its manifest carries and quarantining failures (which
// OnCorrupt then routes to the repair drive).  Passes are paced by
// Params.ScrubQoS and separated by a jittered Params.ScrubInterval so
// the fleet's scrubbers stay desynchronized.
func (sv *Service) scrubber(t *kernel.Task) {
	p := t.P.Node.Cluster.Params
	rng := t.P.Node.Cluster.Eng.Rand()
	st := store.Open(t.P.Node, store.Config{Root: sv.Cfg.Root})
	for {
		t.Idle(p.Jitter(rng, p.ScrubInterval))
		start := t.Now()
		res := st.ScrubPass(t, p.ScrubQoS, func(ref store.ChunkRef) {
			sv.Stats.ScrubCorrupt++
			if sv.OnCorrupt != nil {
				sv.OnCorrupt(t, t.P.Node.Hostname, ref)
			}
		})
		sv.Stats.ScrubChunks += res.Checked
		if res.Checked > 0 {
			t.Trace().Span(t.Host(), "replicad scrub", "scrub.pass", "integrity",
				start, t.Now(), obs.A("chunks", int64(res.Checked)),
				obs.A("corrupt", int64(res.Corrupt)), obs.A("bytes", res.Bytes))
		}
	}
}

// serve handles one peer connection against this node's store.
func (sv *Service) serve(t *kernel.Task, fd int) {
	defer t.Close(fd)
	st := store.Open(t.P.Node, store.Config{Root: sv.Cfg.Root})
	p := t.P.Node.Cluster.Params
	for {
		frame, err := t.RecvFrame(fd)
		if err != nil {
			return
		}
		if len(frame) == 0 {
			continue
		}
		t.Compute(p.ReplicaRPCCost)
		body := frame[1:]
		switch frame[0] {
		case opWant:
			d := &bin.Decoder{B: body}
			n := d.Count(4)
			var idx []uint32
			i := 0
			for ; i < n && d.Err == nil; i++ {
				if !st.HasChunk(d.Str()) {
					idx = append(idx, uint32(i))
				}
			}
			t.Compute(time.Duration(i) * p.ChunkLookupCost)
			t.SendFrame(fd, indexFrame(idx))
		case opChunk:
			c := bin.Decoding(body)
			var ref store.ChunkRef
			ref.Code(&c)
			data := c.D.Bytes()
			if c.D.Err == nil {
				// A chunk failing content verification is never
				// installed; the pusher's opDone hole check will see the
				// gap and re-ship.
				st.PutReplicaChunk(t, ref, data)
			}
		case opManifest:
			d := &bin.Decoder{B: body}
			path := d.Str()
			data := d.Bytes()
			if d.Err == nil {
				st.PutRawManifest(t, path, data)
			}
		case opDone:
			// Verify the pushed generation: report the index of every
			// manifest chunk this store does not actually hold, so the
			// pusher can fill holes its want-reply missed.
			d := &bin.Decoder{B: body}
			path := d.Str()
			m, err := st.LoadManifest(path)
			if err != nil {
				t.SendFrame(fd, []byte{opErr})
				continue
			}
			var holes []uint32
			refs := m.Refs()
			for i, ref := range refs {
				if !st.HasChunk(ref.Hash) {
					holes = append(holes, uint32(i))
				}
			}
			t.Compute(time.Duration(len(refs)) * p.ChunkLookupCost)
			t.SendFrame(fd, indexFrame(holes))
		case opGetMan:
			d := &bin.Decoder{B: body}
			path := d.Str()
			ino, err := t.P.Node.FS.ReadFile(path)
			if err != nil {
				t.SendFrame(fd, []byte{opErr})
				continue
			}
			t.P.Node.ReadPipeFor(path).Read(t.T, ino.Size())
			t.Idle(model.TransferTime(p.NetLatency, p.NetBandwidth, ino.Size()))
			var e bin.Encoder
			e.B = append(e.B, opAck)
			e.Bytes(ino.Data)
			t.SendFrame(fd, e.B)
		case opGetChunk:
			d := &bin.Decoder{B: body}
			hash := d.Str()
			sum := d.Str()
			ino, err := t.P.Node.FS.ReadFile(st.ChunkPath(hash))
			if err != nil {
				t.SendFrame(fd, []byte{opErr})
				continue
			}
			if sum != "" && store.ContentSum(ino.Data) != sum {
				// The requester told us what the bytes should hash to
				// and ours don't: quarantine the local copy and decline,
				// so the fetcher falls back to another holder and the
				// repair drive re-replicates a clean copy here.
				st.Quarantine(t, hash)
				sv.Stats.CorruptServed++
				t.SendFrame(fd, []byte{opErr})
				continue
			}
			t.P.Node.ReadPipeFor(st.ChunkPath(hash)).Read(t.T, ino.Size())
			t.Idle(model.TransferTime(p.NetLatency, p.NetBandwidth, ino.Size()))
			var e bin.Encoder
			e.B = append(e.B, opAck)
			e.Bytes(ino.Data)
			t.SendFrame(fd, e.B)
			sv.Stats.FetchChunks++
			sv.Stats.FetchBytes += ino.Size()
		}
	}
}

// EnsureManifest makes one manifest present in the calling node's
// store, pulling it from fromHost's replica daemon when the local
// filesystem lacks it.  It reports whether a fetch happened.
func (sv *Service) EnsureManifest(t *kernel.Task, manifestPath, fromHost string) (bool, error) {
	if t.P.Node.FS.Exists(manifestPath) {
		return false, nil
	}
	local := store.Open(t.P.Node, store.Config{Root: sv.Cfg.Root})
	fd := t.Socket()
	if of, err := t.P.FD(fd); err == nil {
		of.Protected = true // infrastructure socket: not checkpointed
	}
	defer t.Close(fd)
	if err := t.Connect(fd, kernel.Addr{Host: fromHost, Port: Port}); err != nil {
		return false, fmt.Errorf("replica: fetch %s from %s: %w", manifestPath, fromHost, err)
	}
	var e bin.Encoder
	e.B = append(e.B, opGetMan)
	e.Str(manifestPath)
	if err := t.SendFrame(fd, e.B); err != nil {
		return false, err
	}
	resp, err := t.RecvFrame(fd)
	if err != nil {
		return false, err
	}
	if len(resp) == 0 || resp[0] != opAck {
		return false, fmt.Errorf("replica: %s has no manifest %s", fromHost, manifestPath)
	}
	d := &bin.Decoder{B: resp[1:]}
	local.PutRawManifest(t, manifestPath, d.Bytes())
	return true, nil
}
