package replica

import (
	"fmt"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// PullStream is the restore fetch plane: a priority pull of a chunk
// set from the replica daemons of the holders that have it.  Pullers
// drain one shared queue (front is next), each over its own
// connection: PullOptions.Conns per striped holder, PullOptions.Stripe
// holders at once.  An eager restart opens all its connections on the
// first holder; the lazy tail stripes one connection per holder, so
// its bandwidth scales with the holder count (each holder's daemon
// serializes its sends at the NIC rate).  Demand faults preempt the
// queue: Demand promotes a chunk to the front and blocks the caller
// until it is locally durable.
//
// Failover is per holder.  A holder that fails mid-fetch has its
// in-flight chunks requeued at the front, and its pullers move to the
// next untried live holder of the list that no stripe is using yet;
// with none left they exit while the other stripes keep draining.  The
// stream fails with a HolderLostError only when every puller is gone
// and chunks are still outstanding.
type PullStream struct {
	sv    *Service
	local *store.Store
	w     *sim.WaitQueue

	holders []string // live candidate holders, in preference order
	slots   []string // holder each stripe pulls from ("" = stripe lost)
	spare   int      // next holders index a failed stripe may move to
	pullers int      // live puller tasks
	tried   []string // holders dropped after an error
	lastErr error

	queue    []store.ChunkRef // pending, hottest-first; front is next
	needed   map[string]bool  // hash → part of this stream
	done     map[string]bool  // hash → locally durable
	demanded map[string]bool  // hash → a fault is (or was) waiting on it

	remaining int
	aborted   bool
	err       error
	deliver   func(store.ChunkRef)

	bytes, demandBytes, prefetchBytes int64
	chunks                            int
}

// PullOptions shapes a PullStream.
type PullOptions struct {
	// Stripe is how many holders are pulled from at once, taken from
	// the front of the holder list (0 = all of them); the rest are
	// failover spares.
	Stripe int
	// Conns is the number of connections per striped holder (< 1
	// means 1), never more than there are chunks to pull.
	Conns int
	// Deliver, when set, runs as each chunk becomes locally durable,
	// on whichever task landed it.
	Deliver func(store.ChunkRef)
}

// NewPullStream starts pulling refs (in priority order) from holders
// into the calling node's store.  Chunks already local are delivered
// immediately without touching the network.
func NewPullStream(t *kernel.Task, sv *Service, holders []string, refs []store.ChunkRef, opts PullOptions) *PullStream {
	ps := &PullStream{
		sv:       sv,
		local:    store.Open(t.P.Node, store.Config{Root: sv.Cfg.Root}),
		w:        sim.NewWaitQueue(t.P.Node.Cluster.Eng, "replica.pull"),
		needed:   make(map[string]bool, len(refs)),
		done:     make(map[string]bool, len(refs)),
		demanded: map[string]bool{},
		deliver:  opts.Deliver,
	}
	for _, ref := range refs {
		if ps.needed[ref.Hash] {
			continue // duplicate hash: one pull serves every coordinate
		}
		ps.needed[ref.Hash] = true
		if ps.local.HasChunk(ref.Hash) {
			ps.done[ref.Hash] = true
			if ps.deliver != nil {
				ps.deliver(ref)
			}
			continue
		}
		ps.queue = append(ps.queue, ref)
		ps.remaining++
	}
	if ps.remaining == 0 {
		return ps
	}
	for _, h := range holders {
		if n := t.P.Node.Cluster.LookupHost(h); n == nil || n.Down || h == t.P.Node.Hostname {
			continue
		}
		ps.holders = append(ps.holders, h)
	}
	if len(ps.holders) == 0 {
		ps.err = &HolderLostError{Hosts: append([]string(nil), holders...)}
		return ps
	}
	stripe := opts.Stripe
	if stripe <= 0 || stripe > len(ps.holders) {
		stripe = len(ps.holders)
	}
	ps.slots = append([]string(nil), ps.holders[:stripe]...)
	ps.spare = stripe
	conns := opts.Conns
	if conns < 1 {
		conns = 1
	}
	if conns > ps.remaining {
		conns = ps.remaining
	}
	for slot := range ps.slots {
		for c := 0; c < conns; c++ {
			slot, c := slot, c
			ps.pullers++
			t.P.SpawnTask("replica-pull", true, func(pt *kernel.Task) { ps.pull(pt, slot, c) })
		}
	}
	return ps
}

// pull is one puller: it drains the queue from its stripe's holder,
// following the stripe to the next holder when one fails.
func (ps *PullStream) pull(t *kernel.Task, slot, conn int) {
	defer func() {
		ps.pullers--
		if ps.pullers == 0 && ps.remaining > 0 && ps.err == nil && !ps.aborted {
			ps.err = &HolderLostError{Hosts: append([]string(nil), ps.tried...), Err: ps.lastErr}
		}
		ps.w.WakeAll()
	}()
	for holder := ps.slots[slot]; holder != ""; holder = ps.failover(slot, holder) {
		if ps.drain(t, holder, conn) {
			return
		}
	}
}

// drain pulls from one holder over one connection until the stream is
// finished (true) or the holder fails (false, with the chunk in flight
// back at the front of the queue).
func (ps *PullStream) drain(t *kernel.Task, holder string, conn int) bool {
	start := t.Now()
	var myBytes int64
	myChunks := 0
	defer func() {
		t.Trace().Span(t.Host(), fmt.Sprintf("pull %s.%d", holder, conn), "repl.fetch", "repl",
			start, t.Now(), obs.A("bytes", myBytes), obs.A("chunks", int64(myChunks)))
	}()

	cfd := t.Socket()
	if of, err := t.P.FD(cfd); err == nil {
		of.Protected = true // infrastructure socket: not checkpointed
	}
	defer t.Close(cfd)
	if err := t.Connect(cfd, kernel.Addr{Host: holder, Port: Port}); err != nil {
		ps.lastErr = err
		return false
	}
	for {
		if ps.aborted || ps.err != nil || ps.remaining == 0 {
			return true
		}
		if len(ps.queue) == 0 {
			ps.w.Wait(t.T)
			continue
		}
		ref := ps.queue[0]
		ps.queue = ps.queue[1:]
		if err := ps.fetchOne(t, cfd, holder, ref); err != nil {
			// Requeue at the front: demand order is preserved.
			ps.queue = append([]store.ChunkRef{ref}, ps.queue...)
			ps.lastErr = err
			return false
		}
		ps.done[ref.Hash] = true
		ps.remaining--
		ps.bytes += ref.StoredBytes
		ps.chunks++
		myBytes += ref.StoredBytes
		myChunks++
		if ps.demanded[ref.Hash] {
			ps.demandBytes += ref.StoredBytes
		} else {
			ps.prefetchBytes += ref.StoredBytes
		}
		if ps.deliver != nil {
			ps.deliver(ref)
		}
		ps.w.WakeAll()
	}
}

// failover moves a stripe off its failed holder: the first of the
// stripe's pullers to see the failure advances it to the next untried
// live spare, and the others follow.  "" means the stripe is lost.
func (ps *PullStream) failover(slot int, failed string) string {
	if ps.slots[slot] != failed {
		return ps.slots[slot]
	}
	ps.tried = append(ps.tried, failed)
	ps.slots[slot] = ""
	for ps.slots[slot] == "" && ps.spare < len(ps.holders) {
		h := ps.holders[ps.spare]
		ps.spare++
		if n := ps.sv.C.LookupHost(h); n != nil && !n.Down {
			ps.slots[slot] = h
		}
	}
	return ps.slots[slot]
}

// fetchOne pulls one chunk over the open connection into the local
// store.
func (ps *PullStream) fetchOne(t *kernel.Task, cfd int, holder string, ref store.ChunkRef) error {
	var e bin.Encoder
	e.B = append(e.B, opGetChunk)
	e.Str(ref.Hash)
	e.Str(ref.Sum)
	if err := t.SendFrame(cfd, e.B); err != nil {
		return err
	}
	resp, err := t.RecvFrame(cfd)
	if err != nil {
		return err
	}
	if len(resp) == 0 || resp[0] != opAck {
		return fmt.Errorf("replica: %s lacks chunk %s", holder, ref.Hash)
	}
	d := &bin.Decoder{B: resp[1:]}
	if _, err := ps.local.PutReplicaChunk(t, ref, d.Bytes()); err != nil {
		return fmt.Errorf("replica: pull %s from %s: %w", ref.Hash, holder, err)
	}
	return nil
}

// Demand is the fault path: it promotes the chunk to the front of the
// queue (preempting the prefetch order) and blocks until it is locally
// durable.  Chunks already durable return immediately.
func (ps *PullStream) Demand(t *kernel.Task, ref store.ChunkRef) error {
	if !ps.needed[ref.Hash] {
		return fmt.Errorf("replica: chunk %s not part of this pull stream", ref.Hash)
	}
	if ps.done[ref.Hash] {
		return nil
	}
	ps.demanded[ref.Hash] = true
	for i := range ps.queue {
		if ps.queue[i].Hash == ref.Hash {
			if i > 0 {
				r := ps.queue[i]
				copy(ps.queue[1:i+1], ps.queue[:i])
				ps.queue[0] = r
			}
			break
		}
	}
	ps.w.WakeAll()
	for !ps.done[ref.Hash] {
		if ps.err != nil {
			return ps.err
		}
		if ps.aborted {
			return fmt.Errorf("replica: pull stream aborted")
		}
		ps.w.Wait(t.T)
	}
	return nil
}

// Wait blocks until every chunk is locally durable (or the stream
// failed) and returns the stream error, if any.
func (ps *PullStream) Wait(t *kernel.Task) error {
	for ps.remaining > 0 && ps.err == nil && !ps.aborted {
		ps.w.Wait(t.T)
	}
	return ps.err
}

// Abort stops the stream: pullers exit after their in-flight chunk
// (which stays durable) and blocked Demand callers unblock with an
// error.  Used when the restored process dies mid-drain.
func (ps *PullStream) Abort() {
	if ps.aborted {
		return
	}
	ps.aborted = true
	ps.w.WakeAll()
}

// Bytes returns total stored bytes fetched over the network.
func (ps *PullStream) Bytes() int64 { return ps.bytes }

// Chunks returns total chunks fetched over the network.
func (ps *PullStream) Chunks() int { return ps.chunks }

// DemandBytes returns the fetched bytes a fault was waiting on.
func (ps *PullStream) DemandBytes() int64 { return ps.demandBytes }

// PrefetchBytes returns the fetched bytes no fault waited on.
func (ps *PullStream) PrefetchBytes() int64 { return ps.prefetchBytes }
