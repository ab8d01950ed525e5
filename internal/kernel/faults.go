package kernel

import (
	"time"

	"repro/internal/obs"
)

// Network fault injection.  KillNode models fail-stop; real clusters
// mostly degrade instead: switches partition racks, overloaded links
// drop and delay frames, and a rebooting peer refuses connections for
// a window.  FaultRule describes one such condition between host
// sets; rules are injected and healed at virtual times and applied
// uniformly to every stream the kernel carries — manager↔coordinator
// RPCs, replica want/missing handshakes, eager/pull chunk streams,
// and coordinator journal ships all ride the same TCPEndpoint
// machinery, so none of them gets to cheat.
//
// Semantics:
//
//   - Partition parks frames instead of delivering them: bytes sent
//     into a partitioned link are held (still counting against the
//     sender's transmit window, so senders see backpressure exactly
//     as real TCP would) and delivered in order when the rule heals —
//     the "network was wedged, then un-wedged" shape that exposes
//     split-brain bugs, as opposed to the clean connection reset a
//     node death produces.  New connections across a partition fail
//     with ErrConnRefused after the SYN timeout.
//   - Drop models a lossy link as retransmission delay: each frame
//     independently loses its first k transmissions with probability
//     Drop each, and arrives after the corresponding capped
//     exponential RTO backoff.  Stream bytes are never actually lost
//     (TCP retransmits); framing above the socket layer stays intact.
//   - ExtraLatency (+JitterPct) adds per-frame one-way delay.
//   - Refuse fails new connection attempts across the link while the
//     rule is active but leaves established flows untouched (a peer
//     whose accept loop is wedged, a firewall rule, a listen backlog
//     overflow).
//
// Loopback traffic (src node == dst node) is always exempt: a machine
// cannot be partitioned from itself.
type FaultRule struct {
	// Src and Dst are hostname sets; an empty set matches every host.
	// A rule applies to a frame src→dst when src∈Src and dst∈Dst, or —
	// unless OneWay — when src∈Dst and dst∈Src (symmetric).
	Src, Dst []string
	// OneWay restricts the rule to the Src→Dst direction (asymmetric
	// partition: A's frames to B vanish while B's replies flow).
	OneWay bool

	// Partition parks frames on the link until the rule heals.
	Partition bool
	// Drop is the per-transmission loss probability modeled as
	// retransmission delay.
	Drop float64
	// ExtraLatency is added one-way delay per frame; JitterPct
	// perturbs it by ±JitterPct per frame (seeded engine RNG).
	ExtraLatency time.Duration
	JitterPct    float64
	// Refuse fails new connections across the link (established flows
	// keep running).
	Refuse bool
}

// faultMaxRetrans caps the modeled retransmission attempts per frame;
// beyond it the frame arrives after the accumulated backoff anyway
// (the connection would stall, not lose data).
const faultMaxRetrans = 6

type activeFault struct {
	id   int
	rule FaultRule
	src  map[string]bool // nil = any
	dst  map[string]bool
}

func hostSet(hosts []string) map[string]bool {
	if len(hosts) == 0 {
		return nil
	}
	m := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		m[h] = true
	}
	return m
}

func (f *activeFault) matches(src, dst string) bool {
	in := func(set map[string]bool, h string) bool { return set == nil || set[h] }
	if in(f.src, src) && in(f.dst, dst) {
		return true
	}
	if !f.rule.OneWay && in(f.src, dst) && in(f.dst, src) {
		return true
	}
	return false
}

// InjectFault activates a fault rule and returns its id for HealFault.
func (c *Cluster) InjectFault(r FaultRule) int {
	c.nextFaultID++
	id := c.nextFaultID
	c.faults = append(c.faults, &activeFault{
		id:   id,
		rule: r,
		src:  hostSet(r.Src),
		dst:  hostSet(r.Dst),
	})
	c.Trace.Instant("net", "faults", "net.fault_injected", "net", c.Eng.Now(),
		obs.A("id", int64(id)))
	return id
}

// HealFault deactivates a fault rule; frames parked by a partition it
// imposed are re-injected in their original order (subject to any
// other still-active rule).
func (c *Cluster) HealFault(id int) {
	kept := c.faults[:0]
	found := false
	for _, f := range c.faults {
		if f.id == id {
			found = true
			continue
		}
		kept = append(kept, f)
	}
	c.faults = kept
	if !found {
		return
	}
	c.Trace.Instant("net", "faults", "net.fault_healed", "net", c.Eng.Now(),
		obs.A("id", int64(id)))
	c.releaseParked()
}

// HealAllFaults deactivates every fault rule and releases all parked
// frames.
func (c *Cluster) HealAllFaults() {
	if len(c.faults) == 0 {
		return
	}
	c.faults = nil
	c.Trace.Instant("net", "faults", "net.fault_healed", "net", c.Eng.Now(),
		obs.A("id", int64(-1)))
	c.releaseParked()
}

// IsolateHost partitions one host from every other host (both
// directions) — the classic "leader on the wrong side of the switch".
func (c *Cluster) IsolateHost(host string) int {
	return c.InjectFault(FaultRule{Src: []string{host}, Partition: true})
}

// PartitionHosts partitions two host groups from each other.
func (c *Cluster) PartitionHosts(a, b []string) int {
	return c.InjectFault(FaultRule{Src: a, Dst: b, Partition: true})
}

// linkPartitioned reports whether an active partition rule blocks
// frames src→dst.
func (c *Cluster) linkPartitioned(src, dst *Node) bool {
	if src == dst || len(c.faults) == 0 {
		return false
	}
	for _, f := range c.faults {
		if f.rule.Partition && f.matches(src.Hostname, dst.Hostname) {
			return true
		}
	}
	return false
}

// faultBlocksConnect reports whether a new connection src→dst cannot
// be established: a partition or refuse window in either direction
// kills the handshake (the SYN or the SYN-ACK is lost).
func (c *Cluster) faultBlocksConnect(src, dst *Node) bool {
	if src == dst || len(c.faults) == 0 {
		return false
	}
	for _, f := range c.faults {
		if !f.rule.Partition && !f.rule.Refuse {
			continue
		}
		if f.matches(src.Hostname, dst.Hostname) || f.matches(dst.Hostname, src.Hostname) {
			return true
		}
		// A one-way rule in the reverse direction still blocks the
		// handshake: the SYN-ACK cannot come back.
		if in := func(set map[string]bool, h string) bool { return set == nil || set[h] }; f.rule.OneWay &&
			in(f.src, dst.Hostname) && in(f.dst, src.Hostname) {
			return true
		}
	}
	return false
}

// faultExtraDelay returns the added one-way delay active rules impose
// on one frame src→dst: extra latency (jittered) plus drop-driven
// retransmission backoff.  The engine RNG keeps it reproducible per
// seed.
func (c *Cluster) faultExtraDelay(src, dst *Node) time.Duration {
	if src == dst || len(c.faults) == 0 {
		return 0
	}
	var extra time.Duration
	rng := c.Eng.Rand()
	for _, f := range c.faults {
		if !f.matches(src.Hostname, dst.Hostname) {
			continue
		}
		if d := f.rule.ExtraLatency; d > 0 {
			if f.rule.JitterPct > 0 {
				d = time.Duration(float64(d) * (1 + f.rule.JitterPct*(2*rng.Float64()-1)))
			}
			extra += d
		}
		if p := f.rule.Drop; p > 0 {
			rto := c.Params.RetransTimeout
			for i := 0; i < faultMaxRetrans && rng.Float64() < p; i++ {
				extra += rto
				if rto < c.Params.RetransTimeout<<faultMaxRetrans {
					rto *= 2
				}
			}
		}
	}
	if extra > 0 {
		c.Trace.Add(dst.Hostname, "net.frames_delayed", c.Eng.Now(), 1)
	}
	return extra
}

// parkFrame holds a frame on a partitioned link; data is the kernel's
// own copy of the frame's bytes, which the parked frame adopts.  Parked
// bytes count as in flight, so senders block on their window exactly
// as they would against a wedged link.
func (c *Cluster) parkFrame(ep *TCPEndpoint, src *Node, data []byte, fin bool) {
	if len(ep.parked) == 0 {
		// First parked frame registers the endpoint; the slice keeps
		// release order deterministic (park order), unlike a map.
		c.parkedEps = append(c.parkedEps, ep)
	}
	ep.parked = append(ep.parked, parkedFrame{src: src, data: data, fin: fin})
	ep.inflight += int64(len(data))
	c.Trace.Add(ep.node.Hostname, "net.frames_parked", c.Eng.Now(), 1)
}

// releaseParked re-runs every parked frame through the normal send
// path in arrival order; frames whose link is still faulted re-park.
func (c *Cluster) releaseParked() {
	eps := c.parkedEps
	c.parkedEps = nil
	for _, ep := range eps {
		frames := ep.parked
		ep.parked = nil
		for _, fr := range frames {
			ep.inflight -= int64(len(fr.data))
			if fr.fin {
				ep.sendFIN(fr.src)
			} else {
				ep.enqueue(fr.src, gather{body: fr.data})
			}
		}
	}
}

// parkedFrame is one frame held by a partition: payload bytes or the
// FIN marker, in arrival order.
type parkedFrame struct {
	src  *Node
	data []byte
	fin  bool
}
