package coordstate

import (
	"math"
	"sort"
	"time"

	"repro/internal/bin"
	"repro/internal/sim"
)

// Health registry: the coordinator's view of per-node liveness, fed by
// the compact beats (host and core count) managers send over their
// coordinator connection and by the leader's own self-beat.  Beats are
// not journaled: the leader folds them into a live registry of its
// own, and just before each checkpoint request journals one EvHealth
// summary per host whose statistics moved since its last summary.
// State.Health holds those summaries, so a standby that replays the
// journal inherits the inter-arrival statistics its adaptive failure
// detector is derived from, while the journal grows with decisions,
// not time.
//
// The detector is phi-accrual in spirit: it tracks the running mean
// and variance of heartbeat inter-arrival times (Welford's algorithm,
// which is numerically stable and needs O(1) state per host) and
// declares a node suspect after factor*(mean + 4*sigma) of silence.
// The deadline is clamped to [floor, cap]: observations can only make
// detection *faster* than the static FailureDetectDelay, never slower,
// so a loaded network degrades gracefully to the old fixed-delay
// behavior instead of producing false positives.

// healthMinSamples is how many inter-arrival observations the detector
// needs before it trusts its statistics; below it the adaptive
// deadline falls back to the static cap.
const healthMinSamples = 4

// HostHealth is one node's entry in a health registry.
type HostHealth struct {
	// LastBeat is the leader-clock time of the newest beat.  It is
	// leader-local and never journaled: a summary carries no clock, and
	// an entry without one arms it on its next beat.
	LastBeat sim.Time
	// Count is the number of beats folded; MeanNS/M2NS are Welford
	// running statistics over the Count-1 inter-arrival intervals, in
	// nanoseconds.
	Count  int64
	MeanNS float64
	M2NS   float64
	// Cores is the node's core count, as its last beat reported it.
	Cores int64
}

// Observe folds one beat at leader time at into the entry.  An entry
// whose clock is not armed (a new host, or one seeded from a journaled
// summary by a promoted leader) only arms it, so the silence before a
// host's first beat to this leader never counts as an inter-arrival.
func (h *HostHealth) Observe(at sim.Time, cores int64) {
	if h.LastBeat != 0 {
		delta := float64(at.Sub(h.LastBeat))
		d1 := delta - h.MeanNS
		h.MeanNS += d1 / float64(h.Count)
		h.M2NS += d1 * (delta - h.MeanNS)
		h.Count++
	} else if h.Count == 0 {
		h.Count = 1
	}
	h.LastBeat = at
	h.Cores = cores
}

// StdNS returns the inter-arrival standard deviation in nanoseconds.
func (h *HostHealth) StdNS() float64 {
	if h.Count < 3 {
		return 0
	}
	v := h.M2NS / float64(h.Count-2)
	if v <= 0 {
		return 0
	}
	// Newton iterations keep the result deterministic across
	// platforms.
	x := v
	for i := 0; i < 32; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// Deadline derives the adaptive silence threshold for this host:
// factor*(mean + 4*sigma) of observed inter-arrivals, clamped to
// [floor, cap].  With too few samples it returns cap (the static
// delay), so the detector is never more aggressive than its evidence.
func (h *HostHealth) Deadline(factor float64, floor, cap time.Duration) time.Duration {
	if h == nil || h.Count < healthMinSamples || factor <= 0 {
		return cap
	}
	d := time.Duration(factor * (h.MeanNS + 4*h.StdNS()))
	if d < floor {
		d = floor
	}
	if d > cap {
		d = cap
	}
	return d
}

// encodeHealth writes a health summary; EvHealth and the snapshot
// share it.  The leader-local clock is not part of a summary.
func encodeHealth(e *bin.Encoder, h *HostHealth) {
	e.I64(h.Count)
	e.I64(int64(math.Float64bits(h.MeanNS)))
	e.I64(int64(math.Float64bits(h.M2NS)))
	e.I64(h.Cores)
}

func decodeHealth(d *bin.Decoder) HostHealth {
	var h HostHealth
	h.Count = d.I64()
	h.MeanNS = math.Float64frombits(uint64(d.I64()))
	h.M2NS = math.Float64frombits(uint64(d.I64()))
	h.Cores = d.I64()
	return h
}

// HealthHosts returns the registry hostnames in deterministic order.
func (st *State) HealthHosts() []string {
	out := make([]string, 0, len(st.Health))
	for h := range st.Health {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// HostDeadline is the State-level lookup the standby election wait and
// the partition watchdog use: the adaptive deadline for host from its
// journaled summary, or cap when no summary names it.
func (st *State) HostDeadline(host string, factor float64, floor, cap time.Duration) time.Duration {
	return st.Health[host].Deadline(factor, floor, cap)
}
