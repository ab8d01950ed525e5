// Package flow models shared-bandwidth resources for the simulator.
//
// The central type is Pipe, a processor-sharing byte server with an
// optional write-back buffer: while the buffer (think: page cache) has
// room, writers are absorbed at a fast rate; once it fills, they are
// throttled to the slow (physical) rate, and the buffer drains at the
// slow rate in the background.  Concurrent writers share the
// instantaneous service rate equally, which approximates how a page
// cache, a SAN volume, or an NFS server divides its bandwidth between
// simultaneous checkpoint writers.
package flow

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// epsilon below which byte counts are considered zero.
const epsilon = 1e-3

// job is a single in-progress transfer.
type job struct {
	remaining float64
	done      *sim.WaitQueue
	finished  bool
}

// Pipe is a processor-sharing bandwidth server with a write-back
// buffer.  Construct with NewPipe.
type Pipe struct {
	eng  *sim.Engine
	name string

	fastBW float64 // absorb rate while buffer has room (bytes/sec)
	slowBW float64 // physical drain / throttled rate (bytes/sec)
	bufCap float64 // dirty-byte capacity; 0 means no buffering

	dirty  float64
	jobs   []*job
	lastAt sim.Time

	next    *sim.Timer // the one pending rate-change event
	syncers *sim.WaitQueue
	wname   string // name of each write's completion wait queue

	// Stats
	totalBytes float64
	totalJobs  int64
}

// NewPipe returns a pipe that serves writers at fastBW bytes/sec while
// fewer than bufCap dirty bytes are buffered and at slowBW bytes/sec
// otherwise; buffered bytes drain at slowBW in the background.  For a
// plain constant-rate shared link, pass fastBW == slowBW and bufCap 0.
func NewPipe(e *sim.Engine, name string, fastBW, slowBW, bufCap float64) *Pipe {
	if fastBW < slowBW {
		panic(fmt.Sprintf("flow: %s: fastBW %.0f < slowBW %.0f", name, fastBW, slowBW))
	}
	if slowBW <= 0 {
		panic(fmt.Sprintf("flow: %s: non-positive slowBW", name))
	}
	p := &Pipe{
		eng:     e,
		name:    name,
		fastBW:  fastBW,
		slowBW:  slowBW,
		bufCap:  bufCap,
		syncers: sim.NewWaitQueue(e, name+".sync"),
		wname:   name + ".write",
	}
	p.next = e.NewTimer(p.step)
	return p
}

// Name returns the pipe's diagnostic name.
func (p *Pipe) Name() string { return p.name }

// DirtyBytes returns the bytes currently buffered but not yet drained.
func (p *Pipe) DirtyBytes() int64 {
	p.advance()
	return int64(p.dirty + 0.5)
}

// ActiveWriters returns the number of in-flight transfers.
func (p *Pipe) ActiveWriters() int { return len(p.jobs) }

// TotalBytes returns the cumulative bytes accepted.
func (p *Pipe) TotalBytes() int64 { return int64(p.totalBytes) }

// rate returns the current aggregate service rate for writers.
func (p *Pipe) rate() float64 {
	if len(p.jobs) == 0 {
		return 0
	}
	if p.bufCap > 0 && p.dirty < p.bufCap-epsilon {
		return p.fastBW
	}
	return p.slowBW
}

// advance integrates state from lastAt to now.  Callers must have
// arranged (via the rate-change timer) that no rate change occurs
// strictly inside the interval.
func (p *Pipe) advance() {
	now := p.eng.Now()
	dt := now.Sub(p.lastAt).Seconds()
	p.lastAt = now
	if dt <= 0 {
		return
	}
	r := p.rate()
	if k := len(p.jobs); k > 0 {
		share := r * dt / float64(k)
		for _, j := range p.jobs {
			j.remaining -= share
		}
	}
	// Buffer evolution: inflow r, outflow slowBW, clamped to [0, cap].
	p.dirty += (r - p.slowBW) * dt
	if p.dirty < 0 {
		p.dirty = 0
	}
	if p.bufCap > 0 && p.dirty > p.bufCap {
		p.dirty = p.bufCap
	}
}

// reschedule computes the next instant at which rates or job states
// change and moves the rate-change timer to it.
func (p *Pipe) reschedule() {
	next := math.Inf(1) // seconds until next state change

	r := p.rate()
	if k := len(p.jobs); k > 0 {
		minRem := math.Inf(1)
		for _, j := range p.jobs {
			if j.remaining < minRem {
				minRem = j.remaining
			}
		}
		if minRem <= epsilon {
			next = 0
		} else {
			next = minRem * float64(k) / r
		}
		// Buffer-full crossing changes the service rate.
		if p.bufCap > 0 && p.dirty < p.bufCap-epsilon && r > p.slowBW {
			if t := (p.bufCap - p.dirty) / (r - p.slowBW); t < next {
				next = t
			}
		}
	} else {
		// Idle: schedule the background-drain completion so that
		// syncers (including ones that enqueue later) are woken.
		if p.dirty > epsilon {
			next = p.dirty / p.slowBW
		}
	}
	if math.IsInf(next, 1) {
		p.next.Stop()
		return
	}
	// Round up to a whole nanosecond: truncation would schedule the
	// completion event at the current instant without serving the
	// remaining fraction, spinning the event loop forever.
	d := time.Duration(math.Ceil(next * float64(time.Second)))
	if d <= 0 {
		d = 1
	}
	p.next.Reset(d)
}

// step advances state, completes any finished jobs, wakes syncers if
// drained, and re-arms the next event.
func (p *Pipe) step() {
	p.advance()
	live := p.jobs[:0]
	for _, j := range p.jobs {
		if j.remaining <= epsilon {
			j.finished = true
			j.done.WakeAll()
		} else {
			live = append(live, j)
		}
	}
	p.jobs = live
	if len(p.jobs) == 0 && p.dirty <= epsilon && p.syncers.Len() > 0 {
		p.dirty = 0
		p.syncers.WakeAll()
	}
	p.reschedule()
}

// Write transfers n bytes through the pipe, blocking t until the
// transfer's share of bandwidth has served all n bytes.
func (p *Pipe) Write(t *sim.Thread, n int64) {
	if n <= 0 {
		return
	}
	p.advance()
	j := &job{
		remaining: float64(n),
		done:      sim.NewWaitQueue(p.eng, p.wname),
	}
	p.jobs = append(p.jobs, j)
	p.totalBytes += float64(n)
	p.totalJobs++
	p.reschedule()
	for !j.finished {
		j.done.Wait(t)
	}
}

// Read transfers n bytes at the pipe's service rate without touching
// the write-back buffer: it behaves as a parallel PS transfer at
// fastBW shared with other readers only.  Reads model streaming from
// a warm cache; pass a dedicated read pipe for cold-read modeling.
func (p *Pipe) Read(t *sim.Thread, n int64) {
	p.Write(t, n) // symmetric service; separate pipes keep reads apart
}

// Sync blocks t until every accepted byte has drained to the slow
// side (dirty == 0 and no writers in flight).
func (p *Pipe) Sync(t *sim.Thread) {
	p.advance()
	p.reschedule()
	for len(p.jobs) > 0 || p.dirty > epsilon {
		p.syncers.Wait(t)
	}
}

// EstSyncCost returns the time a Sync issued now would take, without
// blocking.  Useful to report modeled sync costs.
func (p *Pipe) EstSyncCost() time.Duration {
	p.advance()
	pending := p.dirty
	for _, j := range p.jobs {
		pending += j.remaining
	}
	return time.Duration(pending / p.slowBW * float64(time.Second))
}
