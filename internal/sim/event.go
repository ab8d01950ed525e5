package sim

import (
	"fmt"
	"time"
)

// event is a single entry in the engine's pending-event heap.  An
// event is owned either by the engine's pool (one-shot Schedule
// callbacks, recycled after they fire) or by a Timer, which moves its
// one event in place instead of queueing a new one.
type event struct {
	at    Time
	seq   uint64 // tiebreaker: FIFO among events at the same instant
	index int    // position in the heap; -1 while not queued
	fn    func()

	pooled bool // a one-shot Schedule event, recycled after it fires
}

// before reports whether a fires before b: earlier time first, and
// among equal times the lower sequence number (the earlier arming).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a min-heap of events ordered by (at, seq).  Every
// queued event records its own index, so a Timer can move or withdraw
// its event in O(log n) without searching.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// remove withdraws the event at index i and returns it; remove(0)
// pops the earliest event.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		last.index = i
		h.fix(i)
	}
	ev.index = -1
	return ev
}

// fix restores heap order after the event at index i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down sifts the event at index i toward the leaves and reports
// whether it moved.
func (h eventHeap) down(i0 int) bool {
	ev := h[i0]
	i, n := i0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// Timer is a re-armable engine event with one owner: a resource
// scheduler's next completion, a thread's wake slot.  It holds at most
// one pending event.  Reset moves that event in place and Stop
// withdraws it, so a superseded deadline never fires later as a no-op
// and never occupies the heap.  Each Reset takes a fresh sequence
// number exactly as a new Schedule call would, so live events keep the
// relative order they would have if every re-arm queued a new event
// and stale ones were skipped.
//
// Like all engine state, a Timer may only be used from engine or
// thread context.  Its callback runs in engine context and may Reset
// the timer it belongs to.
type Timer struct {
	eng *Engine
	ev  event
}

// NewTimer returns a stopped timer that runs fn in engine context each
// time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{}
	t.init(e, fn)
	return t
}

func (t *Timer) init(e *Engine, fn func()) {
	t.eng = e
	t.ev = event{index: -1, fn: fn}
}

// Reset arms the timer to fire after virtual delay d, replacing any
// pending firing.  A negative delay panics; a zero delay fires after
// every event already pending at the present instant.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Timer.Reset with negative delay %v", d))
	}
	e := t.eng
	e.seq++
	t.ev.at = e.now.Add(d)
	t.ev.seq = e.seq
	if t.ev.index >= 0 {
		e.events.fix(t.ev.index)
	} else {
		e.events.push(&t.ev)
	}
}

// Stop withdraws the pending firing, if any, and reports whether there
// was one.
func (t *Timer) Stop() bool {
	if t.ev.index < 0 {
		return false
	}
	t.eng.events.remove(t.ev.index)
	return true
}
