package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Engine is a deterministic discrete-event simulation engine.
//
// The zero value is not usable; construct with NewEngine.  All methods
// must be called from the context that holds control: the goroutine
// that calls Run or RunFor (before the call or between calls), an
// event callback, or the currently executing virtual thread.  The
// engine guarantees that only one of those contexts is active at a
// time.
//
// Each virtual thread runs as a coroutine.  The runner (the goroutine
// inside Run or RunFor) is the only context that fires events: it
// fires them until one wakes or starts a thread, then resumes that
// thread's coroutine, and fires on once the thread parks or ends.  A
// Kill of a parked thread resumes the victim from the calling context
// instead.  Control passes by coroutine switches, never through the Go
// scheduler, and an event callback's panic unwinds straight out of Run
// or RunFor.
//
// A blocking charge that nothing could interrupt does not park at all:
// when no other event falls due before it ends, the running thread
// moves the clock there itself and counts the events its parked twin
// would have fired (Thread.ServeInPlace).
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	free   []*event // fired one-shot events, reused by Schedule

	running *Thread              // thread currently executing, if any
	next    *Thread              // thread the current event wakes or starts
	threads map[*Thread]struct{} // all live (non-dead) threads
	nextTID int64

	limit Time  // the runner's call fires no event after this
	abort error // MaxEvents error for the runner's call

	rng     *rand.Rand
	fatal   error
	stopped bool

	fired uint64 // total events fired, for stats and runaway detection

	// MaxEvents, when non-zero, aborts Run or RunFor with an error
	// after that many events have fired.  It is a backstop against
	// accidental infinite event loops in workload code.  Only live
	// events count: a re-armed Timer or wake never leaves a superseded
	// event behind to fire.  A charge served in place counts the
	// events its parked twin would fire, and is served in place only
	// if they all fit within the limit.
	MaxEvents uint64
}

// NewEngine returns an engine with its clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		threads: make(map[*Thread]struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.  It must only
// be used from engine or thread context, like all other engine state.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsFired reports how many events have fired so far.  Every event
// counted did work: superseded deadlines are withdrawn, not fired.  A
// charge served in place (Thread.ServeInPlace) counts the events its
// parked twin would have fired, so the count does not depend on which
// way a charge went.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule arranges for fn to run in engine context after virtual
// delay d.  A negative delay panics; a zero delay runs fn after all
// currently pending events at the present instant.  Schedule is for
// one-shot work; an owner that keeps moving one deadline (a resource
// scheduler's next completion) holds a Timer instead.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", d))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{pooled: true}
	}
	e.seq++
	ev.at, ev.seq, ev.fn = e.now.Add(d), e.seq, fn
	e.events.push(ev)
}

// Go creates a virtual thread named name that will begin executing fn
// after virtual delay d.  The thread terminates when fn returns.
func (e *Engine) Go(name string, fn func(*Thread)) *Thread {
	return e.GoAfter(0, name, fn)
}

// GoAfter is Go with an explicit start delay.
func (e *Engine) GoAfter(d time.Duration, name string, fn func(*Thread)) *Thread {
	e.nextTID++
	t := &Thread{
		eng:   e,
		id:    e.nextTID,
		name:  name,
		state: stateReady,
		body:  fn,
	}
	t.slot.init(e, t.fireSlot)
	t.exited = NewWaitQueue(e, name+".exited")
	e.threads[t] = struct{}{}
	e.Schedule(d, func() { e.startThread(t) })
	return t
}

// startThread is a thread's start event: the runner resumes t next,
// which makes its coroutine.
func (e *Engine) startThread(t *Thread) {
	if t.state == stateDead || t.killed {
		return // killed before it ever ran
	}
	e.next = t
}

// dispatch fires events until one wakes or starts a thread, and
// returns that thread, or nil when the runner's call must end: Stop, a
// fatal error, MaxEvents, no event left, or none due by the runner's
// limit.
func (e *Engine) dispatch() *Thread {
	for e.next == nil {
		if e.stopped || e.fatal != nil || len(e.events) == 0 || e.events[0].at > e.limit {
			return nil
		}
		if e.MaxEvents != 0 && e.fired >= e.MaxEvents {
			e.abort = fmt.Errorf("sim: aborted after %d events (MaxEvents)", e.fired)
			return nil
		}
		ev := e.events.remove(0)
		if ev.at < e.now {
			panic("sim: event scheduled in the past")
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		if ev.pooled {
			ev.fn = nil
			e.free = append(e.free, ev)
		}
		fn()
	}
	next := e.next
	e.next = nil
	return next
}

// inPlace takes the n events that would end a charge of the running
// thread at instant at, without firing them, when no other context
// could run first; see Thread.ServeInPlace.  It checks what dispatch
// would check before firing each of them.
func (e *Engine) inPlace(at Time, n uint64, own *Timer) bool {
	if e.stopped || e.fatal != nil || at > e.limit ||
		(e.MaxEvents != 0 && e.fired+n > e.MaxEvents) || e.dueBy(at, own) {
		return false
	}
	e.seq += n
	e.now = at
	e.fired += n
	return true
}

// dueBy reports whether a pending event other than own's (own may be
// nil) falls due at or before at.  When own's event is the earliest,
// the next-earliest is one of its two children in the heap.
func (e *Engine) dueBy(at Time, own *Timer) bool {
	h := e.events
	if len(h) == 0 {
		return false
	}
	if own == nil || h[0] != &own.ev {
		return h[0].at <= at
	}
	return len(h) > 1 && h[1].at <= at || len(h) > 2 && h[2].at <= at
}

// runTo is the runner's side of Run and RunFor: it fires events until
// none is due by limit, and resumes each thread they wake or start
// until it parks or ends.
func (e *Engine) runTo(limit Time) error {
	e.limit = limit
	for t := e.dispatch(); t != nil; t = e.dispatch() {
		t.state = stateRunning
		t.resume()
	}
	if err := e.abort; err != nil {
		e.abort = nil
		return err
	}
	return e.fatal
}

// Run fires events until none remain, Stop is called, or a thread
// panics.  It returns an error if a thread panicked, if MaxEvents was
// exceeded, or if live threads remain blocked with no pending events
// (a deadlock in the simulated system).
func (e *Engine) Run() error {
	if err := e.runTo(math.MaxInt64); err != nil {
		return err
	}
	if e.stopped {
		return nil
	}
	if n := len(e.threads); n > 0 {
		return &DeadlockError{At: e.now, Threads: e.threadSummaries()}
	}
	return nil
}

// RunFor fires events until the clock would pass now+d, leaving any
// later events pending.  It returns the first error encountered, but —
// unlike Run — does not treat remaining blocked threads as a deadlock.
func (e *Engine) RunFor(d time.Duration) error {
	deadline := e.now.Add(d)
	if err := e.runTo(deadline); err != nil {
		return err
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Fail records err as a fatal simulation error, stopping Run.
func (e *Engine) Fail(err error) {
	if e.fatal == nil {
		e.fatal = err
	}
}

// Shutdown abruptly kills every live thread so that no goroutines leak
// after a simulation ends early.  It must not be called while Run is
// executing an event.  Threads are killed in deterministic name order;
// their deferred functions run, but must not block on simulation
// primitives.
func (e *Engine) Shutdown() {
	for _, t := range e.sortedThreads() {
		t.Kill()
	}
}

// Current returns the currently executing thread, or nil when the
// engine itself (an event callback) is running.
func (e *Engine) Current() *Thread { return e.running }

// LiveThreads returns the number of live (non-dead) threads.
func (e *Engine) LiveThreads() int { return len(e.threads) }

func (e *Engine) sortedThreads() []*Thread {
	ts := make([]*Thread, 0, len(e.threads))
	for t := range e.threads {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].name != ts[j].name {
			return ts[i].name < ts[j].name
		}
		return ts[i].id < ts[j].id
	})
	return ts
}

func (e *Engine) threadSummaries() []string {
	var out []string
	for _, t := range e.sortedThreads() {
		out = append(out, t.describe())
	}
	return out
}

// DeadlockError reports that the simulation ran out of events while
// threads were still alive and blocked.
type DeadlockError struct {
	At      Time // time of the last event fired, which was a live one
	Threads []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v with %d blocked threads:\n  %s",
		d.At, len(d.Threads), strings.Join(d.Threads, "\n  "))
}
