package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Engine is a deterministic discrete-event simulation engine.
//
// The zero value is not usable; construct with NewEngine.  All methods
// must be called either from the goroutine that calls Run (before Run
// starts or from within an event callback) or from the currently
// executing virtual thread; the engine guarantees that only one of
// those contexts is active at a time.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	free   []*event // fired one-shot events, reused by Schedule

	running *Thread              // thread currently executing, if any
	threads map[*Thread]struct{} // all live (non-dead) threads
	nextTID int64

	rng     *rand.Rand
	fatal   error
	stopped bool

	fired uint64 // total events fired, for stats and runaway detection

	// MaxEvents, when non-zero, aborts Run or RunFor with an error
	// after that many events have fired.  It is a backstop against
	// accidental infinite event loops in workload code.  Only live
	// events count: a re-armed Timer or wake never leaves a superseded
	// event behind to fire.
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
// counted did work: superseded deadlines are withdrawn, not fired.
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
		wake:  make(chan struct{}),
		yield: make(chan struct{}),
		state: stateReady,
	}
	t.slot.init(e, t.fireSlot)
	t.exited = NewWaitQueue(e, name+".exited")
	e.threads[t] = struct{}{}
	e.Schedule(d, func() { e.startThread(t, fn) })
	return t
}

// startThread launches the goroutine backing t and hands control to
// it.  Engine context only.
func (e *Engine) startThread(t *Thread, fn func(*Thread)) {
	if t.state == stateDead || t.killed {
		return // killed before it ever ran
	}
	t.started = true
	prev := e.running
	t.state = stateRunning
	e.running = t // set before the goroutine starts: `go` is the happens-before edge
	go func() {
		defer func() {
			if r := recover(); r != nil && r != errThreadKilled {
				if e.fatal == nil {
					e.fatal = fmt.Errorf("sim: thread %q panicked: %v\n%s", t.name, r, debug.Stack())
				}
			}
			t.markDead()
			t.yield <- struct{}{}
		}()
		fn(t)
	}()
	<-t.yield
	e.running = prev
}

// transfer hands control to t, which must be blocked in park, and
// waits on t's own yield channel until it parks again or exits.
// transfer may be called from engine context or from another thread's
// context (Kill): each handoff waits on the thread it woke, so a
// nested handoff cannot take another's yield token.  The previously
// running thread is restored afterwards.
func (e *Engine) transfer(t *Thread) {
	prev := e.running
	t.state = stateRunning
	e.running = t
	t.wake <- struct{}{}
	<-t.yield
	e.running = prev
}

// fire pops the earliest event and runs it: the one path Run and
// RunFor share, with the MaxEvents backstop and the clock check.
func (e *Engine) fire() error {
	if e.MaxEvents != 0 && e.fired >= e.MaxEvents {
		return fmt.Errorf("sim: aborted after %d events (MaxEvents)", e.fired)
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
	return nil
}

// Run fires events until none remain, Stop is called, or a thread
// panics.  It returns an error if a thread panicked, if MaxEvents was
// exceeded, or if live threads remain blocked with no pending events
// (a deadlock in the simulated system).
func (e *Engine) Run() error {
	for !e.stopped && e.fatal == nil && len(e.events) > 0 {
		if err := e.fire(); err != nil {
			return err
		}
	}
	if e.fatal != nil {
		return e.fatal
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
	for !e.stopped && e.fatal == nil && len(e.events) > 0 && e.events[0].at <= deadline {
		if err := e.fire(); err != nil {
			return err
		}
	}
	if e.fatal == nil && e.now < deadline {
		e.now = deadline
	}
	return e.fatal
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
