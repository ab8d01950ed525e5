package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// threadState describes where a virtual thread is in its lifecycle.
type threadState int

const (
	stateReady    threadState = iota // wake or start event pending
	stateRunning                     // executing user code right now
	stateSleeping                    // timer pending
	stateWaiting                     // parked on a WaitQueue
	stateDead                        // fn returned or thread was killed
)

func (s threadState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateWaiting:
		return "waiting"
	case stateDead:
		return "dead"
	default:
		return "invalid"
	}
}

// WakeReason tells a thread returning from a blocking call why it was
// woken.
type WakeReason int

const (
	// WakeSignal means another thread woke it via a WaitQueue.
	WakeSignal WakeReason = iota
	// WakeTimeout means a sleep or WaitTimeout deadline expired.
	WakeTimeout
	// WakeInterrupt means the thread was woken by Thread.Interrupt,
	// independent of the queue it was blocked on.
	WakeInterrupt
)

func (r WakeReason) String() string {
	switch r {
	case WakeSignal:
		return "signal"
	case WakeTimeout:
		return "timeout"
	case WakeInterrupt:
		return "interrupt"
	default:
		return "invalid"
	}
}

// errThreadKilled is the panic value used to unwind a killed thread.
var errThreadKilled = errors.New("sim: thread killed")

// ErrInterrupted is returned by blocking operations cut short by
// Thread.Interrupt.
var ErrInterrupted = errors.New("sim: interrupted")

// Thread is a virtual thread: a coroutine scheduled cooperatively by
// the engine.  All methods that block (Sleep, Yield, Join, and
// WaitQueue waits naming this thread) must be called from the thread's
// own body; control methods (Suspend, Resume, Interrupt, Kill) may be
// called from any simulation context.
//
// A thread owns one wake slot: a Timer that is either its sleep or
// WaitTimeout deadline or a pending wake (signal, interrupt, resumed
// wake).  A newer wake moves the slot and a cancellation (Suspend of a
// sleeper, Kill) withdraws it, so a thread has at most one pending
// event besides its start event, and no superseded one ever fires.
//
// A body must not call runtime.Goexit (testing.T's FailNow, Fatal and
// SkipNow do): the Goexit passes out of the thread's coroutine to the
// context that resumed it, whose goroutine then exits through its
// deferred functions, and the engine is unusable from then on.  Report
// a failure and return instead.
type Thread struct {
	eng  *Engine
	id   int64
	name string

	body  func(*Thread)           // until the first resume makes the coroutine from it
	run   func() (struct{}, bool) // resumes the coroutine; nil before the first resume and once dead
	yield func(struct{}) bool     // inside the coroutine: gives control back to its resumer
	state threadState

	slot       Timer      // the thread's one wake event
	slotReason WakeReason // reason the slot delivers when it fires

	// suspended is orthogonal to state: a sleeping, waiting, or ready
	// thread can be suspended in place.
	suspended bool

	// pendingWake records a wakeup that arrived while suspended; it is
	// delivered on Resume.
	pendingWake   bool
	pendingReason WakeReason

	// sleepRemainder is the unexpired portion of a sleep interrupted
	// by Suspend; the sleep is re-armed for this long on Resume.
	sleepRemainder time.Duration
	sleepUntil     Time

	waitingOn  *WaitQueue
	wakeReason WakeReason

	killed      bool
	interrupted bool

	// suspendHook, when set, is called with true on Suspend and false
	// on Resume.  Resource schedulers that account for this thread
	// while it blocks (the kernel's per-node core scheduler) use it to
	// stop and restart the accounting across a suspension.
	suspendHook func(suspended bool)

	exited *WaitQueue // woken when the thread dies
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Engine returns the engine this thread runs on.
func (t *Thread) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Thread) Now() Time { return t.eng.now }

func (t *Thread) describe() string {
	s := fmt.Sprintf("%s[%s", t.name, t.state)
	if t.suspended {
		s += ",suspended"
	}
	if t.state == stateWaiting && t.waitingOn != nil {
		s += ",on=" + t.waitingOn.name
	}
	return s + "]"
}

// Dead reports whether the thread has terminated.
func (t *Thread) Dead() bool { return t.state == stateDead }

func (t *Thread) assertCurrent(op string) {
	if t.eng.running != t {
		panic(fmt.Sprintf("sim: %s called on thread %q from outside its own context", op, t.name))
	}
	if t.killed {
		panic(errThreadKilled)
	}
}

// park gives control back to the context that resumed the thread and
// returns when it is resumed again.  A killed thread unwinds on return.
func (t *Thread) park() {
	t.yield(struct{}{})
	if t.killed {
		panic(errThreadKilled)
	}
}

// resume runs t until it parks or ends, then gives control back to the
// caller: the runner, or a Kill from any context.  The first resume
// makes t's coroutine from its body.
func (t *Thread) resume() {
	e := t.eng
	prev := e.running
	e.running = t
	if t.run == nil {
		fn := t.body
		t.body = nil
		t.run = coroutine(func(yield func(struct{}) bool) {
			t.yield = yield
			defer t.exit()
			fn(t)
		})
	}
	t.run()
	e.running = prev
}

// exit ends the thread once its body returns, panics, or unwinds from
// a kill.  Its coroutine then ends, and control goes back to the
// context that resumed it.
func (t *Thread) exit() {
	e := t.eng
	if r := recover(); r != nil && r != errThreadKilled {
		if e.fatal == nil {
			e.fatal = fmt.Errorf("sim: thread %q panicked: %v\n%s", t.name, r, debug.Stack())
		}
	}
	t.markDead()
}

// Sleep blocks the thread for virtual duration d.  If the thread is
// suspended mid-sleep, the unexpired remainder is preserved and the
// sleep continues after Resume.  A sleep that no other event falls due
// before is served in place (ServeInPlace): the thread moves the clock
// past it and carries on, counting the one event its wake would fire.
func (t *Thread) Sleep(d time.Duration) {
	t.assertCurrent("Sleep")
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep with negative duration %v", d))
	}
	at := t.eng.now.Add(d)
	if t.eng.inPlace(at, 1, nil) {
		return
	}
	t.state = stateSleeping
	t.sleepUntil = at
	t.armTimer(d)
	t.park()
	t.state = stateRunning
}

// ServeInPlace ends a blocking charge of the running thread t without
// parking it, where nothing could tell the difference.  Parked, the
// charge would arm n events of its own, each firing in turn, the last
// at instant at, and the last would wake t: one for a sleep, two for a
// CPU completion plus the wake it delivers.  The charge is served in
// place only if, at the instant it would end:
//
//   - no pending event is due at or before at, except own's (own may
//     be nil: a Timer that the caller re-arms whichever way it goes);
//   - at is within the runner's limit;
//   - neither Stop nor a fatal error has ended the run, and n more
//     events keep EventsFired within MaxEvents.
//
// Then no other thread runs, no event callback fires, and so no Kill,
// Suspend or fault can land before the charge ends.  ServeInPlace
// moves the clock to at and advances the sequence counter and
// EventsFired by n, exactly as the parked path would, and reports
// true; the caller then does what the charge's last events would have
// done.  Otherwise it changes nothing and reports false, and the
// caller parks as usual.
func (t *Thread) ServeInPlace(at Time, n uint64, own *Timer) bool {
	t.assertCurrent("ServeInPlace")
	return t.eng.inPlace(at, n, own)
}

// armTimer arms the wake slot to deliver WakeTimeout after d,
// superseding any earlier wake.
func (t *Thread) armTimer(d time.Duration) {
	t.slotReason = WakeTimeout
	t.slot.Reset(d)
}

// scheduleWake moves the wake slot to the present instant, so that it
// hands control to the thread after the events already pending now,
// superseding any pending timer or earlier wake.
func (t *Thread) scheduleWake(reason WakeReason) {
	t.state = stateReady
	t.slotReason = reason
	t.slot.Reset(0)
}

// fireSlot is the wake slot's callback.
func (t *Thread) fireSlot() { t.deliverWake(t.slotReason) }

// deliverWake runs as an event callback and either passes control to
// the thread once the callback returns or, if it is suspended, records
// the wake for Resume.
func (t *Thread) deliverWake(reason WakeReason) {
	if t.state == stateDead {
		return
	}
	if t.waitingOn != nil {
		t.waitingOn.remove(t)
	}
	if t.suspended {
		t.pendingWake = true
		t.pendingReason = reason
		t.sleepRemainder = 0
		return
	}
	t.wakeReason = reason
	t.eng.next = t
}

// Suspend freezes the thread in place: a sleeping thread's timer is
// cancelled (remainder preserved), a waiting thread stays on its
// queue but defers wakeups, and a ready thread defers its pending
// wake.  Suspending a dead or already-suspended thread is a no-op.
// The currently running thread cannot suspend itself.
func (t *Thread) Suspend() {
	if t.state == stateDead || t.suspended {
		return
	}
	if t.eng.running == t {
		panic(fmt.Sprintf("sim: thread %q cannot Suspend itself", t.name))
	}
	t.suspended = true
	if t.suspendHook != nil {
		t.suspendHook(true)
	}
	if t.state == stateSleeping {
		if rem := t.sleepUntil.Sub(t.eng.now); rem > 0 {
			t.sleepRemainder = rem
		} else {
			// Timer already due; treat as a deferred wake.
			t.pendingWake = true
			t.pendingReason = WakeTimeout
		}
		t.slot.Stop() // cancel the armed timer
	}
}

// Resume lifts a suspension.  A deferred wake is delivered, an
// interrupted sleep is re-armed for its remainder, and a waiting
// thread goes back to waiting normally.
func (t *Thread) Resume() {
	if t.state == stateDead || !t.suspended {
		return
	}
	t.suspended = false
	if t.suspendHook != nil {
		t.suspendHook(false)
	}
	switch {
	case t.pendingWake:
		t.pendingWake = false
		t.scheduleWake(t.pendingReason)
	case t.sleepRemainder > 0:
		d := t.sleepRemainder
		t.sleepRemainder = 0
		t.sleepUntil = t.eng.now.Add(d)
		t.armTimer(d)
	}
}

// Interrupt wakes the thread out of any blocking operation with
// WakeInterrupt (the simulation analogue of delivering a signal).  If
// the thread is suspended the interrupt is deferred until Resume.  It
// is a no-op on a running or dead thread.
func (t *Thread) Interrupt() {
	switch t.state {
	case stateDead, stateRunning:
		return
	}
	t.interrupted = true
	if t.suspended {
		t.pendingWake = true
		t.pendingReason = WakeInterrupt
		t.sleepRemainder = 0
		return
	}
	t.scheduleWake(WakeInterrupt)
}

// ClearInterrupt resets the interrupt flag, returning its prior value.
func (t *Thread) ClearInterrupt() bool {
	was := t.interrupted
	t.interrupted = false
	return was
}

// SetSuspendHook installs (or, with nil, clears) the suspend/resume
// notification callback.  At most one hook is active per thread; the
// caller owns the window in which it is set.
func (t *Thread) SetSuspendHook(fn func(suspended bool)) { t.suspendHook = fn }

// Kill terminates the thread.  If it has not started it never will.
// Otherwise its coroutine unwinds: deferred functions run, but must not
// block on simulation primitives.  The currently running thread may
// kill itself, which unwinds it on the spot.  Kill of a parked thread,
// from any context (another thread, an event callback, or the runner
// between Run or RunFor calls), resumes its coroutine to unwind it: the
// victim's deferred functions have run and Dead reports true when Kill
// returns.
func (t *Thread) Kill() {
	if t.state == stateDead {
		return
	}
	t.killed = true
	t.suspended = false
	t.slot.Stop() // cancel any pending wake or timer
	if t.waitingOn != nil {
		t.waitingOn.remove(t)
	}
	switch {
	case t.run == nil:
		// The start event will observe killed state and do nothing.
		t.body = nil
		t.markDead()
	case t.eng.running == t:
		panic(errThreadKilled)
	default:
		t.resume() // park observes killed and unwinds
	}
}

// markDead finalizes thread termination bookkeeping.  A dead thread
// keeps no reference to its coroutine, so nothing it ran stays pinned.
func (t *Thread) markDead() {
	t.state = stateDead
	t.run, t.yield = nil, nil
	delete(t.eng.threads, t)
	t.exited.WakeAll()
}

// Join blocks the calling thread until t has terminated.
func (t *Thread) Join(caller *Thread) {
	for t.state != stateDead {
		t.exited.Wait(caller)
	}
}
