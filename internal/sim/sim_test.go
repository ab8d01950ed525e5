package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 10) }) // FIFO at same instant
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v, want 3ms", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.Schedule(-time.Nanosecond, func() {})
}

func TestThreadSleep(t *testing.T) {
	e := NewEngine(1)
	var wakeAt []Time
	e.Go("a", func(th *Thread) {
		th.Sleep(5 * time.Millisecond)
		wakeAt = append(wakeAt, th.Now())
		th.Sleep(10 * time.Millisecond)
		wakeAt = append(wakeAt, th.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakeAt) != 2 || wakeAt[0] != Time(5*time.Millisecond) || wakeAt[1] != Time(15*time.Millisecond) {
		t.Fatalf("wake times = %v", wakeAt)
	}
}

func TestTwoThreadsInterleave(t *testing.T) {
	e := NewEngine(1)
	var order []string
	mk := func(name string, period time.Duration, n int) {
		e.Go(name, func(th *Thread) {
			for i := 0; i < n; i++ {
				th.Sleep(period)
				order = append(order, fmt.Sprintf("%s%d", name, i))
			}
		})
	}
	mk("a", 2*time.Millisecond, 3) // wakes at 2,4,6
	mk("b", 3*time.Millisecond, 2) // wakes at 3,6
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At t=6 both are due; b armed its 6ms timer at t=3, before a
	// armed its own at t=4, so b1 fires first.
	want := "[a0 b0 a1 b1 a2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(th *Thread) {
			q.Wait(th)
			order = append(order, name)
		})
	}
	e.GoAfter(time.Millisecond, "waker", func(th *Thread) {
		if n := q.Wake(1); n != 1 {
			t.Errorf("Wake(1) = %d", n)
		}
		th.Sleep(time.Millisecond)
		if n := q.WakeAll(); n != 2 {
			t.Errorf("WakeAll = %d", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[w1 w2 w3]" {
		t.Fatalf("order = %v", order)
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var reason WakeReason
	var at Time
	e.Go("w", func(th *Thread) {
		reason = q.WaitTimeout(th, 7*time.Millisecond)
		at = th.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reason != WakeTimeout || at != Time(7*time.Millisecond) {
		t.Fatalf("reason=%v at=%v", reason, at)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still has %d waiters", q.Len())
	}
}

func TestWaitTimeoutBeatenBySignal(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var reason WakeReason
	e.Go("w", func(th *Thread) {
		reason = q.WaitTimeout(th, 10*time.Millisecond)
		// Sleep past the original deadline to catch stale timer wakes.
		th.Sleep(20 * time.Millisecond)
	})
	e.GoAfter(2*time.Millisecond, "s", func(th *Thread) { q.WakeAll() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reason != WakeSignal {
		t.Fatalf("reason = %v, want signal", reason)
	}
}

func TestSuspendResumeSleepRemainder(t *testing.T) {
	e := NewEngine(1)
	var wokeAt Time
	w := e.Go("sleeper", func(th *Thread) {
		th.Sleep(10 * time.Millisecond)
		wokeAt = th.Now()
	})
	// Suspend from 3ms to 8ms: 7ms of sleep remain at suspension, so
	// the thread should wake at 8+7 = 15ms.
	e.Schedule(3*time.Millisecond, func() { w.Suspend() })
	e.Schedule(8*time.Millisecond, func() { w.Resume() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(15*time.Millisecond) {
		t.Fatalf("woke at %v, want 15ms", wokeAt)
	}
}

func TestSuspendDefersQueueWake(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var wokeAt Time
	w := e.Go("waiter", func(th *Thread) {
		q.Wait(th)
		wokeAt = th.Now()
	})
	e.Schedule(1*time.Millisecond, func() { w.Suspend() })
	e.Schedule(2*time.Millisecond, func() { q.WakeAll() }) // deferred
	e.Schedule(5*time.Millisecond, func() { w.Resume() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms (deferred until resume)", wokeAt)
	}
}

func TestSuspendReadyThreadDefersWake(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var wokeAt Time
	w := e.Go("waiter", func(th *Thread) {
		q.Wait(th)
		wokeAt = th.Now()
	})
	// Wake and immediately suspend at the same instant: the wake event
	// is pending when the suspension lands, so it must be deferred.
	e.Schedule(time.Millisecond, func() {
		q.WakeAll()
		w.Suspend()
	})
	e.Schedule(4*time.Millisecond, func() { w.Resume() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(4*time.Millisecond) {
		t.Fatalf("woke at %v, want 4ms", wokeAt)
	}
}

func TestSuspendExpiredSleepWakesOnResume(t *testing.T) {
	e := NewEngine(1)
	var wokeAt Time
	var th0 *Thread
	th0 = e.Go("s", func(th *Thread) {
		th.Sleep(time.Millisecond)
		wokeAt = th.Now()
	})
	// Suspend exactly at the expiry instant: this Schedule call runs
	// before the thread spawns, so its event precedes the thread's
	// timer event at t=1ms in FIFO order, and the suspension sees an
	// already-due sleep (remainder zero → deferred timeout wake).
	e.Schedule(time.Millisecond, func() { th0.Suspend() })
	e.Schedule(3*time.Millisecond, func() { th0.Resume() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want 3ms", wokeAt)
	}
}

func TestInterruptSleep(t *testing.T) {
	e := NewEngine(1)
	var wokeAt Time
	var intr bool
	w := e.Go("s", func(th *Thread) {
		th.Sleep(time.Hour)
		wokeAt = th.Now()
		intr = th.ClearInterrupt()
	})
	e.Schedule(time.Millisecond, func() { w.Interrupt() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(time.Millisecond) || !intr {
		t.Fatalf("wokeAt=%v intr=%v", wokeAt, intr)
	}
}

func TestInterruptWait(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var reason WakeReason
	w := e.Go("w", func(th *Thread) { reason = q.Wait(th) })
	e.Schedule(time.Millisecond, func() { w.Interrupt() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reason != WakeInterrupt {
		t.Fatalf("reason = %v", reason)
	}
	if q.Len() != 0 {
		t.Fatal("interrupted waiter left on queue")
	}
}

func TestJoin(t *testing.T) {
	e := NewEngine(1)
	var joinedAt Time
	worker := e.Go("worker", func(th *Thread) { th.Sleep(5 * time.Millisecond) })
	e.Go("joiner", func(th *Thread) {
		worker.Join(th)
		joinedAt = th.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != Time(5*time.Millisecond) {
		t.Fatalf("joined at %v", joinedAt)
	}
}

func TestJoinAlreadyDead(t *testing.T) {
	e := NewEngine(1)
	worker := e.Go("worker", func(th *Thread) {})
	ok := false
	e.GoAfter(time.Millisecond, "joiner", func(th *Thread) {
		worker.Join(th) // must not block
		ok = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("join on dead thread blocked")
	}
}

// TestKillParkedThread pins that Kill of a parked thread unwinds it
// before Kill returns, from whichever context calls it: an event
// callback, another running thread, or the runner between RunFor calls.
func TestKillParkedThread(t *testing.T) {
	for name, from := range map[string]func(e *Engine, kill func()){
		"EventCallback": func(e *Engine, kill func()) {
			e.Schedule(time.Millisecond, kill)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		},
		"OtherThread": func(e *Engine, kill func()) {
			e.GoAfter(time.Millisecond, "killer", func(*Thread) { kill() })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		},
		"RunnerBetweenRunFor": func(e *Engine, kill func()) {
			if err := e.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
			kill()
			if err := e.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
		},
	} {
		e := NewEngine(1)
		q := NewWaitQueue(e, "q")
		deferRan := false
		w := e.Go("victim", func(th *Thread) {
			defer func() { deferRan = true }()
			q.Wait(th)
			t.Errorf("%s: victim should never wake normally", name)
		})
		from(e, func() {
			w.Kill()
			if !deferRan || !w.Dead() {
				t.Errorf("%s: when Kill returned, deferred ran=%v, dead=%v", name, deferRan, w.Dead())
			}
		})
		if !w.Dead() {
			t.Fatalf("%s: victim not dead", name)
		}
		if q.Len() != 0 {
			t.Fatalf("%s: victim left on queue", name)
		}
		if e.LiveThreads() != 0 {
			t.Fatalf("%s: %d live threads", name, e.LiveThreads())
		}
	}
}

func TestKillBeforeStart(t *testing.T) {
	e := NewEngine(1)
	ran := false
	w := e.GoAfter(time.Hour, "late", func(th *Thread) { ran = true })
	e.Schedule(time.Millisecond, func() { w.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed thread ran anyway")
	}
}

func TestShutdownKillsAll(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(th *Thread) { q.Wait(th) })
	}
	e.Schedule(time.Millisecond, func() { e.Stop() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.LiveThreads() != 5 {
		t.Fatalf("live = %d before shutdown", e.LiveThreads())
	}
	e.Shutdown()
	if e.LiveThreads() != 0 {
		t.Fatalf("live = %d after shutdown", e.LiveThreads())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "stuckq")
	e.Go("stuck", func(th *Thread) { q.Wait(th) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Threads) != 1 {
		t.Fatalf("threads = %v", dl.Threads)
	}
	e.Shutdown()
}

func TestThreadPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("bad", func(th *Thread) { panic("boom") })
	err := e.Run()
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestStopEndsRun(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Schedule(time.Millisecond, tick)
	}
	e.Schedule(time.Millisecond, tick)
	e.Schedule(10*time.Millisecond+time.Microsecond, func() { e.Stop() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(time.Millisecond, func() { fired++ })
	e.Schedule(time.Hour, func() { fired++ })
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	if e.Now() != Time(time.Second) {
		t.Fatalf("now = %v", e.Now())
	}
	e.Shutdown()
}

func TestMaxEvents(t *testing.T) {
	for name, run := range map[string]func(*Engine) error{
		"Run":    (*Engine).Run,
		"RunFor": func(e *Engine) error { return e.RunFor(time.Second) },
	} {
		e := NewEngine(1)
		e.MaxEvents = 100
		var loop func()
		loop = func() { e.Schedule(0, loop) }
		e.Schedule(0, loop)
		if err := run(e); err == nil {
			t.Errorf("%s: expected MaxEvents error", name)
		}
		if e.EventsFired() != 100 {
			t.Errorf("%s: fired %d events, want the 100 allowed", name, e.EventsFired())
		}
	}
	// A charge served in place counts the events its parked twin would
	// fire, and only if they all fit: a thread whose charges nothing
	// else could interrupt still stops at exactly MaxEvents, whether a
	// charge stands for one event (a sleep) or two (a CPU completion
	// and its wake, parked as two sleeps).
	for name, run := range map[string]func(*Engine) error{
		"Run":    (*Engine).Run,
		"RunFor": func(e *Engine) error { return e.RunFor(time.Second) },
	} {
		for _, n := range []uint64{1, 2} {
			n := n
			e := NewEngine(1)
			e.MaxEvents = 101
			e.Go("charger", func(th *Thread) {
				for i := 0; i < 1000; i++ {
					if !th.ServeInPlace(th.Now().Add(time.Microsecond), n, nil) {
						if n == 2 {
							th.Sleep(0)
						}
						th.Sleep(time.Microsecond)
					}
				}
			})
			if err := run(e); err == nil {
				t.Errorf("%s, %d-event charges: expected MaxEvents error", name, n)
			}
			if e.EventsFired() != 101 {
				t.Errorf("%s, %d-event charges: fired %d events, want the 101 allowed", name, n, e.EventsFired())
			}
			e.Shutdown()
		}
	}
}

// TestInPlaceHonorsStop pins that neither Stop nor a fatal error lets a
// thread carry on through sleeps served in place: its next sleep parks
// and the run ends there, as it would if every sleep parked.
func TestInPlaceHonorsStop(t *testing.T) {
	for name, end := range map[string]func(*Engine){
		"Stop": (*Engine).Stop,
		"Fail": func(e *Engine) { e.Fail(errors.New("failed")) },
	} {
		end := end
		e := NewEngine(1)
		after := 0
		e.Go("sleeper", func(th *Thread) {
			th.Sleep(time.Microsecond)
			end(e)
			for i := 0; i < 100; i++ {
				th.Sleep(time.Microsecond)
				after++
			}
		})
		e.Run()
		if after != 0 {
			t.Errorf("%s: the thread slept %d more times, want 0", name, after)
		}
		e.Shutdown()
	}
}

// TestTimerRearm pins the Timer contract: Reset moves the one pending
// event (the queue never holds two), Stop withdraws it and reports
// whether it was armed, and a callback may re-arm its own timer.
func TestTimerRearm(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	var tm *Timer
	tm = e.NewTimer(func() {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			tm.Reset(time.Millisecond)
		}
	})
	for d := 10; d > 0; d-- {
		tm.Reset(time.Duration(d) * time.Millisecond)
		if e.Pending() != 1 {
			t.Fatalf("Pending = %d after re-arming, want 1", e.Pending())
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[T+1ms T+2ms T+3ms]" || e.EventsFired() != 3 {
		t.Fatalf("fired at %v (%d events), want 1, 2, 3 ms", fired, e.EventsFired())
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired timer reported a pending event")
	}
	tm.Reset(time.Second)
	if !tm.Stop() || e.Pending() != 0 {
		t.Fatal("Stop did not withdraw the armed event")
	}
}

// TestHandoffAllocs pins that handing control between threads and the
// runner allocates nothing, whether a thread sleeps or is woken through
// a wait queue: each thread owns its wake slot and coroutine, and a
// refilled queue reuses its backing array.  Each 1 µs RunFor slice
// wakes both threads once and returns to the runner.
func TestHandoffAllocs(t *testing.T) {
	for name, setup := range map[string]func(*Engine){
		"Sleep": func(e *Engine) {
			for _, n := range []string{"a", "b"} {
				e.Go(n, func(th *Thread) {
					for {
						th.Sleep(time.Microsecond)
					}
				})
			}
		},
		"WaitQueue": func(e *Engine) {
			qa, qb := NewWaitQueue(e, "qa"), NewWaitQueue(e, "qb")
			e.Go("a", func(th *Thread) {
				for {
					th.Sleep(time.Microsecond)
					qb.Wake(1)
					qa.Wait(th)
				}
			})
			e.Go("b", func(th *Thread) {
				for {
					qb.Wait(th)
					qa.Wake(1)
				}
			})
		},
	} {
		e := NewEngine(1)
		setup(e)
		handoff := func() {
			if err := e.RunFor(time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			handoff() // start both threads
		}
		if n := testing.AllocsPerRun(1000, handoff); n != 0 {
			t.Errorf("%s ping-pong: %v allocations per 1 µs slice, want 0", name, n)
		}
		e.Shutdown()
	}
}

// TestShutdownLeavesNoGoroutines pins that every virtual thread's
// coroutine ends by Shutdown, whatever it was doing: sleeping,
// suspended mid-sleep, waiting on a queue, never started, or killed by
// another running thread (a nested resume inside that thread's turn).
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	e.Go("sleeper", func(th *Thread) { th.Sleep(time.Hour) })
	frozen := e.Go("frozen", func(th *Thread) { th.Sleep(time.Hour) })
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("waiter%d", i), func(th *Thread) { q.Wait(th) })
	}
	unstarted := e.GoAfter(time.Hour, "unstarted", func(th *Thread) {})
	victim := e.Go("victim", func(th *Thread) { q.Wait(th) })
	e.GoAfter(time.Millisecond, "killer", func(th *Thread) {
		frozen.Suspend()
		unstarted.Kill()
		victim.Kill()
		if !victim.Dead() {
			t.Error("victim survived a kill from a running thread")
		}
		q.Wait(th)
	})
	e.Schedule(2*time.Millisecond, e.Stop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveThreads(); got != 6 {
		t.Fatalf("live threads before Shutdown = %d, want 6", got)
	}
	e.Shutdown()
	noGoroutinesLeft(t, base)
}

// noGoroutinesLeft fails unless the goroutine count is back at base.
// A coroutine's goroutine is gone as soon as the coroutine ends, so the
// count is checked at once, without waiting.
func noGoroutinesLeft(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Shutdown, baseline %d", n, base)
	}
}

// TestKillFromFiringCallback pins that an event callback that kills a
// parked thread, whether a Schedule or a Timer callback, unwinds the
// victim before Kill returns: its deferred functions run before the
// rest of the callback, which already sees it dead.
func TestKillFromFiringCallback(t *testing.T) {
	for name, at := range map[string]func(e *Engine, d time.Duration, fn func()){
		"Schedule": (*Engine).Schedule,
		"Timer":    func(e *Engine, d time.Duration, fn func()) { e.NewTimer(fn).Reset(d) },
	} {
		base := runtime.NumGoroutine()
		e := NewEngine(1)
		q := NewWaitQueue(e, "q")
		var log []string
		var victim *Thread
		victim = e.Go("victim", func(th *Thread) {
			defer func() { log = append(log, "victim's deferred functions") }()
			q.Wait(th)
			t.Errorf("%s: victim woke normally", name)
		})
		at(e, time.Millisecond, func() {
			log = append(log, "kill")
			victim.Kill()
			log = append(log, fmt.Sprintf("rest of callback dead=%v", victim.Dead()))
		})
		e.Schedule(time.Millisecond, func() {
			log = append(log, fmt.Sprintf("next event dead=%v", victim.Dead()))
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: Run = %v", name, err)
		}
		want := "[kill victim's deferred functions rest of callback dead=true next event dead=true]"
		if got := fmt.Sprint(log); got != want {
			t.Errorf("%s: order %v, want %v", name, got, want)
		}
		e.Shutdown()
		noGoroutinesLeft(t, base)
	}
}

// TestCallbackPanicForwarded pins that a panic in an event callback,
// fired by the runner while a thread is parked, reaches the caller of
// RunFor with its original value, and leaves the engine able to shut
// down.
func TestCallbackPanicForwarded(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	parked := e.Go("parked", func(th *Thread) { q.Wait(th) })
	boom := errors.New("boom")
	e.Schedule(time.Millisecond, func() {
		if e.Current() != nil {
			t.Errorf("callback fired with %s current, want none", e.Current().Name())
		}
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.RunFor(time.Second)
		return nil
	}()
	if got != boom {
		t.Fatalf("RunFor panicked with %v, want the callback's value %v", got, boom)
	}
	e.Shutdown()
	if !parked.Dead() {
		t.Fatal("Shutdown left the parked thread alive")
	}
	noGoroutinesLeft(t, base)
}

// TestGoexitInBodyEndsRunner pins what a thread body's runtime.Goexit
// (testing.T's FailNow) does: it passes out of the thread's coroutine to
// the runner, whose goroutine exits through its deferred functions
// instead of hanging, and RunFor never returns.
func TestGoexitInBodyEndsRunner(t *testing.T) {
	e := NewEngine(1)
	e.Go("goexit", func(*Thread) { runtime.Goexit() })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = e.RunFor(time.Second)
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the runner's goroutine hung after a thread body called runtime.Goexit")
	}
	if returned {
		t.Fatal("RunFor returned after a thread body called runtime.Goexit")
	}
}

// TestWaitQueueDropsRemovedWaiters pins that a long-lived queue keeps
// no reference to a thread removed from it by timeout, interrupt or
// kill, and that no dead thread keeps its body or its coroutine, so
// nothing pins a dead thread or the state its closures reference.
func TestWaitQueueDropsRemovedWaiters(t *testing.T) {
	e := NewEngine(1)
	q := NewWaitQueue(e, "q")
	var ths []*Thread
	for i, d := range []time.Duration{time.Hour, time.Hour, time.Millisecond} {
		d := d
		ths = append(ths, e.Go(fmt.Sprintf("w%d", i), func(th *Thread) { q.WaitTimeout(th, d) }))
	}
	ths = append(ths, e.GoAfter(time.Hour, "unstarted", func(th *Thread) {}))
	// Each removal takes the last waiter: w2 by its timeout, w1 by
	// interrupt, w0 by kill.
	e.Schedule(2*time.Millisecond, func() { ths[1].Interrupt() })
	e.Schedule(3*time.Millisecond, func() {
		ths[0].Kill()
		ths[3].Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(time.Hour) {
		t.Fatalf("run ended at %v, want the unstarted thread's start at 1h", e.Now())
	}
	for _, w := range q.waiters[:cap(q.waiters)] {
		if w != nil {
			t.Errorf("queue's backing array still holds %s", w.name)
		}
	}
	for _, th := range ths {
		if !th.Dead() || th.body != nil || th.run != nil {
			t.Errorf("%s: dead=%v, body retained=%v, coroutine retained=%v",
				th.name, th.Dead(), th.body != nil, th.run != nil)
		}
	}
}

// TestDeterminism runs a mildly chaotic workload twice and requires
// identical traces.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var trace []string
		q := NewWaitQueue(e, "q")
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("t%d", i)
			e.Go(name, func(th *Thread) {
				for j := 0; j < 5; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					th.Sleep(d)
					trace = append(trace, fmt.Sprintf("%s@%d", name, th.Now()))
					if e.Rand().Intn(2) == 0 {
						q.WakeAll()
					} else if e.Rand().Intn(3) == 0 {
						q.WaitTimeout(th, 100*time.Microsecond)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("traces differ between runs")
	}
}

// Property: for any set of sleep durations, every thread wakes exactly
// at its requested instant, and threads with equal deadlines wake in
// spawn order.
func TestSleepWakeProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		e := NewEngine(7)
		type rec struct {
			idx int
			at  Time
		}
		var woke []rec
		for i, r := range raw {
			i, d := i, time.Duration(r)*time.Microsecond
			e.Go(fmt.Sprintf("t%d", i), func(th *Thread) {
				th.Sleep(d)
				woke = append(woke, rec{i, th.Now()})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(woke) != len(raw) {
			return false
		}
		for k, w := range woke {
			if w.at != Time(time.Duration(raw[w.idx])*time.Microsecond) {
				return false
			}
			if k > 0 {
				p := woke[k-1]
				if w.at < p.at || (w.at == p.at && w.idx < p.idx) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
