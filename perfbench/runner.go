package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	dmtcpsim "repro"
)

// Guards bounding one cluster's drive whatever the simulation does.  A
// wedged scenario keeps firing heartbeats forever and its coordinator
// journal keeps growing, so besides the virtual deadline the drive
// checks host time and live heap between slices.  Between slices the
// host clock also samples the machine's speed (calibrate.go).
const (
	driveSlice   = 100 * time.Millisecond // virtual time advanced between checks
	hostBudget   = 60 * time.Second       // host time one cluster may take
	heapLimit    = 1 << 30                // live heap bytes before a drive is cut
	shutdownWait = 10 * time.Second
)

// drive runs fn as a task on node 0 of s and advances the engine one
// slice at a time until fn returns.  It returns why the drive was cut
// short, or nil when fn returned: a missed virtual deadline, the
// host-time or heap guard, a simulation error, or a recovered panic.
// drive never panics, and it kills every virtual thread of s before it
// returns.
func drive(s *dmtcpsim.Sim, deadline time.Duration, fn func(*dmtcpsim.Task)) (cut error) {
	done := false
	s.C.RegisterFunc("bench-scenario", func(t *dmtcpsim.Task, _ []string) {
		t.Idle(2 * time.Millisecond) // let daemons come up
		fn(t)
		done = true
		s.Eng.Stop()
	})
	defer func() {
		if r := recover(); r != nil {
			cut = fmt.Errorf("panic: %v", r)
		}
		shutdown(s)
	}()
	if _, err := s.C.Node(0).Kern.Spawn("bench-scenario", nil, nil); err != nil {
		return fmt.Errorf("spawn scenario task: %w", err)
	}
	start, end := time.Now(), s.Eng.Now().Add(deadline)
	for !done {
		switch {
		case s.Eng.Now() >= end:
			return fmt.Errorf("virtual deadline of %v passed before the scenario returned", deadline)
		case time.Since(start) > hostBudget:
			return fmt.Errorf("host budget of %v spent by virtual %v", hostBudget, s.Eng.Now())
		case readMetric("/memory/classes/heap/objects:bytes") > heapLimit:
			return fmt.Errorf("live heap over %d MB by virtual %v", heapLimit>>20, s.Eng.Now())
		case s.Eng.Stopped():
			return errors.New("engine stopped before the scenario returned")
		}
		if err := s.Eng.RunFor(driveSlice); err != nil {
			return fmt.Errorf("simulation: %w", err)
		}
		clock.tick()
	}
	return nil
}

// shutdown kills the simulation's virtual threads so their goroutines
// exit.  A panic inside an event can leave the engine mid-handoff; the
// wait is then abandoned rather than hanging the benchmark, and the
// panic it raises is dropped because the drive already reported one.
func shutdown(s *dmtcpsim.Sim) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { _ = recover() }()
		s.Eng.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(shutdownWait):
	}
}

// catch runs fn and returns a panic it raised as an error.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// readMetric reads one cumulative or gauge runtime metric in bytes.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
