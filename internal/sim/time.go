// Package sim implements a deterministic, process-oriented
// discrete-event simulator.
//
// The simulator advances a virtual clock by firing events from a
// priority queue ordered by (time, sequence number).  "Processes" in
// the DES sense are virtual threads (Thread): ordinary Go functions,
// each run as a coroutine and scheduled cooperatively so that exactly
// one context — a thread or the runner, the goroutine that called Run
// — holds control at any moment.  Only the runner fires events; when
// one wakes a thread, the runner resumes that thread's coroutine until
// it parks again, so a wake costs two coroutine switches and no pass
// through the Go scheduler.  All simulation state may therefore be
// mutated without locks, and a given program produces a bit-identical
// event trace on every run.
//
// Virtual threads block on wait queues (WaitQueue), sleep for virtual
// durations, and can be suspended and resumed by other threads; a
// suspended thread makes no progress, defers any wakeups delivered to
// it, and preserves the unexpired remainder of an interrupted sleep.
// These semantics mirror signal-based thread suspension in a real
// operating system and are relied upon by the checkpointing layers
// built on top of this package.
//
// Every recurring deadline has one owner holding one pending event:
// a Timer for a resource scheduler's next completion, a wake slot for
// each thread.  Re-arming moves that event within the queue and
// cancelling withdraws it, so superseded deadlines never fire.  Live
// events keep the order they would have if each re-arm queued a fresh
// event and stale ones were skipped.  EventsFired and MaxEvents
// therefore count live events only, and DeadlockError.At is the time
// of the last live event.
//
// A blocking charge (a Sleep, or a CPU charge through
// Thread.ServeInPlace) that no other pending event falls due before
// is served in place: the running thread moves the clock to the
// charge's end itself instead of parking, and counts the events its
// parked twin would have fired.  Nothing else can run in between, so
// every virtual output, EventsFired included, is the same either way.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start
// of the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration returns t as a duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string {
	return fmt.Sprintf("T+%s", time.Duration(t))
}
