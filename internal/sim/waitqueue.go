package sim

import "time"

// WaitQueue is a FIFO queue of blocked threads — the simulation
// analogue of a kernel wait queue / condition variable.  As with
// condition variables, waiters must re-check their condition in a
// loop: a wakeup only means the condition may have changed.
type WaitQueue struct {
	eng     *Engine
	name    string
	waiters []*Thread
}

// NewWaitQueue returns an empty wait queue; name appears in deadlock
// reports.
func NewWaitQueue(e *Engine, name string) *WaitQueue {
	return &WaitQueue{eng: e, name: name}
}

// Name returns the queue's diagnostic name.
func (q *WaitQueue) Name() string { return q.name }

// Len returns the number of threads currently parked on the queue.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Wait parks t on the queue until woken, returning the wake reason.
func (q *WaitQueue) Wait(t *Thread) WakeReason {
	t.assertCurrent("WaitQueue.Wait")
	q.enqueue(t)
	t.park()
	t.state = stateRunning
	t.waitingOn = nil
	return t.wakeReason
}

// WaitTimeout parks t until woken or until virtual duration d passes;
// the returned reason is WakeTimeout if the deadline expired first.
func (q *WaitQueue) WaitTimeout(t *Thread, d time.Duration) WakeReason {
	t.assertCurrent("WaitQueue.WaitTimeout")
	q.enqueue(t)
	t.armTimer(d)
	t.park()
	t.state = stateRunning
	t.waitingOn = nil
	return t.wakeReason
}

func (q *WaitQueue) enqueue(t *Thread) {
	t.state = stateWaiting
	t.waitingOn = q
	q.waiters = append(q.waiters, t)
}

// Wake removes up to n threads from the front of the queue and
// schedules them to run.  It returns how many were woken.  Note that a
// suspended waiter consumes a wakeup and defers it until Resume; code
// that must not lose wakeups should use WakeAll.
func (q *WaitQueue) Wake(n int) int {
	if n > len(q.waiters) {
		n = len(q.waiters)
	}
	if n <= 0 {
		return 0
	}
	for _, t := range q.waiters[:n] {
		t.waitingOn = nil
		t.scheduleWake(WakeSignal)
	}
	// Shift the remaining waiters down in place, so a queue that keeps
	// refilling reuses its backing array.
	m := copy(q.waiters, q.waiters[n:])
	clear(q.waiters[m:])
	q.waiters = q.waiters[:m]
	return n
}

// WakeAll wakes every thread parked on the queue and returns how many
// there were.
func (q *WaitQueue) WakeAll() int { return q.Wake(len(q.waiters)) }

// remove deletes t from the queue if present (used by timeout,
// interrupt, and kill delivery).
func (q *WaitQueue) remove(t *Thread) {
	for i, w := range q.waiters {
		if w == t {
			n := len(q.waiters) - 1
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters[n] = nil // the backing array must not pin t
			q.waiters = q.waiters[:n]
			break
		}
	}
	if t.waitingOn == q {
		t.waitingOn = nil
	}
}
