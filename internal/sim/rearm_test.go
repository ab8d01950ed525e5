package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The engine re-arms a Timer or a thread's wake slot in place.  The
// reference model below keeps the older semantics it replaced: every
// arm queues a fresh event tagged with its owner's generation, and an
// event whose generation has moved on fires as a skipped no-op.  A
// seeded random mix of operations must log the same (virtual time,
// action) sequence under both, fire the same number of live events,
// and end at the same instant.

const (
	eqThreads = 4 // the last one starts late, so it can die unstarted
	eqQueues  = 2
	eqTimers  = 2
)

type opKind int

const (
	opSleep opKind = iota
	opWait
	opWaitTimeout
	opWake
	opWakeAll
	opSuspend
	opResume
	opInterrupt
	opKill
	opSchedule
	opReset
	opStop
	opStopReset
)

// op is one step of a thread program, one action of a timer callback,
// or one engine event.  Only threads run the three blocking kinds.
type op struct {
	kind   opKind
	d      time.Duration
	q, n   int // queue; Wake count
	target int // thread or timer
	sub    *op // opSchedule: what the event does
}

func (o op) String() string {
	switch o.kind {
	case opSleep:
		return fmt.Sprintf("sleep %v", o.d)
	case opWait:
		return fmt.Sprintf("wait q%d", o.q)
	case opWaitTimeout:
		return fmt.Sprintf("wait q%d for %v", o.q, o.d)
	case opWake:
		return fmt.Sprintf("wake q%d n%d", o.q, o.n)
	case opWakeAll:
		return fmt.Sprintf("wakeall q%d", o.q)
	case opSuspend:
		return fmt.Sprintf("suspend t%d", o.target)
	case opResume:
		return fmt.Sprintf("resume t%d", o.target)
	case opInterrupt:
		return fmt.Sprintf("interrupt t%d", o.target)
	case opKill:
		return fmt.Sprintf("kill t%d", o.target)
	case opSchedule:
		return fmt.Sprintf("schedule +%v {%v}", o.d, *o.sub)
	case opReset:
		return fmt.Sprintf("reset k%d +%v", o.target, o.d)
	case opStop:
		return fmt.Sprintf("stop k%d", o.target)
	default:
		return fmt.Sprintf("stop+reset k%d +%v", o.target, o.d)
	}
}

// script is one seeded workload.
type script struct {
	threads [][]op          // each thread's program
	late    time.Duration   // start delay of the last thread
	timers  [][]op          // action taken by each firing of each timer
	arm     []time.Duration // initial Reset of each timer; <0: none
	events  []op            // opSchedule ops issued before Run
}

func genScript(rng *rand.Rand) script {
	// Microsecond steps in a small range make same-instant ties common,
	// which is where sequence order matters.
	dur := func() time.Duration { return time.Duration(rng.Intn(5)) * time.Microsecond }
	var ctl func(self, timer, depth int) op
	ctl = func(self, timer, depth int) op {
		for {
			th := rng.Intn(eqThreads)
			k := rng.Intn(eqTimers)
			if timer >= 0 && rng.Intn(2) == 0 {
				k = timer // re-arm the timer whose callback this is
			}
			switch r := rng.Intn(100); {
			case r < 18:
				return op{kind: opWake, q: rng.Intn(eqQueues), n: 1 + rng.Intn(2)}
			case r < 26:
				return op{kind: opWakeAll, q: rng.Intn(eqQueues)}
			case r < 36:
				if th != self {
					return op{kind: opSuspend, target: th}
				}
			case r < 48:
				return op{kind: opResume, target: th}
			case r < 58:
				return op{kind: opInterrupt, target: th}
			case r < 62:
				if th != self {
					return op{kind: opKill, target: th}
				}
			case r < 72:
				if depth < 2 {
					sub := ctl(-1, -1, depth+1)
					return op{kind: opSchedule, d: dur(), sub: &sub}
				}
			case r < 86:
				return op{kind: opReset, target: k, d: dur()}
			case r < 93:
				return op{kind: opStop, target: k}
			default:
				return op{kind: opStopReset, target: k, d: dur()}
			}
		}
	}
	var sc script
	for i := 0; i < eqThreads; i++ {
		var prog []op
		for n := 4 + rng.Intn(8); len(prog) < n; {
			switch r := rng.Intn(100); {
			case r < 20:
				prog = append(prog, op{kind: opSleep, d: dur()})
			case r < 38:
				prog = append(prog, op{kind: opWaitTimeout, q: rng.Intn(eqQueues), d: dur()})
			case r < 50:
				prog = append(prog, op{kind: opWait, q: rng.Intn(eqQueues)})
			default:
				prog = append(prog, ctl(i, -1, 0))
			}
		}
		sc.threads = append(sc.threads, prog)
	}
	sc.late = 2 * dur()
	for k := 0; k < eqTimers; k++ {
		var acts []op
		for n := rng.Intn(5); len(acts) < n; {
			acts = append(acts, ctl(-1, k, 0))
		}
		sc.timers = append(sc.timers, acts)
		arm := time.Duration(-1)
		if rng.Intn(10) < 7 {
			arm = dur()
		}
		sc.arm = append(sc.arm, arm)
	}
	for n := 3 + rng.Intn(6); len(sc.events) < n; {
		sub := ctl(-1, -1, 1)
		sc.events = append(sc.events, op{kind: opSchedule, d: 2 * dur(), sub: &sub})
	}
	return sc
}

func who(self int) string {
	if self < 0 {
		return "engine"
	}
	return fmt.Sprintf("t%d", self)
}

// outcome is what one run of a script produced.
type outcome struct {
	log   []string
	fired uint64
	end   string
}

// runEngine runs sc on the engine under test.
func runEngine(sc script) outcome {
	e := NewEngine(1)
	var out outcome
	rec := func(format string, a ...any) {
		out.log = append(out.log, fmt.Sprintf("%d %s", e.Now(), fmt.Sprintf(format, a...)))
	}
	qs := make([]*WaitQueue, eqQueues)
	for i := range qs {
		qs[i] = NewWaitQueue(e, fmt.Sprintf("q%d", i))
	}
	threads := make([]*Thread, eqThreads)
	started := make([]bool, eqThreads)
	timers := make([]*Timer, eqTimers)

	var exec func(o op, self int)
	exec = func(o op, self int) {
		switch o.kind {
		case opWake:
			rec("%s %v → %d", who(self), o, qs[o.q].Wake(o.n))
			return
		case opWakeAll:
			rec("%s %v → %d", who(self), o, qs[o.q].WakeAll())
			return
		case opStop:
			rec("%s %v → %v", who(self), o, timers[o.target].Stop())
			return
		}
		rec("%s %v", who(self), o)
		switch o.kind {
		case opSuspend, opResume, opInterrupt:
			if !started[o.target] {
				return // these address running programs only
			}
			th := threads[o.target]
			switch o.kind {
			case opSuspend:
				th.Suspend()
			case opResume:
				th.Resume()
			default:
				th.Interrupt()
			}
		case opKill:
			threads[o.target].Kill()
		case opSchedule:
			sub := *o.sub
			e.Schedule(o.d, func() { exec(sub, -1) })
		case opReset:
			timers[o.target].Reset(o.d)
		case opStopReset:
			timers[o.target].Stop()
			timers[o.target].Reset(o.d)
		}
	}
	for k := range timers {
		k, acts, fires := k, sc.timers[k], 0
		timers[k] = e.NewTimer(func() {
			rec("k%d fires", k)
			if fires < len(acts) {
				fires++
				exec(acts[fires-1], -1)
			}
		})
	}
	body := func(i int) func(*Thread) {
		return func(th *Thread) {
			started[i] = true
			rec("t%d start", i)
			defer rec("t%d exit", i)
			for _, o := range sc.threads[i] {
				switch o.kind {
				case opSleep:
					rec("t%d %v", i, o)
					th.Sleep(o.d)
					rec("t%d slept intr=%v", i, th.ClearInterrupt())
				case opWait:
					rec("t%d %v", i, o)
					r := qs[o.q].Wait(th)
					rec("t%d %v intr=%v", i, r, th.ClearInterrupt())
				case opWaitTimeout:
					rec("t%d %v", i, o)
					r := qs[o.q].WaitTimeout(th, o.d)
					rec("t%d %v intr=%v", i, r, th.ClearInterrupt())
				default:
					exec(o, i)
				}
			}
		}
	}
	for i := range threads {
		name := fmt.Sprintf("t%d", i)
		if i == eqThreads-1 {
			threads[i] = e.GoAfter(sc.late, name, body(i))
		} else {
			threads[i] = e.Go(name, body(i))
		}
	}
	for k, d := range sc.arm {
		if d >= 0 {
			timers[k].Reset(d)
		}
	}
	for _, o := range sc.events {
		exec(o, -1)
	}
	err := e.Run()
	var dl *DeadlockError
	switch {
	case errors.As(err, &dl):
		out.end = fmt.Sprintf("deadlock at %d with %d threads", dl.At, len(dl.Threads))
	case err != nil:
		out.end = err.Error()
	default:
		out.end = fmt.Sprintf("done at %d", e.Now())
	}
	out.fired = e.EventsFired()
	e.Shutdown()
	return out
}

// The reference model: the same operations over a generation-guarded
// event list, with virtual threads as explicit state machines.

type refEvent struct {
	at   Time
	seq  uint64
	live func() bool // nil: always live
	fn   func()
}

type refThread struct {
	id      int
	prog    []op
	pc      int
	blocked *op // the blocking op it is parked in
	state   threadState
	gen     uint64

	started, killed, suspended bool
	pendingWake, interrupted   bool
	pendingReason, wakeReason  WakeReason
	sleepRemainder             time.Duration
	sleepUntil                 Time
	waitingOn                  *refQueue
}

type refQueue struct{ waiters []*refThread }

type refTimer struct {
	gen   uint64
	armed bool
	acts  []op
	fires int
}

type refModel struct {
	now, lastLive Time
	seq           uint64
	events        []*refEvent
	fired         uint64 // live events only
	threads       []*refThread
	queues        []*refQueue
	timers        []*refTimer
	out           outcome
}

func (m *refModel) rec(format string, a ...any) {
	m.out.log = append(m.out.log, fmt.Sprintf("%d %s", m.now, fmt.Sprintf(format, a...)))
}

func (m *refModel) schedule(d time.Duration, live func() bool, fn func()) {
	m.seq++
	m.events = append(m.events, &refEvent{at: m.now.Add(d), seq: m.seq, live: live, fn: fn})
}

// run fires events in (at, seq) order; stale ones advance the clock
// and do nothing else.
func (m *refModel) run() {
	for len(m.events) > 0 {
		first := 0
		for i, ev := range m.events {
			if f := m.events[first]; ev.at < f.at || (ev.at == f.at && ev.seq < f.seq) {
				first = i
			}
		}
		ev := m.events[first]
		m.events = append(m.events[:first], m.events[first+1:]...)
		m.now = ev.at
		if ev.live != nil && !ev.live() {
			continue
		}
		m.fired++
		m.lastLive = m.now
		ev.fn()
	}
}

func (q *refQueue) remove(t *refThread) {
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			break
		}
	}
	if t.waitingOn == q {
		t.waitingOn = nil
	}
}

func (m *refModel) wake(q *refQueue, n int) int {
	woken := 0
	for woken < n && len(q.waiters) > 0 {
		t := q.waiters[0]
		q.waiters = q.waiters[1:]
		t.waitingOn = nil
		m.scheduleWake(t, WakeSignal)
		woken++
	}
	return woken
}

func (m *refModel) armTimer(t *refThread, d time.Duration) {
	t.gen++
	g := t.gen
	m.schedule(d, func() bool { return t.gen == g }, func() { m.deliverWake(t, WakeTimeout) })
}

func (m *refModel) scheduleWake(t *refThread, reason WakeReason) {
	t.gen++
	g := t.gen
	t.state = stateReady
	m.schedule(0, func() bool { return t.gen == g }, func() { m.deliverWake(t, reason) })
}

func (m *refModel) deliverWake(t *refThread, reason WakeReason) {
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
	m.transfer(t)
}

func (t *refThread) clearIntr() bool {
	was := t.interrupted
	t.interrupted = false
	return was
}

// transfer runs a parked thread until it parks again or exits.
func (m *refModel) transfer(t *refThread) {
	t.state = stateRunning
	if t.killed {
		m.rec("t%d exit", t.id)
		t.state = stateDead
		return
	}
	if o := t.blocked; o != nil {
		t.blocked = nil
		if o.kind == opSleep {
			m.rec("t%d slept intr=%v", t.id, t.clearIntr())
		} else {
			t.waitingOn = nil
			m.rec("t%d %v intr=%v", t.id, t.wakeReason, t.clearIntr())
		}
	}
	for t.pc < len(t.prog) {
		o := t.prog[t.pc]
		t.pc++
		switch o.kind {
		case opSleep:
			m.rec("t%d %v", t.id, o)
			t.state = stateSleeping
			t.sleepUntil = m.now.Add(o.d)
			m.armTimer(t, o.d)
		case opWait, opWaitTimeout:
			m.rec("t%d %v", t.id, o)
			q := m.queues[o.q]
			t.state = stateWaiting
			t.waitingOn = q
			q.waiters = append(q.waiters, t)
			if o.kind == opWaitTimeout {
				m.armTimer(t, o.d)
			}
		default:
			m.exec(o, t.id)
			continue
		}
		t.blocked = &o
		return
	}
	m.rec("t%d exit", t.id)
	t.state = stateDead
}

func (m *refModel) suspend(t *refThread) {
	if t.state == stateDead || t.suspended {
		return
	}
	t.suspended = true
	if t.state == stateSleeping {
		if rem := t.sleepUntil.Sub(m.now); rem > 0 {
			t.sleepRemainder = rem
		} else {
			t.pendingWake = true
			t.pendingReason = WakeTimeout
		}
		t.gen++
	}
}

func (m *refModel) resume(t *refThread) {
	if t.state == stateDead || !t.suspended {
		return
	}
	t.suspended = false
	switch {
	case t.pendingWake:
		t.pendingWake = false
		m.scheduleWake(t, t.pendingReason)
	case t.sleepRemainder > 0:
		d := t.sleepRemainder
		t.sleepRemainder = 0
		t.sleepUntil = m.now.Add(d)
		m.armTimer(t, d)
	}
}

func (m *refModel) interrupt(t *refThread) {
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
	m.scheduleWake(t, WakeInterrupt)
}

func (m *refModel) kill(t *refThread) {
	if t.state == stateDead {
		return
	}
	t.killed = true
	t.suspended = false
	t.gen++
	if t.waitingOn != nil {
		t.waitingOn.remove(t)
	}
	if !t.started {
		t.state = stateDead
		return
	}
	m.transfer(t)
}

func (m *refModel) resetTimer(k int, d time.Duration) {
	tm := m.timers[k]
	tm.gen++
	g := tm.gen
	tm.armed = true
	m.schedule(d, func() bool { return tm.gen == g }, func() {
		tm.armed = false
		m.rec("k%d fires", k)
		if tm.fires < len(tm.acts) {
			tm.fires++
			m.exec(tm.acts[tm.fires-1], -1)
		}
	})
}

func (m *refModel) stopTimer(k int) bool {
	tm := m.timers[k]
	was := tm.armed
	tm.gen++
	tm.armed = false
	return was
}

func (m *refModel) exec(o op, self int) {
	switch o.kind {
	case opWake:
		m.rec("%s %v → %d", who(self), o, m.wake(m.queues[o.q], o.n))
		return
	case opWakeAll:
		q := m.queues[o.q]
		m.rec("%s %v → %d", who(self), o, m.wake(q, len(q.waiters)))
		return
	case opStop:
		m.rec("%s %v → %v", who(self), o, m.stopTimer(o.target))
		return
	}
	m.rec("%s %v", who(self), o)
	switch o.kind {
	case opSuspend, opResume, opInterrupt:
		t := m.threads[o.target]
		if !t.started {
			return
		}
		switch o.kind {
		case opSuspend:
			m.suspend(t)
		case opResume:
			m.resume(t)
		default:
			m.interrupt(t)
		}
	case opKill:
		m.kill(m.threads[o.target])
	case opSchedule:
		sub := *o.sub
		m.schedule(o.d, nil, func() { m.exec(sub, -1) })
	case opReset:
		m.resetTimer(o.target, o.d)
	case opStopReset:
		m.stopTimer(o.target)
		m.resetTimer(o.target, o.d)
	}
}

// runModel runs sc on the reference model.
func runModel(sc script) outcome {
	m := &refModel{}
	for i := 0; i < eqQueues; i++ {
		m.queues = append(m.queues, &refQueue{})
	}
	for k := 0; k < eqTimers; k++ {
		m.timers = append(m.timers, &refTimer{acts: sc.timers[k]})
	}
	for i := 0; i < eqThreads; i++ {
		t := &refThread{id: i, prog: sc.threads[i], state: stateReady}
		m.threads = append(m.threads, t)
		d := time.Duration(0)
		if i == eqThreads-1 {
			d = sc.late
		}
		m.schedule(d, nil, func() {
			if t.state == stateDead || t.killed {
				return
			}
			t.started = true
			m.rec("t%d start", t.id)
			m.transfer(t)
		})
	}
	for k, d := range sc.arm {
		if d >= 0 {
			m.resetTimer(k, d)
		}
	}
	for _, o := range sc.events {
		m.exec(o, -1)
	}
	m.run()
	m.now = m.lastLive
	live := 0
	for _, t := range m.threads {
		if t.state != stateDead {
			live++
		}
	}
	if live > 0 {
		m.out.end = fmt.Sprintf("deadlock at %d with %d threads", m.now, live)
	} else {
		m.out.end = fmt.Sprintf("done at %d", m.now)
	}
	m.out.fired = m.fired
	for _, t := range m.threads { // Shutdown, in name order
		m.kill(t)
	}
	return m.out
}

// TestRearmMatchesGenerationModel is the ordering-equivalence check:
// over 1,000 seeds, re-armed timers and wake slots produce exactly the
// (virtual time, action) sequence of fresh generation-guarded events.
func TestRearmMatchesGenerationModel(t *testing.T) {
	var lines, deadlocks int
	for seed := int64(1); seed <= 1000; seed++ {
		sc := genScript(rand.New(rand.NewSource(seed)))
		got, want := runEngine(sc), runModel(sc)
		for i := 0; i < len(got.log) || i < len(want.log); i++ {
			var g, w string
			if i < len(got.log) {
				g = got.log[i]
			}
			if i < len(want.log) {
				w = want.log[i]
			}
			if g != w {
				lo := i - 8
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("seed %d: action %d differs\n engine: %q\n  model: %q\nengine log before it:\n  %v",
					seed, i, g, w, got.log[lo:min(i, len(got.log))])
			}
		}
		if got.end != want.end || got.fired != want.fired {
			t.Fatalf("seed %d: engine ended %q after %d events, model %q after %d live events",
				seed, got.end, got.fired, want.end, want.fired)
		}
		lines += len(got.log)
		if got.end[0] == 'd' && got.end[1] == 'e' {
			deadlocks++
		}
	}
	// The mix must actually exercise blocking and control paths.
	if lines < 20000 || deadlocks == 0 || deadlocks == 1000 {
		t.Fatalf("weak workload: %d actions, %d of 1000 runs ended blocked", lines, deadlocks)
	}
}
