package kernel

import (
	"math"
	"time"

	"repro/internal/sim"
)

// cpuEpsilon is the residual core-seconds below which a compute job is
// considered finished.
const cpuEpsilon = 1e-9

// CPUSched is the per-node core scheduler: a virtual-time model of the
// node's CPUs that makes concurrent Task.Compute charges contend for
// cores instead of each getting a free dedicated processor.
//
// The model is generalized processor sharing with a per-job cap of one
// core: while the number of runnable compute jobs is at most
// Node.Cores, every job progresses at full rate (one core-second of
// work per wall second); once the node is oversubscribed, the cores
// are shared equally and every charge dilates by jobs/cores.  Jobs
// whose thread is suspended (checkpointed user threads, stopped
// processes) release their share for the duration — a frozen thread
// burns no cycles.
//
// This is what makes the paper's §5.3 observation — "compression runs
// in parallel and may slow down the user process" — an emergent effect
// rather than a constant slowdown factor: a forked
// checkpoint writer's compression jobs and the application's compute
// loop dilate one another exactly when they oversubscribe the node.
//
// A charge that no other event can interrupt is served in place (Run):
// the charging thread moves the clock to its completion itself instead
// of parking behind the completion event and its wake.  That is exact
// because core shares change only at events: an arrival, a completion,
// a suspension or a speed change.  If no other event is due before the
// charge's completion and no other job finishes with it, the rates
// hold throughout, and integrating every job at the completion instant
// is what the completion event would do.
type CPUSched struct {
	node  *Node
	cores int
	// speed scales every core's service rate: 1 is nominal, 0.5 is a
	// node running at half clock (thermal throttling, a failing DIMM
	// forcing ECC retries, a noisy co-tenant outside the simulation).
	// Cluster.SlowNode sets it for straggler fault injection.
	speed float64

	jobs   []*cpuJob
	lastAt sim.Time
	next   *sim.Timer // the one pending completion event
}

// cpuJob is one task's compute charge.  Each task owns one, made on
// its first Compute and reused by every later one.
type cpuJob struct {
	remaining float64 // core-seconds of work left
	paused    bool    // owning thread suspended: no core share
	finished  bool
	done      *sim.WaitQueue // the parked task waits here
	hook      func(bool)     // the task's suspend hook while it computes
}

func newCPUSched(n *Node, cores int) *CPUSched {
	cs := &CPUSched{node: n, cores: cores, speed: 1}
	cs.next = n.Cluster.Eng.NewTimer(cs.step)
	return cs
}

// job returns t's reusable compute job, making it on first use.
func (cs *CPUSched) job(t *Task) *cpuJob {
	if j := t.cpu; j != nil {
		return j
	}
	j := &cpuJob{done: sim.NewWaitQueue(cs.node.Cluster.Eng, cs.node.Hostname+".cpu")}
	j.hook = func(suspended bool) {
		cs.advance()
		j.paused = suspended
		cs.reschedule()
	}
	t.cpu = j
	return j
}

// Speed returns the node's current core-rate factor (1 is nominal).
func (cs *CPUSched) Speed() float64 { return cs.speed }

// SetSpeed changes the node's core-rate factor.  Progress accrued at
// the old rate is integrated first, then the single pending completion
// event is re-armed at the new rate, so in-flight compute charges
// dilate (or contract) from this instant without losing work already
// done.
func (cs *CPUSched) SetSpeed(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	cs.advance()
	cs.speed = factor
	cs.reschedule()
}

// Cores returns the number of cores the scheduler models (0 means
// accounting is disabled and charges never contend).
func (cs *CPUSched) Cores() int { return cs.cores }

// Runnable returns the number of compute jobs currently holding a core
// share.
func (cs *CPUSched) Runnable() int {
	n := 0
	for _, j := range cs.jobs {
		if !j.paused {
			n++
		}
	}
	return n
}

// IdleCores returns how many of the node's cores are not claimed by a
// runnable compute job right now, never reporting below one: even a
// fully loaded node can run one worker (it just shares).  This is the
// signal adaptive worker sizing reads — a checkpoint or restore pool
// sized from it uses every core of an idle node and stays out of the
// way of a busy one.  With core accounting disabled it returns 1.
func (cs *CPUSched) IdleCores() int {
	if cs.cores <= 0 {
		return 1
	}
	idle := cs.cores - cs.Runnable()
	if idle < 1 {
		idle = 1
	}
	return idle
}

// rate returns the per-job service rate in core-seconds per second,
// scaled by the node's speed factor.
func (cs *CPUSched) rate() float64 {
	k := cs.Runnable()
	if k == 0 {
		return 0
	}
	if k <= cs.cores {
		return cs.speed
	}
	return cs.speed * float64(cs.cores) / float64(k)
}

// served returns the core-seconds each runnable job is served from
// lastAt to at at the current rate.  The product is rounded to a
// float64 here, so advance and the in-place check in Run subtract the
// very same amount.
func (cs *CPUSched) served(at sim.Time) float64 {
	dt := at.Sub(cs.lastAt).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(dt * cs.rate())
}

// advance integrates job progress from lastAt to now.  Callers must
// have arranged that no rate change occurred strictly inside the
// interval: every change of the runnable set calls advance first and
// then reschedule, which moves the completion timer.
func (cs *CPUSched) advance() {
	now := cs.node.Cluster.Eng.Now()
	w := cs.served(now)
	cs.lastAt = now
	if w == 0 {
		return
	}
	for _, j := range cs.jobs {
		if !j.paused {
			j.remaining -= w
		}
	}
}

// nextDone returns the delay from now until the next job finishes at
// the current rate, or false when no job is runnable.
func (cs *CPUSched) nextDone() (time.Duration, bool) {
	r := cs.rate()
	if r == 0 {
		return 0, false
	}
	minRem := math.Inf(1)
	for _, j := range cs.jobs {
		if !j.paused && j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if math.IsInf(minRem, 1) {
		return 0, false
	}
	var d time.Duration
	if minRem > cpuEpsilon {
		d = time.Duration(math.Ceil(minRem / r * float64(time.Second)))
		if d <= 0 {
			d = 1
		}
	}
	return d, true
}

// reschedule moves the completion timer to the instant the next job
// finishes at the current rate, or stops it when no job is runnable.
func (cs *CPUSched) reschedule() {
	if d, ok := cs.nextDone(); ok {
		cs.next.Reset(d)
	} else {
		cs.next.Stop()
	}
}

// step advances progress, completes finished jobs, and re-arms.
func (cs *CPUSched) step() {
	cs.advance()
	live := cs.jobs[:0]
	for _, j := range cs.jobs {
		if !j.paused && j.remaining <= cpuEpsilon {
			j.finished = true
			j.done.WakeAll()
		} else {
			live = append(live, j)
		}
	}
	clear(cs.jobs[len(live):]) // the backing array must not pin finished jobs
	cs.jobs = live
	cs.reschedule()
}

// remove drops a job that will not complete (its thread was killed
// mid-compute).
func (cs *CPUSched) remove(job *cpuJob) {
	for i, j := range cs.jobs {
		if j == job {
			n := len(cs.jobs) - 1
			copy(cs.jobs[i:], cs.jobs[i+1:])
			cs.jobs[n] = nil // the backing array must not pin job
			cs.jobs = cs.jobs[:n]
			return
		}
	}
}

// soleCompletion returns the instant the completion event would fire
// now that job j has joined, and whether that event would finish j and
// no other job.  It computes both exactly as reschedule and step
// would.
func (cs *CPUSched) soleCompletion(j *cpuJob) (sim.Time, bool) {
	d, ok := cs.nextDone()
	if !ok {
		return 0, false
	}
	at := cs.node.Cluster.Eng.Now().Add(d)
	w := cs.served(at)
	for _, o := range cs.jobs {
		if !o.paused && (o.remaining-w <= cpuEpsilon) != (o == j) {
			return 0, false
		}
	}
	return at, true
}

// Run charges d of core time to task t, blocking it until the work has
// been served under the node's core-sharing discipline.  With core
// accounting disabled (cores <= 0) it degrades to a plain virtual-time
// sleep.
//
// The charge is served in place when the completion event it arms
// would finish it alone and nothing else is due first (see
// sim.Thread.ServeInPlace): the task moves the clock to that instant,
// and step runs there as the event would, integrating and re-arming
// the node's other jobs.  Otherwise the task parks until step wakes
// it.
func (cs *CPUSched) Run(t *Task, d time.Duration) {
	if d <= 0 {
		return
	}
	th := t.T
	if cs.cores <= 0 {
		if cs.speed > 0 && cs.speed != 1 {
			d = time.Duration(float64(d) / cs.speed)
		}
		th.Sleep(d)
		return
	}
	cs.advance()
	j := cs.job(t)
	j.remaining, j.finished = d.Seconds(), false
	cs.jobs = append(cs.jobs, j)
	// Parked, the charge arms the completion event, which fires and
	// then fires the task's wake: two events.
	if at, ok := cs.soleCompletion(j); ok && th.ServeInPlace(at, 2, cs.next) {
		cs.step()
		return
	}
	th.SetSuspendHook(j.hook)
	defer func() {
		th.SetSuspendHook(nil)
		if !j.finished {
			// Thread killed mid-compute: release the core share.
			cs.advance()
			cs.remove(j)
			cs.reschedule()
		}
	}()
	cs.reschedule()
	for !j.finished {
		j.done.Wait(th)
	}
}
