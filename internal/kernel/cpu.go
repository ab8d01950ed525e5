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
	qname  string     // name of each job's completion wait queue
}

type cpuJob struct {
	remaining float64 // core-seconds of work left
	paused    bool    // owning thread suspended: no core share
	finished  bool
	done      *sim.WaitQueue
}

func newCPUSched(n *Node, cores int) *CPUSched {
	cs := &CPUSched{node: n, cores: cores, speed: 1, qname: n.Hostname + ".cpu"}
	cs.next = n.Cluster.Eng.NewTimer(cs.step)
	return cs
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

// advance integrates job progress from lastAt to now.  Callers must
// have arranged that no rate change occurred strictly inside the
// interval: every change of the runnable set calls advance first and
// then reschedule, which moves the completion timer.
func (cs *CPUSched) advance() {
	now := cs.node.Cluster.Eng.Now()
	dt := now.Sub(cs.lastAt).Seconds()
	cs.lastAt = now
	if dt <= 0 {
		return
	}
	r := cs.rate()
	if r == 0 {
		return
	}
	for _, j := range cs.jobs {
		if !j.paused {
			j.remaining -= dt * r
		}
	}
}

// reschedule moves the completion timer to the instant the next job
// finishes at the current rate, or stops it when no job is runnable.
func (cs *CPUSched) reschedule() {
	r := cs.rate()
	if r == 0 {
		cs.next.Stop()
		return
	}
	minRem := math.Inf(1)
	for _, j := range cs.jobs {
		if !j.paused && j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if math.IsInf(minRem, 1) {
		cs.next.Stop()
		return
	}
	var d time.Duration
	if minRem > cpuEpsilon {
		d = time.Duration(math.Ceil(minRem / r * float64(time.Second)))
		if d <= 0 {
			d = 1
		}
	}
	cs.next.Reset(d)
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
	cs.jobs = live
	cs.reschedule()
}

// remove drops a job that will not complete (its thread was killed
// mid-compute).
func (cs *CPUSched) remove(job *cpuJob) {
	for i, j := range cs.jobs {
		if j == job {
			cs.jobs = append(cs.jobs[:i], cs.jobs[i+1:]...)
			return
		}
	}
}

// Run charges d of core time to the calling thread, blocking it until
// the work has been served under the node's core-sharing discipline.
// With core accounting disabled (cores <= 0) it degrades to a plain
// virtual-time sleep.
func (cs *CPUSched) Run(th *sim.Thread, d time.Duration) {
	if d <= 0 {
		return
	}
	if cs.cores <= 0 {
		if cs.speed > 0 && cs.speed != 1 {
			d = time.Duration(float64(d) / cs.speed)
		}
		th.Sleep(d)
		return
	}
	cs.advance()
	j := &cpuJob{
		remaining: d.Seconds(),
		done:      sim.NewWaitQueue(cs.node.Cluster.Eng, cs.qname),
	}
	cs.jobs = append(cs.jobs, j)
	th.SetSuspendHook(func(suspended bool) {
		cs.advance()
		j.paused = suspended
		cs.reschedule()
	})
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
