package kernel

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// spawnComputers starts n sibling tasks each charging work of CPU time
// and returns a wait that blocks until all have finished, plus the
// slice of per-task completion times.
func spawnComputers(task *Task, n int, work time.Duration) func() []sim.Time {
	done := make([]sim.Time, n)
	finished := 0
	join := sim.NewWaitQueue(task.P.Node.Cluster.Eng, "cpu-test-join")
	for i := 0; i < n; i++ {
		i := i
		task.P.SpawnTask("burn", false, func(bt *Task) {
			bt.Compute(work)
			done[i] = bt.Now()
			finished++
			join.WakeAll()
		})
	}
	return func() []sim.Time {
		for finished < n {
			join.Wait(task.T)
		}
		return done
	}
}

// TestCPUFullRateUpToCores pins that up to Node.Cores concurrent
// Compute charges proceed at full rate: 4 tasks x 1 s on a 4-core node
// finish in ~1 s of virtual time.
func TestCPUFullRateUpToCores(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		if c := task.P.Node.Cores; c != 4 {
			t.Fatalf("default cores = %d, want 4 (Xeon 5130)", c)
		}
		start := task.Now()
		wait := spawnComputers(task, 4, time.Second)
		for _, at := range wait() {
			took := at.Sub(start)
			if took < time.Second || took > 1050*time.Millisecond {
				t.Errorf("4 tasks on 4 cores: finished after %v, want ~1s", took)
			}
		}
	})
}

// TestCPUOversubscriptionDilates pins the dilation: 8 tasks x 1 s on 4
// cores share the processors and finish in ~2 s, and total throughput
// never exceeds the core count.
func TestCPUOversubscriptionDilates(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		start := task.Now()
		wait := spawnComputers(task, 8, time.Second)
		for _, at := range wait() {
			took := at.Sub(start)
			if took < 1900*time.Millisecond || took > 2100*time.Millisecond {
				t.Errorf("8 tasks on 4 cores: finished after %v, want ~2s", took)
			}
		}
	})
}

// TestCPUSuspendedTaskReleasesCore pins the honesty rule a parallel
// checkpoint depends on: a suspended thread (a checkpointed user
// task) stops holding its core share, so checkpoint writer tasks
// running while the application is frozen get the whole machine.
func TestCPUSuspendedTaskReleasesCore(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		// 4 background burners would saturate the node...
		wait := spawnComputers(task, 4, 10*time.Second)
		task.Compute(10 * time.Millisecond) // let them start
		// ...but suspending all of them frees every core.
		var suspended []*Task
		for _, bt := range task.P.Tasks() {
			if bt.Role == "burn" {
				bt.T.Suspend()
				suspended = append(suspended, bt)
			}
		}
		if len(suspended) != 4 {
			t.Fatalf("suspended %d burners, want 4", len(suspended))
		}
		start := task.Now()
		task.Compute(time.Second)
		if took := task.Now().Sub(start); took > 1050*time.Millisecond {
			t.Errorf("compute beside 4 suspended burners took %v, want ~1s", took)
		}
		for _, bt := range suspended {
			bt.T.Resume()
		}
		wait()
	})
}

// TestCPUIdleCores pins the adaptive-sizing signal: an idle node
// reports every core free, load eats into the count one core per
// runnable job, and a fully loaded (or oversubscribed) node still
// reports one — a pool sized from it always makes progress.
func TestCPUIdleCores(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		cpu := task.P.Node.CPU()
		if got := cpu.IdleCores(); got != 4 {
			t.Errorf("idle node IdleCores = %d, want 4", got)
		}
		wait := spawnComputers(task, 2, time.Second)
		task.Idle(time.Millisecond) // let the burners enter Compute
		if got := cpu.IdleCores(); got != 2 {
			t.Errorf("IdleCores beside 2 burners = %d, want 2", got)
		}
		wait()
		wait8 := spawnComputers(task, 8, time.Second)
		task.Idle(time.Millisecond)
		if got := cpu.IdleCores(); got != 1 {
			t.Errorf("IdleCores on an oversubscribed node = %d, want 1", got)
		}
		// Suspending the burners frees their shares again — the state a
		// checkpoint writer sizes itself in (user threads frozen).
		for _, bt := range task.P.Tasks() {
			if bt.Role == "burn" {
				bt.T.Suspend()
			}
		}
		if got := cpu.IdleCores(); got != 4 {
			t.Errorf("IdleCores with all burners suspended = %d, want 4", got)
		}
		for _, bt := range task.P.Tasks() {
			if bt.Role == "burn" {
				bt.T.Resume()
			}
		}
		wait8()
	})
}

// TestCPUSlowNode pins the straggler fault injection: SlowNode(h, 2)
// halves the node's core rate, so identical compute charges take twice
// as long — including charges already in flight, which keep the work
// done at full speed and dilate only the remainder.
func TestCPUSlowNode(t *testing.T) {
	te := newEnv(t, 2)
	te.run(t, func(task *Task) {
		c := task.P.Node.Cluster
		start := task.Now()
		task.Compute(time.Second)
		base := task.Now().Sub(start)

		if !c.SlowNode(task.P.Node.Hostname, 2) {
			t.Fatalf("SlowNode rejected a known host")
		}
		start = task.Now()
		task.Compute(time.Second)
		slowed := task.Now().Sub(start)
		if slowed < 2*base-50*time.Millisecond || slowed > 2*base+50*time.Millisecond {
			t.Errorf("slowed compute took %v, want ~2x baseline %v", slowed, base)
		}

		// The factor applies mid-charge: start at half speed, restore
		// nominal speed halfway through, and total wall time is
		// 1s (half the work at 0.5x) + 0.5s (the rest at 1x).
		start = task.Now()
		done := false
		join := sim.NewWaitQueue(c.Eng, "slow-join")
		task.P.SpawnTask("burn", false, func(bt *Task) {
			bt.Compute(time.Second)
			done = true
			join.WakeAll()
		})
		task.Idle(time.Second) // burner completes 500ms of work at 0.5x
		c.SlowNode(task.P.Node.Hostname, 1)
		for !done {
			join.Wait(task.T)
		}
		took := task.Now().Sub(start)
		if took < 1450*time.Millisecond || took > 1550*time.Millisecond {
			t.Errorf("mid-charge speed change: took %v, want ~1.5s", took)
		}

		if !c.SlowNode("node01", 3) || c.SlowNode("no-such-host", 2) {
			t.Errorf("SlowNode host lookup misbehaved")
		}
		if got := c.LookupHost("node01").CPU().Speed(); got < 0.33 || got > 0.34 {
			t.Errorf("node01 speed = %v, want 1/3", got)
		}
	})
}

// TestCPUKilledTaskReleasesCore pins that killing a process mid-compute
// frees its core shares for the survivors.
func TestCPUKilledTaskReleasesCore(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		var victims []Pid
		for i := 0; i < 4; i++ {
			victims = append(victims, task.ForkFn("victim", func(ct *Task) {
				ct.Compute(time.Hour)
				ct.Exit(0)
			}))
		}
		task.Compute(10 * time.Millisecond)
		for _, pid := range victims {
			if err := task.P.Kern.Kill(pid); err != nil {
				t.Fatalf("kill: %v", err)
			}
		}
		if n := task.P.Node.CPU().Runnable(); n > 1 {
			t.Errorf("runnable after killing all victims = %d, want <= 1", n)
		}
		start := task.Now()
		task.Compute(time.Second)
		if took := task.Now().Sub(start); took > 1050*time.Millisecond {
			t.Errorf("compute after kills took %v, want ~1s", took)
		}
	})
}

// TestCPUOneCompletionEvent pins that the core scheduler owns a single
// completion event and moves it in place: 8 Task.Compute charges
// arriving 1 ms apart on a 4-core node re-rate the node at every
// arrival, yet once all are in flight the event queue holds nothing
// but that one event, and the run fires only live events.  Queueing a
// fresh completion event per re-rate instead leaves 8 events queued
// here and fires 49, 7 of them no-ops.
func TestCPUOneCompletionEvent(t *testing.T) {
	te := newEnv(t, 1)
	const n = 8
	var pending int
	te.run(t, func(task *Task) {
		done := 0
		join := sim.NewWaitQueue(te.eng, "cpu-test-join")
		for i := 0; i < n; i++ {
			i := i
			task.P.SpawnTask("burn", false, func(bt *Task) {
				bt.Idle(time.Duration(i) * time.Millisecond)
				bt.Compute(10 * time.Millisecond)
				done++
				join.WakeAll()
			})
		}
		// Sample while every charge is in flight and main is parked.
		te.eng.Schedule(n*time.Millisecond, func() { pending = te.eng.Pending() })
		for done < n {
			join.Wait(task.T)
		}
	})
	if pending != 1 {
		t.Errorf("%d events queued with 8 charges in flight, want the scheduler's one", pending)
	}
	if got := te.eng.EventsFired(); got != 42 {
		t.Errorf("fired %d events, want 42", got)
	}
}

// TestCPUDropsFinishedJobs pins that the scheduler's job list never
// keeps a finished or killed job reachable through its backing array:
// a job is reused per task, so a stale slot would pin an exited task
// and its process.  Filtering the list in place (a completion) or
// splicing a job out (a kill) must clear the slots it vacates.
func TestCPUDropsFinishedJobs(t *testing.T) {
	te := newEnv(t, 1)
	te.run(t, func(task *Task) {
		cpu := task.P.Node.CPU()
		vacated := func(when string) {
			for i, j := range cpu.jobs[len(cpu.jobs):cap(cpu.jobs)] {
				if j != nil {
					t.Errorf("after %s: vacated slot %d still holds a job", when, len(cpu.jobs)+i)
				}
			}
		}
		// The short charge finishes first, out of a two-job list.
		task.P.SpawnTask("long", false, func(bt *Task) { bt.Compute(10 * time.Millisecond) })
		task.P.SpawnTask("short", false, func(bt *Task) { bt.Compute(time.Millisecond) })
		task.Idle(2 * time.Millisecond)
		if n := len(cpu.jobs); n != 1 {
			t.Fatalf("%d jobs after the short charge finished, want 1", n)
		}
		vacated("a completion")
		// Killing the last-added job splices it out of the list.
		victim := task.ForkFn("victim", func(ct *Task) { ct.Compute(time.Hour) })
		task.Idle(time.Millisecond)
		if n := len(cpu.jobs); n != 2 {
			t.Fatalf("%d jobs with the victim computing, want 2", n)
		}
		if err := task.P.Kern.Kill(victim); err != nil {
			t.Fatal(err)
		}
		vacated("a kill")
		task.Idle(10 * time.Millisecond)
	})
}

// TestComputeAllocs pins that a steady-state Task.Compute allocates
// nothing, whether it is served in place (a lone task on an idle node)
// or parks behind its siblings (8 tasks tied on 4 cores): each task
// reuses one job, wait queue and suspend hook.  A fresh job per charge
// cost 4 allocations, 104 B.
func TestComputeAllocs(t *testing.T) {
	for name, tasks := range map[string]int{"in place": 1, "parked": 8} {
		tasks := tasks
		eng := sim.NewEngine(1)
		c := NewCluster(eng, model.Default(), 1)
		charges := 0
		burn := func(bt *Task) {
			for {
				bt.Compute(time.Microsecond)
				charges++
			}
		}
		c.RegisterFunc("burn", func(task *Task, _ []string) {
			for i := 1; i < tasks; i++ {
				task.P.SpawnTask("burn", false, burn)
			}
			burn(task)
		})
		if _, err := c.Node(0).Kern.Spawn("burn", nil, nil); err != nil {
			t.Fatal(err)
		}
		slice := func() {
			if err := eng.RunFor(10 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		// Start every task (exec costs a few ms) and grow every list.
		if err := eng.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		before := charges
		if n := testing.AllocsPerRun(200, slice); n != 0 {
			t.Errorf("%s: %v allocations per 10 µs of 1 µs charges, want 0", name, n)
		}
		if got := charges - before; got < 201*9 {
			t.Errorf("%s: %d charges in 201 slices of 10 µs, want at least %d", name, got, 201*9)
		}
		eng.Shutdown()
	}
}
