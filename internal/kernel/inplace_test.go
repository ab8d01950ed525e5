package kernel

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestInPlaceChargesMatchParked pins that serving a charge in place is
// exact.  Each of a few hundred seeded mixes runs twice on a 1- to
// 4-core node: once as is, and once beside a sentinel thread that
// sleeps 1 µs at a time, so some event is always due before any charge
// ends and every charge of the mix parks.  The mixes issue Compute and
// Idle charges of 0–50 µs from several tasks (whole microseconds
// often, so equal remaining work is common), change the node's speed,
// suspend, resume and kill tasks mid-charge from a controller task and
// from the runner, and run in RunFor slices that end mid-charge.  Both
// runs must log the same (virtual time, task, action) sequence, fire
// the same events once the sentinel's own are taken out, and end at
// the same instant.
func TestInPlaceChargesMatchParked(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		mix := newChargeMix(seed)
		natural := mix.run(false)
		parked := mix.run(true)
		if natural.end != parked.end || natural.events != parked.events {
			t.Errorf("seed %d (%d cores): natural run ends at %v after %d events, parked run at %v after %d",
				seed, mix.cores, natural.end, natural.events, parked.end, parked.events)
		}
		if d := firstDiff(natural.log, parked.log); d >= 0 {
			t.Errorf("seed %d (%d cores): logs part at entry %d of %d/%d:\n  natural: %s\n  parked:  %s",
				seed, mix.cores, d, len(natural.log), len(parked.log),
				entry(natural.log, d), entry(parked.log, d))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end)"
}

// mixStep is one step of a worker's script: a charge, or (for the
// controller and the runner) an action on the node or a worker.
type mixStep struct {
	compute bool          // Compute rather than Idle
	d       time.Duration // the charge, or the controller's wait before its action
	action  int           // controller and runner: one of the mix* actions
	target  int           // the worker an action applies to
	factor  float64       // mixSpeed's SlowNode factor
}

const (
	mixNone = iota
	mixSpeed
	mixSuspend // the controller suspends, waits d, resumes; the runner suspends for one slice
	mixKill
)

// chargeMix is one seeded workload, drawn in full before either run so
// both runs see the very same script.
type chargeMix struct {
	cores   int
	workers [][]mixStep
	control []mixStep
	slices  []time.Duration
	between []mixStep // the runner's action after each slice
}

func newChargeMix(seed int64) *chargeMix {
	rng := rand.New(rand.NewSource(seed))
	charge := func() time.Duration {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1, 2:
			return time.Duration(1+rng.Intn(50)) * time.Microsecond
		default:
			return time.Microsecond + time.Duration(rng.Int63n(int64(49*time.Microsecond)))
		}
	}
	action := func(workers int) mixStep {
		s := mixStep{target: rng.Intn(workers)}
		switch r := rng.Intn(10); {
		case r < 3:
			s.action = mixSpeed
			s.factor = []float64{1, 1.5, 2, 4}[rng.Intn(4)]
		case r < 7:
			s.action = mixSuspend
		case r < 8:
			s.action = mixKill
		}
		return s
	}
	m := &chargeMix{cores: 1 + rng.Intn(4)}
	nw := 2 + rng.Intn(5)
	for i := 0; i < nw; i++ {
		// Workers start at staggered instants, so charges overlap
		// partly: some run alone, some contend, some tie.
		steps := []mixStep{{d: time.Duration(rng.Intn(4)) * 40 * time.Microsecond}}
		for j := 1 + rng.Intn(8); j > 0; j-- {
			steps = append(steps, mixStep{compute: rng.Intn(3) > 0, d: charge()})
		}
		m.workers = append(m.workers, steps)
	}
	for i := rng.Intn(6); i > 0; i-- {
		s := action(nw)
		s.d = time.Duration(rng.Intn(30)) * time.Microsecond
		m.control = append(m.control, s)
	}
	for i := 0; i < 64; i++ {
		slice := 40 * time.Microsecond
		if rng.Intn(2) == 0 {
			slice *= 10
		}
		m.slices = append(m.slices, time.Microsecond+time.Duration(rng.Int63n(int64(slice))))
		s := mixStep{}
		if rng.Intn(4) == 0 {
			s = action(nw)
		}
		m.between = append(m.between, s)
	}
	return m
}

type mixResult struct {
	log    []string
	events uint64
	end    sim.Time
}

// run plays the mix once; with parked set, a sentinel thread forces
// every charge of the mix onto the parking path.
func (m *chargeMix) run(parked bool) mixResult {
	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	p := model.Default()
	p.CoresPerNode = m.cores
	c := NewCluster(eng, p, 1)
	node := c.Node(0)
	var res mixResult
	logf := func(who string, format string, args ...any) {
		res.log = append(res.log, fmt.Sprintf("%v %s %s", eng.Now(), who, fmt.Sprintf(format, args...)))
	}

	// Nothing in a mix outlasts the horizon.  The loops below stop
	// there, so that a run which never hands control back to the
	// runner fails instead of spinning.
	const horizon = sim.Time(time.Second)
	var sentinelEvents uint64
	finished := false
	if parked {
		eng.Go("sentinel", func(th *sim.Thread) {
			sentinelEvents++ // its start event
			for !finished && th.Now() < horizon {
				th.Sleep(time.Microsecond)
				sentinelEvents++
			}
		})
	}

	workers := make([]*Task, len(m.workers))
	controlling := true
	running := func() bool { // a worker killed before it starts never runs its defer
		for _, w := range workers {
			if w == nil || !w.T.Dead() {
				return true
			}
		}
		return controlling
	}
	act := func(who string, s mixStep) {
		w := workers[s.target]
		switch s.action {
		case mixSpeed:
			c.SlowNode(node.Hostname, s.factor)
			logf(who, "speed /%v", s.factor)
		case mixSuspend:
			w.T.Suspend()
			logf(who, "suspend w%d", s.target)
		case mixKill:
			w.T.Kill()
			logf(who, "kill w%d", s.target)
		}
	}
	c.RegisterFunc("mix", func(task *Task, _ []string) {
		for i, steps := range m.workers {
			i, steps := i, steps
			name := fmt.Sprintf("w%d", i)
			workers[i] = task.P.SpawnTask(name, false, func(wt *Task) {
				defer logf(name, "exit")
				for _, s := range steps {
					if s.compute {
						wt.Compute(s.d)
						logf(name, "compute %v", s.d)
					} else {
						wt.Idle(s.d)
						logf(name, "idle %v", s.d)
					}
				}
			})
		}
		for _, s := range m.control {
			task.Idle(s.d)
			act("ctl", s)
			if s.action == mixSuspend {
				task.Idle(s.d + time.Microsecond)
				workers[s.target].T.Resume()
				logf("ctl", "resume w%d", s.target)
			}
		}
		controlling = false
		for running() && task.Now() < horizon {
			task.Idle(100 * time.Microsecond)
		}
	})
	if _, err := node.Kern.Spawn("mix", nil, nil); err != nil {
		panic(err)
	}
	if err := eng.RunFor(p.ExecCost); err != nil { // until the mix starts
		panic(err)
	}
	var held *Task // suspended by the runner until the next slice ends
	for i := 0; running(); i++ {
		if eng.Now() >= horizon {
			res.log = append(res.log, "the mix never finished")
			break
		}
		if err := eng.RunFor(m.slices[i%len(m.slices)]); err != nil {
			panic(err)
		}
		logf("runner", "slice %d", i)
		if held != nil {
			held.T.Resume()
			held = nil
			logf("runner", "resume")
		}
		s := m.between[i%len(m.between)]
		if !running() || s.action == mixNone {
			continue
		}
		act("runner", s)
		if s.action == mixSuspend {
			held = workers[s.target]
		}
	}
	finished = true
	res.events = eng.EventsFired() - sentinelEvents
	res.end = eng.Now()
	return res
}
