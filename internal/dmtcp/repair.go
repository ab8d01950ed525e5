package dmtcp

import (
	"sort"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
)

// Replica re-fan-out.  A node death leaves every generation it held
// with one fewer live holder than the placement map promised; until
// redundancy is restored, a second failure can make those checkpoints
// unrecoverable.  The coordinator detects the degraded generations
// (placement map vs ReplicaFactor), picks a surviving complete holder
// as the source, and drives background re-replication to fresh ring
// targets through a repair-class replica stream — the same
// want/missing ship path checkpoints take, paced by Params.RepairQoS
// so concurrent checkpoint rounds keep their bandwidth.  The source
// generation is pinned in its store for the duration, so a retention
// pass cannot age it out mid-repair; a generation superseded by a
// newer round mid-repair is cancelled cleanly (the newer generation
// re-ships through normal replication).

// repairPlan is one degraded generation's repair work.
type repairPlan struct {
	name    string
	gen     int64
	src     *kernel.Node
	targets []*kernel.Node
}

// spawnRepair launches the background repair drive on the
// coordinator's process unless one is already running.  It is called
// on node-death observations and at takeover (the dead leader may have
// been mid-repair, or itself a holder).
func (co *Coordinator) spawnRepair() {
	sys := co.Sys
	if co.repairing || co.proc == nil || sys.Replica == nil || !sys.Cfg.Store || sys.Cfg.ReplicaFactor <= 0 {
		return
	}
	co.repairing = true
	co.proc.SpawnTask("replica-repair", true, func(t *kernel.Task) {
		defer func() { co.repairing = false }()
		// Let liveness settle (the same detection wait recovery pays)
		// before trusting the placement-vs-liveness comparison.
		t.Idle(sys.detectDelay())
		start := t.Now()
		totalRestored := 0
		for {
			if sys.Coord != co {
				return
			}
			degraded, restored := co.repairDegraded(t)
			totalRestored += restored
			if degraded == 0 {
				break
			}
			if restored == 0 {
				// Degraded entries remain but nothing could be repaired
				// (no live complete source, or every push failed): give
				// up rather than spin; the next death observation
				// re-arms the drive.
				t.Printf("dmtcp_coordinator: repair stalled with %d degraded generations\n", degraded)
				return
			}
		}
		if totalRestored > 0 {
			took := t.Now().Sub(start)
			co.LastRebalance = took
			t.Trace().Span(t.Host(), "coordinator", "coord.rebalance", "coord",
				start, t.Now(), obs.A("copies", int64(totalRestored)))
			t.Printf("dmtcp_coordinator: rebalance restored %d copies in %v\n", totalRestored, took)
			sys.doneW.WakeAll()
		}
	})
}

// repairDegraded runs one scan-and-repair pass: it plans a repair for
// every placement entry whose latest generation has fewer live
// complete holders than the redundancy target, ships each one
// (pinning each source generation for the duration), and blocks until
// every job reports back.  It returns the number of degraded entries
// seen and the number of (generation, peer) copies restored.
func (co *Coordinator) repairDegraded(t *kernel.Task) (degraded, restored int) {
	sys := co.Sys
	var plans []repairPlan
	names := make([]string, 0, len(co.st().Placement))
	for name := range co.st().Placement {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if plan, ok := co.planRepair(name); ok {
			degraded++
			plans = append(plans, plan)
		}
	}
	if len(plans) == 0 {
		return 0, 0
	}
	pending := len(plans)
	doneW := sim.NewWaitQueue(sys.C.Eng, co.Node.Hostname+".repairwait")
	for _, plan := range plans {
		plan := plan
		srcStore := sys.StoreOn(plan.src)
		srcStore.PinGeneration(plan.name, plan.gen)
		sys.Replica.Ship(plan.src, replica.Job{
			ManifestPath: srcStore.ManifestPath(plan.name, plan.gen),
			Targets:      plan.targets,
			Repair:       true,
			Cancel: func() bool {
				// A newer generation supersedes the repair (it re-ships
				// through normal replication), and a deposed leader's
				// drive must not keep pushing under the new one.
				pi := co.st().Placement[plan.name]
				return pi == nil || pi.LatestGen != plan.gen || sys.Coord != co
			},
			OnDone: func(copies int) {
				srcStore.UnpinGeneration(plan.name, plan.gen)
				restored += copies
				pending--
				doneW.WakeAll()
			},
		})
	}
	for pending > 0 {
		doneW.Wait(t.T)
	}
	return degraded, restored
}

// planRepair decides whether name's latest generation is degraded and,
// if so, from where and to where to re-replicate it.  The redundancy
// target is ReplicaFactor+1 live complete holders (writer + factor
// copies, the level normal replication establishes), capped by the
// live node count.
func (co *Coordinator) planRepair(name string) (repairPlan, bool) {
	sys := co.Sys
	pi := co.st().Placement[name]
	if pi == nil || pi.LatestGen <= 0 {
		return repairPlan{}, false
	}
	gen := pi.LatestGen
	seen := map[string]bool{}
	var complete []string
	consider := func(h string) {
		if h == "" || seen[h] {
			return
		}
		seen[h] = true
		if co.holderComplete(h, name, gen) {
			complete = append(complete, h)
		}
	}
	consider(pi.Host) // the writer anchors the set when it survived
	for _, h := range co.candidateHolders(pi, gen) {
		consider(h)
	}
	if len(complete) == 0 {
		return repairPlan{}, false // unrecoverable: nothing to repair from
	}
	live := 0
	for _, n := range sys.C.Nodes() {
		if !n.Down {
			live++
		}
	}
	want := sys.Cfg.ReplicaFactor + 1
	if want > live {
		want = live
	}
	missing := want - len(complete)
	if missing <= 0 {
		return repairPlan{}, false
	}
	src := sys.C.LookupHost(complete[0])
	if src == nil || src.Down {
		return repairPlan{}, false
	}
	has := map[string]bool{}
	for _, h := range complete {
		has[h] = true
	}
	var targets []*kernel.Node
	nodes := sys.C.Nodes()
	for i := 1; i < len(nodes) && len(targets) < missing; i++ {
		n := nodes[(int(src.ID)+i)%len(nodes)]
		if n == src || n.Down || has[n.Hostname] {
			continue
		}
		targets = append(targets, n)
	}
	if len(targets) == 0 {
		return repairPlan{}, false
	}
	return repairPlan{name: name, gen: gen, src: src, targets: targets}, true
}

// RepairIdle reports whether no repair drive is running (test and
// experiment synchronization).
func (co *Coordinator) RepairIdle() bool { return !co.repairing }
