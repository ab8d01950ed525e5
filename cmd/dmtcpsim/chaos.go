package main

import (
	"fmt"
	"math/rand"
	"time"

	dmtcpsim "repro"
	"repro/internal/store"
)

// chaosScenario walks one full chaos schedule — the four fault kinds
// the fault-injection plane models — against an HA deployment, and
// narrates what the robustness machinery does about each: a
// leader-isolating partition (standby promotes via journal-silence
// detection, resumes the round, the heal converges the deposed leader),
// lossy slow links (a round still commits through retransmission
// backoff), silent bit rot (the background scrubber detects and
// quarantines it, repair re-sources the generation), and node death
// (recovery restarts the workload from replicated storage).
func chaosScenario(o scenOpts) {
	nodes := o.nodes
	if nodes < 6 {
		nodes = 6
	}
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{CoordNode: 1, Compress: true, Store: true,
			StoreKeep: 3, ReplicaFactor: 2, CoordStandbys: 2}))
	s.C.Params.ScrubInterval = 200 * time.Millisecond
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("chaos schedule: leader partition, lossy links, bit rot, node death ...")
		if _, err := s.Launch(4, dmtcpsim.DirtyAppName, "96"); err != nil {
			panic(err)
		}
		t.Compute(300 * time.Millisecond)
		if _, err := s.Checkpoint(t); err != nil {
			panic(err)
		}
		s.Sys.Replica.WaitIdle(t)

		// Fault 1: cut the leader's host off mid-round, once the round's
		// start has reached the standbys.  Its node stays alive, so only
		// the standbys' journal-silence watchdog can detect the loss and
		// elect on the majority side, which resumes the round.
		co := s.Sys.Coord
		preRounds := len(co.Rounds())
		fmt.Printf("\n[1/4] partitioning leader %s away mid-round ...\n", co.Node.Hostname)
		var cerr error
		done := false
		t.P.SpawnTask("req", false, func(rt *dmtcpsim.Task) {
			_, cerr = s.Checkpoint(rt)
			done = true
		})
		for !done && !s.Sys.RoundOnStandbys() {
			t.Compute(time.Millisecond)
		}
		cutAt := t.Now()
		id := s.C.IsolateHost(co.Node.Hostname)
		for s.Sys.Coord == co && !done {
			t.Compute(5 * time.Millisecond)
		}
		fmt.Printf("      standby on %s promoted itself in %v (journal silence; the leader is alive but unreachable)\n",
			s.Sys.Coord.Node.Hostname, t.Now().Sub(cutAt).Round(time.Millisecond))
		s.C.HealFault(id)
		for !done {
			t.Compute(10 * time.Millisecond)
		}
		if cerr != nil {
			panic(cerr)
		}
		fmt.Printf("      round resumed and completed under the new leader; rounds lost: %d\n",
			preRounds+1-len(s.Sys.Coord.Rounds()))
		lead := s.Sys.Coord
		for !co.Standby || co.Mach.Epoch() != lead.Mach.Epoch() {
			t.Compute(10 * time.Millisecond)
		}
		fmt.Printf("      deposed leader stepped down and converged onto epoch %d (%d fenced journal writes rejected)\n",
			lead.Mach.Epoch(), s.Sys.Replica.Stats.FencedWrites)
		s.Sys.Replica.WaitIdle(t)

		// Fault 2: every link drops and delays frames; TCP-style
		// retransmission backoff delays the round but loses nothing.
		fmt.Println("[2/4] making every link lossy (3% drop, +500us latency) and checkpointing through it ...")
		id = s.C.InjectFault(dmtcpsim.FaultRule{
			Drop: 0.03, ExtraLatency: 500 * time.Microsecond, JitterPct: 0.3})
		round, err := s.Checkpoint(t)
		s.C.HealFault(id)
		if err != nil {
			panic(err)
		}
		fmt.Printf("      round committed in %v across the flaky network\n",
			round.Stages.Total.Round(time.Millisecond))
		s.Sys.Replica.WaitIdle(t)

		// Fault 3: flip one bit in a replica holder's chunk store.  No
		// reader ever touches it — the background scrubber must find it.
		co = s.Sys.Coord
		st := co.Mach.State()
		victim := ""
		for _, name := range sortedKeys(st.Placement) {
			pi := st.Placement[name]
			for _, h := range pi.HolderHosts() {
				n := s.C.LookupHost(h)
				if n == nil || n.Down || h == "node00" || h == co.Node.Hostname || h == pi.Host {
					continue
				}
				victim = h
			}
		}
		if victim == "" {
			panic("no expendable replica holder found")
		}
		hstore := store.Open(s.C.LookupHost(victim), store.Config{Root: s.Sys.StoreRoot()})
		hash, ok := hstore.CorruptRandomChunk(rand.New(rand.NewSource(1)))
		if !ok {
			panic("nothing to corrupt on " + victim)
		}
		fmt.Printf("[3/4] flipped one bit in chunk %s on %s; waiting for the scrubber ...\n", hash[:12], victim)
		pre := s.Sys.Replica.Stats.ScrubCorrupt
		flipAt := t.Now()
		for s.Sys.Replica.Stats.ScrubCorrupt == pre {
			t.Compute(20 * time.Millisecond)
		}
		fmt.Printf("      scrub detected and quarantined it in %v (no reader involved)\n",
			t.Now().Sub(flipAt).Round(time.Millisecond))
		t.Compute(100 * time.Millisecond)
		for !co.RepairIdle() {
			t.Compute(20 * time.Millisecond)
		}
		fmt.Printf("      repair re-sourced the generation from a clean holder (%d quarantined object(s) on %s)\n",
			len(hstore.Quarantined()), victim)

		// Fault 4: the workload's node loses power; recovery rolls back
		// to the newest fully-replicated round on a surviving holder.
		procs := s.Sys.ManagedProcesses()
		if len(procs) == 0 {
			panic("workload lost before the node-death fault")
		}
		deadNode := procs[0].Node
		fmt.Printf("[4/4] killing workload node %s ...\n", deadNode.Hostname)
		s.KillNode(deadNode.ID)
		rec, err := s.Sys.Recover(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("      recovered %d process(es) on %v in %v (MTTR: detect + rollback + fetch + restart)\n",
			rec.Procs, rec.Targets[deadNode.Hostname], rec.Took.Round(time.Millisecond))

		// Closing round: the cluster must be fully functional again.
		t.Compute(100 * time.Millisecond)
		if _, err := s.Checkpoint(t); err != nil {
			panic(err)
		}
		fmt.Println("\nclosing checkpoint round clean: the schedule survived with zero rounds lost")
	})
}
