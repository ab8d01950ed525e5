package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/bin"
	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/model"
)

// RunCoordFailover measures coordinator HA: a workload checkpoints
// through the replicated store while the coordinator journals its
// state machine to standby coordinators; then the coordinator's node
// is killed and a standby replays the journal and takes over, with
// the live manager resyncing mid-computation.
//
// The table's headline claims: journal replication traffic is tiny
// (control-plane events, not checkpoint data), takeover completes in
// failure-detection + election time, and the first post-takeover
// checkpoint costs the same as one under the original leader — the
// standby's replayed dedup/placement state is complete.
//
// The adaptive column pair compares the health plane's phi-accrual
// failure detector against the static FailureDetectDelay: the health
// summaries the leader journals before each checkpoint request give
// every standby the inter-arrival stats to derive a tighter detection
// deadline on a quiet network, so takeover is strictly faster; the loaded column counts false-positive
// takeovers under heavy background load and replication traffic (the
// detector only widens under load, and promotion keys off real node
// death, so the count must be zero).
func RunCoordFailover(o Opts) *Table {
	standbys := []int{1, 2}
	nodes := 5
	mb := 128
	if o.Quick {
		standbys = []int{1}
		nodes = 4
		mb = 32
	}
	t := &Table{
		ID: "coordha",
		Title: fmt.Sprintf(
			"Coordinator HA: %d MB process, coordinator node killed between rounds; standbys replay the journal and take over",
			mb),
		Columns: []string{"standbys", "journal KB", "takeover (s)", "static takeover (s)",
			"pre-kill ckpt (s)", "post-takeover ckpt (s)", "false+ (loaded)", "rounds lost",
			"rebalance (s)", "survived"},
		Notes: []string{
			"journal KB = coordinator state-machine records shipped to standbys (control plane only,",
			"  independent of image size); takeover = node kill -> promoted standby answering, under",
			"  the adaptive (phi-accrual) detector seeded from journaled health summaries; static",
			"  takeover = the same kill with the health plane off (HeartbeatInterval=0), paying the",
			"  full FailureDetectDelay; false+ = takeovers that fired with the leader alive under",
			"  heavy load (must be 0/N: the detector widens under load, never fires early);",
			"post-takeover ckpt is driven by the promoted standby over the resynced manager and must",
			"  match the pre-kill cost: the replayed placement/dedup state is complete;",
			"rounds lost = checkpoint rounds in flight when the coordinator died that the promoted",
			"  standby failed to resume (synchronous barrier commits make the target 0);",
			"rebalance (s) = re-fan-out time to restore ReplicaFactor live holders after a replica",
			"  holder dies, QoS-paced so a concurrent checkpoint round keeps its bandwidth",
		},
	}
	lastK := standbys[len(standbys)-1]
	for _, k := range standbys {
		var journalKB, takeT, staticT, preT, postT Sample
		var scratchKB, scratchPre, scratchPost Sample
		var rebalT, ckptBase, ckptRepair Sample
		survived, trials := 0, o.trials()
		falsePos, roundsLost := 0, 0
		for trial := 0; trial < trials; trial++ {
			seed := o.Seed + int64(trial)
			if runCoordFailoverTrial(seed, nodes, mb, k, true,
				&journalKB, &takeT, &preT, &postT) {
				survived++
			}
			runCoordFailoverTrial(seed, nodes, mb, k, false,
				&scratchKB, &staticT, &scratchPre, &scratchPost)
			if !runCoordLoadedTrial(seed, nodes, mb, k) {
				falsePos++
			}
			runCoordZeroLossTrial(seed, mb, k, &roundsLost, &rebalT, &ckptBase, &ckptRepair)
		}
		if k == lastK {
			prefix := fmt.Sprintf("coordha.s%d", k)
			t.Metric(prefix+".journal_kb", journalKB.Mean())
			t.Metric(prefix+".takeover_s", takeT.Mean())
			t.Metric(prefix+".takeover_static_s", staticT.Mean())
			t.Metric(prefix+".pre_ckpt_s", preT.Mean())
			t.Metric(prefix+".post_ckpt_s", postT.Mean())
			t.Metric("coordha.false_takeovers", float64(falsePos))
			t.Metric("coordha.rounds_lost", float64(roundsLost))
			t.Metric("coordha.rebalance_s", rebalT.Mean())
			if ckptBase.Mean() > 0 {
				t.Metric("coordha.repair_ckpt_ratio", ckptRepair.Mean()/ckptBase.Mean())
			}
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(k),
			fmt.Sprintf("%.1f", journalKB.Mean()),
			meanStd(&takeT),
			meanStd(&staticT),
			fmt.Sprintf("%.3f", preT.Mean()),
			fmt.Sprintf("%.3f", postT.Mean()),
			fmt.Sprintf("%d/%d", falsePos, trials),
			fmt.Sprintf("%d/%d", roundsLost, trials),
			meanStd(&rebalT),
			fmt.Sprintf("%d/%d", survived, trials),
		})
	}
	return t
}

// runCoordFailoverTrial drives one seed: two checkpoint rounds, kill
// the coordinator node, wait for the standby takeover, then a third
// round through the promoted standby.  adaptive selects the health
// plane's phi-accrual failure detector; false disables heartbeats so
// the election pays the static FailureDetectDelay.  It reports whether
// the workload was still checkpointable and running afterwards.
func runCoordFailoverTrial(seed int64, nodes, mb, standbys int, adaptive bool,
	journalKB, takeT, preT, postT *Sample) bool {
	cfg := dmtcp.Config{
		CoordNode:     1, // the driver runs on node 0 and must survive
		Compress:      true,
		Store:         true,
		StoreKeep:     3,
		ReplicaFactor: 2,
		CoordStandbys: standbys,
	}
	env := NewEnv(seed, nodes, cfg)
	if !adaptive {
		env.C.Params.HeartbeatInterval = 0
	}
	ok := false
	env.Drive(func(task *kernel.Task) {
		if _, err := env.Sys.Launch(0, DirtyAppName, strconv.Itoa(mb)); err != nil {
			panic(err)
		}
		task.Compute(200 * time.Millisecond)
		for g := 0; g < 2; g++ {
			r, err := env.Sys.Checkpoint(task)
			if err != nil {
				panic(err)
			}
			env.Sys.Replica.WaitIdle(task)
			if g == 1 {
				// Only the incremental round is comparable to the
				// post-takeover one (both at 10% dirty).
				preT.AddDur(r.Stages.Total)
			}
			for _, p := range env.Sys.ManagedProcesses() {
				TouchHeap(p, 0.10, uint64(g+1))
			}
			task.Compute(50 * time.Millisecond)
		}
		journalKB.Add(float64(env.Sys.Journal.Bytes) / float64(model.KB))

		killAt := task.Now()
		env.C.KillNode(1)
		deadline := task.Now().Add(10 * time.Second)
		for env.Sys.Coord.Node.Down && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if env.Sys.Coord.Node.Down {
			return
		}
		takeT.AddDur(task.Now().Sub(killAt))

		r, err := env.Sys.Checkpoint(task)
		if err != nil {
			return
		}
		postT.AddDur(r.Stages.Total)
		ok = r.NumProcs == 1 && len(env.Sys.ManagedProcesses()) == 1
	})
	return ok
}

// runCoordZeroLossTrial drives the zero-loss pair of claims for one
// seed.  First, the coordinator node is killed after a round's drain
// barrier has committed: the promoted standby must resume the round,
// so rounds-lost stays 0.  Second, a replica holder is killed and the
// promoted coordinator re-fans-out the degraded generations; the trial
// records the rebalance time and, for the QoS claim, the cost of a
// checkpoint round taken while the repair is still shipping (compared
// against an identical incremental round with no repair running).
func runCoordZeroLossTrial(seed int64, mb, standbys int,
	roundsLost *int, rebalT, ckptBase, ckptRepair *Sample) {
	// driver, leader, standby, writer, plus two expendable holders: one
	// killed to time an undisturbed rebalance, one killed to measure a
	// checkpoint round taken while repair traffic is live.
	const nodes = 6
	cfg := dmtcp.Config{
		CoordNode:     1,
		Compress:      true,
		Store:         true,
		StoreKeep:     3,
		ReplicaFactor: 2,
		CoordStandbys: standbys,
	}
	env := NewEnv(seed, nodes, cfg)
	env.Drive(func(task *kernel.Task) {
		if _, err := env.Sys.Launch(3, DirtyAppName, strconv.Itoa(mb)); err != nil {
			panic(err)
		}
		task.Compute(200 * time.Millisecond)
		if _, err := env.Sys.Checkpoint(task); err != nil {
			panic(err)
		}
		env.Sys.Replica.WaitIdle(task)

		// Baseline: an incremental round at 10% dirty with no repair.
		for _, p := range env.Sys.ManagedProcesses() {
			TouchHeap(p, 0.10, 1)
		}
		task.Compute(50 * time.Millisecond)
		rb, err := env.Sys.Checkpoint(task)
		if err != nil {
			panic(err)
		}
		ckptBase.AddDur(rb.Stages.Total)
		env.Sys.Replica.WaitIdle(task)

		// Mid-round kill at the drain boundary: the standby resumes.
		for _, p := range env.Sys.ManagedProcesses() {
			TouchHeap(p, 0.10, 2)
		}
		task.Compute(50 * time.Millisecond)
		co := env.Sys.Coord
		want := len(co.Rounds()) + 1
		var cerr error
		done := false
		task.P.SpawnTask("req", false, func(rt *kernel.Task) {
			_, cerr = env.Sys.Checkpoint(rt)
			done = true
		})
		deadline := task.Now().Add(10 * time.Second)
		for task.Now() < deadline && !done {
			if r := co.Mach.State().Round; r != nil && r.Released["drained"] {
				break
			}
			task.Compute(time.Millisecond)
		}
		env.C.KillNode(1)
		for env.Sys.Coord.Node.Down && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		deadline = task.Now().Add(30 * time.Second)
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done || cerr != nil || len(env.Sys.Coord.Rounds()) < want {
			*roundsLost += want - len(env.Sys.Coord.Rounds())
			return
		}
		env.Sys.Replica.WaitIdle(task)
		co = env.Sys.Coord
		// The takeover may have repaired the dead leader's own holdings;
		// let that drive settle before the measured kills.
		deadline = task.Now().Add(60 * time.Second)
		for !co.RepairIdle() && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}

		// Phase A: kill one holder and time the undisturbed re-fan-out.
		victim := expendableHolder(env, co)
		if victim == "" {
			return
		}
		env.C.KillNode(env.C.LookupHost(victim).ID)
		for !co.RepairIdle() || co.LastRebalance <= 0 {
			if task.Now() >= deadline {
				break
			}
			task.Compute(10 * time.Millisecond)
		}
		if co.LastRebalance > 0 {
			rebalT.AddDur(co.LastRebalance)
		}

		// Phase B: kill another holder and checkpoint while the
		// QoS-paced repair is shipping (the round's new generation then
		// supersedes and cancels it — also the designed behavior).
		victim = expendableHolder(env, co)
		if victim == "" {
			return
		}
		env.C.KillNode(env.C.LookupHost(victim).ID)
		// Let the (static upper-bound) detection window pass so the
		// repair is live, then checkpoint through it.
		task.Compute(env.C.Params.FailureDetectDelay + 20*time.Millisecond)
		for _, p := range env.Sys.ManagedProcesses() {
			TouchHeap(p, 0.10, 3)
		}
		rc, err := env.Sys.Checkpoint(task)
		if err != nil {
			return
		}
		ckptRepair.AddDur(rc.Stages.Total)
	})
}

// expendableHolder picks a live replica holder whose death leaves the
// control plane intact: not the driver node, the active coordinator's
// node, or a generation's writer.
func expendableHolder(env *Env, co *dmtcp.Coordinator) string {
	st := co.Mach.State()
	victim := ""
	for _, name := range bin.SortedKeys(st.Placement) {
		pi := st.Placement[name]
		for _, h := range pi.HolderHosts() {
			n := env.C.LookupHost(h)
			if n == nil || n.Down || h == "node00" || h == co.Node.Hostname || h == pi.Host {
				continue
			}
			victim = h
		}
	}
	return victim
}

// runCoordLoadedTrial is the false-positive probe: the same HA cluster
// under heavy load — background burners contending for the
// coordinator's and standbys' cores, plus full-heap checkpoint rounds
// saturating the network with replication traffic — with no failure at
// all.  Delayed heartbeats must only widen the adaptive deadline; a
// takeover while the leader is alive is a false positive.  Returns
// true when the original coordinator is still in charge at the end.
func runCoordLoadedTrial(seed int64, nodes, mb, standbys int) bool {
	cfg := dmtcp.Config{
		CoordNode:     1,
		Compress:      true,
		Store:         true,
		StoreKeep:     3,
		ReplicaFactor: 2,
		CoordStandbys: standbys,
	}
	env := NewEnv(seed, nodes, cfg)
	env.C.RegisterFunc("burner", func(t *kernel.Task, _ []string) {
		for {
			t.Compute(2 * time.Millisecond)
		}
	})
	ok := true
	env.Drive(func(task *kernel.Task) {
		if _, err := env.Sys.Launch(3, DirtyAppName, strconv.Itoa(mb)); err != nil {
			panic(err)
		}
		// Load the coordinator's node, the first standby's, and the
		// workload's: heartbeat emission and handling now contend for
		// cores, so inter-arrival jitter is real.
		for _, n := range []kernel.NodeID{1, 2, 3} {
			for i := 0; i < 3; i++ {
				if _, err := env.C.Node(n).Kern.Spawn("burner", nil, nil); err != nil {
					panic(err)
				}
			}
		}
		task.Compute(200 * time.Millisecond)
		for g := 0; g < 3; g++ {
			for _, p := range env.Sys.ManagedProcesses() {
				TouchHeap(p, 1.0, uint64(g+1))
			}
			task.Compute(50 * time.Millisecond)
			if _, err := env.Sys.Checkpoint(task); err != nil {
				ok = false
				return
			}
		}
		env.Sys.Replica.WaitIdle(task)
		if env.Sys.Coord.Node.ID != 1 || env.Sys.Coord.Node.Down {
			ok = false
		}
	})
	return ok
}
