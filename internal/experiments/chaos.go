package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/store"
)

// RunChaos drives seeded randomized fault schedules against a full HA
// deployment (replicated store, scrub daemon, three-instance
// coordinator group) and measures what the robustness plane promises:
// every schedule survives, no checkpoint round is lost to a leader
// partition, silent bit rot is detected and repaired by the scrubber
// without any reader touching the data, and node death recovers in
// detection + rollback + fetch time.
//
// Each trial shuffles four fault kinds into a random order with random
// gaps and dirty fractions, fires them one at a time between
// checkpoint rounds, and closes with a clean round proving the cluster
// is still fully functional:
//
//   - partition leader: the coordinator's host is cut mid-round; the
//     majority side elects via journal-silence detection, resumes the
//     round under the same tag, and the heal converges the deposed
//     leader by truncate-and-replay.
//   - lossy links: every link drops and delays frames (retransmission
//     backoff); a checkpoint round must still commit.
//   - bit rot: one replica holder's chunk is bit-flipped on disk; the
//     background scrubber must find and quarantine it and the repair
//     plane re-source the generation.
//   - node death: the workload's node loses power; Recover restarts it
//     on a surviving replica holder (MTTR).
func RunChaos(o Opts) *Table {
	mb := 96
	if o.Quick {
		mb = 32
	}
	trials := o.trials()
	var ty chaosTally
	for trial := 0; trial < trials; trial++ {
		runChaosTrial(o.Seed+int64(trial), mb, &ty)
	}
	t := &Table{
		ID: "chaos",
		Title: fmt.Sprintf(
			"Chaos schedules: %d MB process, 4 random faults/trial (leader partition, lossy links, bit rot, node death) between checkpoint rounds",
			mb),
		Columns: []string{"fault", "injected", "recovered", "latency (s)", "ckpt under fault (s)"},
		Notes: []string{
			"each trial shuffles the four faults into a random order with random gaps and dirty",
			"  fractions, then proves full function with a clean closing round;",
			"partition latency = leader cut -> majority standby promoted (journal-silence detection;",
			"  the leader's node is alive, so the node-death detector cannot fire);",
			"bit-rot latency = bit flip -> scrubber quarantines the chunk (no reader involved);",
			"node-death latency = MTTR: kill -> workload running again on a replica holder;",
			"rounds lost counts in-flight rounds a promoted leader failed to resume (target 0)",
		},
	}
	row := func(fault string, ok int, lat, ckpt string) {
		t.Rows = append(t.Rows, []string{
			fault, strconv.Itoa(trials), fmt.Sprintf("%d/%d", ok, trials), lat, ckpt})
	}
	row("partition leader", ty.partOK, meanStd(&ty.takeover), "-")
	row("lossy links", ty.flakyOK, "-", meanStd(&ty.flakyCkpt))
	row("bit rot", ty.rotOK, meanStd(&ty.detect), "-")
	row("node death", ty.deathOK, meanStd(&ty.mttr), "-")
	t.Rows = append(t.Rows, []string{
		"whole schedule", strconv.Itoa(trials),
		fmt.Sprintf("%d/%d", ty.survived, trials),
		"-", "-"})
	t.Metric("chaos.trials", float64(trials))
	t.Metric("chaos.survived", float64(ty.survived))
	t.Metric("chaos.rounds_lost", float64(ty.roundsLost))
	t.Metric("chaos.takeover_s", ty.takeover.Mean())
	t.Metric("chaos.ckpt_flaky_s", ty.flakyCkpt.Mean())
	t.Metric("chaos.scrub_detect_s", ty.detect.Mean())
	t.Metric("chaos.mttr_s", ty.mttr.Mean())
	t.Metric("chaos.fenced_writes", float64(ty.fenced))
	return t
}

// chaos fault kinds, shuffled into a per-trial schedule.
const (
	chaosPartition = iota
	chaosFlaky
	chaosBitRot
	chaosNodeDeath
	chaosKinds
)

// chaosTally accumulates per-fault outcomes across trials.
type chaosTally struct {
	takeover, flakyCkpt, detect, mttr Sample
	partOK, flakyOK, rotOK, deathOK   int
	roundsLost, fenced, survived      int
}

// runChaosTrial drives one seed: an HA cluster with the scrub daemon
// on, a dirty-page workload, an initial clean round, the four faults
// in random order (random gaps, random dirty fractions between them),
// and a closing clean round.  The schedule survives only if every
// fault recovered and the closing round committed with the workload
// still managed.
func runChaosTrial(seed int64, mb int, ty *chaosTally) {
	cfg := dmtcp.Config{
		CoordNode:     1, // the driver runs on node 0 and must survive
		Compress:      true,
		Store:         true,
		StoreKeep:     3,
		ReplicaFactor: 2,
		CoordStandbys: 2, // majority side of a leader cut still holds quorum
	}
	env := NewEnv(seed, 6, cfg)
	env.C.Params.ScrubInterval = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(seed * 7919))
	ok := true
	env.Drive(func(task *kernel.Task) {
		if _, err := env.Sys.Launch(4, DirtyAppName, strconv.Itoa(mb)); err != nil {
			panic(err)
		}
		task.Compute(200 * time.Millisecond)
		if _, err := env.Sys.Checkpoint(task); err != nil {
			panic(err)
		}
		env.Sys.Replica.WaitIdle(task)
		for i, kind := range rng.Perm(chaosKinds) {
			for _, p := range env.Sys.ManagedProcesses() {
				TouchHeap(p, 0.05+0.15*rng.Float64(), uint64(i+1))
			}
			task.Compute(time.Duration(50+rng.Intn(150)) * time.Millisecond)
			recovered := false
			switch kind {
			case chaosPartition:
				recovered = chaosPartitionEvent(task, env, ty)
			case chaosFlaky:
				recovered = chaosFlakyEvent(task, env, rng, ty)
			case chaosBitRot:
				recovered = chaosBitRotEvent(task, env, rng, ty)
			case chaosNodeDeath:
				recovered = chaosNodeDeathEvent(task, env, ty)
			}
			if !recovered {
				ok = false
			}
			env.Sys.Replica.WaitIdle(task)
		}
		// Closing round: the cluster must still be fully functional.
		for _, p := range env.Sys.ManagedProcesses() {
			TouchHeap(p, 0.10, uint64(chaosKinds+1))
		}
		task.Compute(50 * time.Millisecond)
		if _, err := env.Sys.Checkpoint(task); err != nil {
			ok = false
		}
		if len(env.Sys.ManagedProcesses()) != 1 {
			ok = false
		}
	})
	ty.fenced += env.Sys.Journal.FencedWrites
	if ok {
		ty.survived++
	}
}

// chaosPartitionEvent cuts the leader's host off mid-round.  The
// majority side must elect (journal-silence detection — the leader's
// node is never Down), resume the in-flight round under the same
// index, and complete it after the heal; anything else counts the
// round as lost.
func chaosPartitionEvent(task *kernel.Task, env *Env, ty *chaosTally) bool {
	co := env.Sys.Coord
	want := len(co.Rounds()) + 1
	done := false
	var cerr error
	task.P.SpawnTask("req", false, func(rt *kernel.Task) {
		_, cerr = env.Sys.Checkpoint(rt)
		done = true
	})
	// Cut once the round's start has reached the standbys, so the
	// promoted one inherits the round in flight.
	deadline := task.Now().Add(10 * time.Second)
	for task.Now() < deadline && !done && !env.Sys.RoundOnStandbys() {
		task.Compute(time.Millisecond)
	}
	cutAt := task.Now()
	id := env.C.IsolateHost(co.Node.Hostname)
	for task.Now() < deadline && env.Sys.Coord == co && !done {
		task.Compute(5 * time.Millisecond)
	}
	promoted := env.Sys.Coord != co
	took := task.Now().Sub(cutAt)
	env.C.HealFault(id)
	deadline = task.Now().Add(30 * time.Second)
	for !done && task.Now() < deadline {
		task.Compute(10 * time.Millisecond)
	}
	if !done || cerr != nil || len(env.Sys.Coord.Rounds()) < want {
		if d := want - len(env.Sys.Coord.Rounds()); d > 0 {
			ty.roundsLost += d
		}
		return false
	}
	if promoted {
		ty.takeover.AddDur(took)
	}
	ty.partOK++
	return true
}

// chaosFlakyEvent turns every link lossy and slow and drives a
// checkpoint round through it: TCP-style retransmission backoff delays
// frames but loses none, so the round must still commit.
func chaosFlakyEvent(task *kernel.Task, env *Env, rng *rand.Rand, ty *chaosTally) bool {
	id := env.C.InjectFault(kernel.FaultRule{
		Drop:         0.01 + 0.03*rng.Float64(),
		ExtraLatency: time.Duration(200+rng.Intn(600)) * time.Microsecond,
		JitterPct:    0.3,
	})
	r, err := env.Sys.Checkpoint(task)
	env.C.HealFault(id)
	if err != nil {
		return false
	}
	ty.flakyCkpt.AddDur(r.Stages.Total)
	ty.flakyOK++
	return true
}

// chaosBitRotEvent flips one bit in a random chunk object on an
// expendable replica holder and waits for the background scrubber to
// detect it (no reader touches the data) and the repair plane to
// settle.  Detection latency is flip → quarantine.
func chaosBitRotEvent(task *kernel.Task, env *Env, rng *rand.Rand, ty *chaosTally) bool {
	host := expendableHolder(env, env.Sys.Coord)
	if host == "" {
		return false
	}
	st := store.Open(env.C.LookupHost(host), store.Config{Root: env.Sys.StoreRoot()})
	pre := env.Sys.Replica.Stats.ScrubCorrupt
	if _, flipped := st.CorruptRandomChunk(rng); !flipped {
		return false
	}
	t0 := task.Now()
	deadline := task.Now().Add(30 * time.Second)
	for task.Now() < deadline && env.Sys.Replica.Stats.ScrubCorrupt == pre {
		task.Compute(20 * time.Millisecond)
	}
	if env.Sys.Replica.Stats.ScrubCorrupt == pre {
		return false
	}
	ty.detect.AddDur(task.Now().Sub(t0))
	// Give the OnCorrupt-driven repair time to re-source the
	// generation, then wait for the repair plane to go idle.
	task.Compute(100 * time.Millisecond)
	deadline = task.Now().Add(30 * time.Second)
	for task.Now() < deadline && !env.Sys.Coord.RepairIdle() {
		task.Compute(20 * time.Millisecond)
	}
	ty.rotOK++
	return true
}

// chaosNodeDeathEvent kills the workload's node and drives recovery;
// MTTR is the full Recover latency (detection, rollback, fetch,
// restart on a surviving replica holder).
func chaosNodeDeathEvent(task *kernel.Task, env *Env, ty *chaosTally) bool {
	procs := env.Sys.ManagedProcesses()
	if len(procs) == 0 {
		return false
	}
	victim := procs[0].Node.ID
	if victim == 0 {
		return false // never kill the driver's node
	}
	env.C.KillNode(victim)
	rec, err := env.Sys.Recover(task)
	if err != nil {
		return false
	}
	ty.mttr.AddDur(rec.Took)
	task.Compute(100 * time.Millisecond)
	for _, p := range env.Sys.ManagedProcesses() {
		if p.Node.ID != victim {
			ty.deathOK++
			return true
		}
	}
	return false
}
