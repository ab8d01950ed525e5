package dmtcp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// Zero-loss control plane coverage: killing the coordinator at every
// round stage boundary must leave a promoted standby that resumes the
// in-flight round (rounds lost = 0), restart groups must survive a
// takeover mid-restart, typed RoundLostError only fires when resume is
// genuinely impossible, and replica re-fan-out restores redundancy
// after a holder dies.

// runStageKill runs the HA counter workload, starts a checkpoint, and
// kills the coordinator node as soon as the named barrier has been
// released (stage "" is the unkilled control run).  It asserts the
// promoted standby resumes the same round — not a fresh retry — and
// returns the workload's final output for checksum comparison.
func runStageKill(t *testing.T, stage string) string {
	t.Helper()
	e := newEnv(t, 4, haConfig())
	out := "/san/out/zl-" + stage
	if stage == "" {
		out = "/san/out/zl-control"
	}
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(3, "counter", "400", out); err != nil {
			t.Error(err)
			return
		}
		task.Compute(50 * time.Millisecond)
		var round *CkptRound
		var cerr error
		done := false
		task.P.SpawnTask("req", false, func(rt *kernel.Task) {
			round, cerr = e.sys.Checkpoint(rt)
			done = true
		})
		co := e.sys.Coord
		preRounds := len(co.Rounds())
		deadline := task.Now().Add(10 * time.Second)
		if stage != "" {
			// Wait for the boundary: the stage's barrier released (the
			// Released flag is sticky for the round's lifetime, so the
			// poll cannot miss the window) or, for the final barrier,
			// the round completing in the same apply.
			preTag := int64(-1)
			for task.Now() < deadline && !done {
				if r := co.st().Round; r != nil && r.Released[stage] {
					preTag = r.Tag
					break
				}
				task.Compute(time.Millisecond)
			}
			if preTag < 0 && !done {
				t.Fatalf("round never released the %q barrier", stage)
			}
			if killed := e.c.KillNode(1); killed == 0 {
				t.Fatal("coordinator node kill terminated nothing")
			}
			waitTakeover(t, task, e)
			if preTag >= 0 {
				// Resume, not abort: the standby either still runs the
				// inherited round under the same tag, or already drove
				// it to completion.
				if r := e.sys.Coord.st().Round; r != nil && r.Tag != preTag {
					t.Errorf("stage %q: standby runs round tag %d, want resumed tag %d",
						stage, r.Tag, preTag)
				} else if r == nil && len(e.sys.Coord.Rounds()) == preRounds && !done {
					t.Errorf("stage %q: standby dropped the in-flight round instead of resuming it", stage)
				}
			}
		}
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatalf("stage %q: checkpoint wedged across the takeover", stage)
		}
		if cerr != nil {
			t.Fatalf("stage %q: checkpoint across takeover: %v", stage, cerr)
		}
		if round == nil || round.NumProcs != 1 {
			t.Fatalf("stage %q: round = %+v, want 1 participant", stage, round)
		}
		// Rounds lost on takeover = 0: exactly the one in-flight round
		// completed; no aborted work was silently redone as a new round.
		if round.Index != preRounds {
			t.Errorf("stage %q: completed round index = %d, want %d (zero rounds lost)",
				stage, round.Index, preRounds)
		}
		if got := len(e.sys.Coord.Rounds()); got != preRounds+1 {
			t.Errorf("stage %q: rounds after takeover = %d, want %d", stage, got, preRounds+1)
		}
		// Data plane untouched: let the computation finish.
		deadline = task.Now().Add(60 * time.Second)
		for task.Now() < deadline {
			if ino, err := e.c.Node(0).FS.ReadFile(out); err == nil &&
				strings.Contains(string(ino.Data), "done") {
				break
			}
			task.Compute(100 * time.Millisecond)
		}
	})
	ino, err := e.c.Node(0).FS.ReadFile(out)
	if err != nil {
		t.Fatalf("stage %q: no output file", stage)
	}
	return string(ino.Data)
}

// TestStageSweepKillCoordinator kills the coordinator at every stage
// boundary of a checkpoint round and asserts the promoted standby
// resumes and completes the same round, with the workload checksum
// identical to a run that never lost its coordinator.
func TestStageSweepKillCoordinator(t *testing.T) {
	control := runStageKill(t, "")
	if !strings.Contains(control, "done") {
		t.Fatalf("control run did not finish:\n%s", control)
	}
	for _, stage := range ckptBarriers {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			got := runStageKill(t, stage)
			if !strings.Contains(got, "done") {
				t.Fatalf("killed run did not finish:\n%s", got)
			}
			if got != control {
				t.Errorf("checksum after kill at %q differs from unkilled run:\nkilled:\n%s\ncontrol:\n%s",
					stage, got, control)
			}
		})
	}
}

// TestRoundLostTypedError: resume is genuinely impossible — the leader
// AND the only standby die mid-round — so Checkpoint must surface a
// typed RoundLostError carrying the lost round's identity and phase.
func TestRoundLostTypedError(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(3, "counter", "50000", "/out/roundlost")
		task.Compute(50 * time.Millisecond)
		var cerr error
		done := false
		task.P.SpawnTask("req", false, func(rt *kernel.Task) {
			_, cerr = e.sys.Checkpoint(rt)
			done = true
		})
		co := e.sys.Coord
		deadline := task.Now().Add(10 * time.Second)
		for task.Now() < deadline {
			if r := co.st().Round; r != nil && r.Released["suspended"] {
				break
			}
			task.Compute(time.Millisecond)
		}
		if r := co.st().Round; r == nil || !r.Released["suspended"] {
			t.Fatal("round never reached the suspend boundary")
		}
		tag := co.st().Round.Tag
		e.c.KillNode(1) // the leader
		e.c.KillNode(2) // the only standby: no takeover can resume
		deadline = task.Now().Add(30 * time.Second)
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatal("checkpoint wedged with every coordinator dead")
		}
		var lost *RoundLostError
		if !errors.As(cerr, &lost) {
			t.Fatalf("err = %v (%T), want *RoundLostError", cerr, cerr)
		}
		if lost.Tag != tag {
			t.Errorf("RoundLostError.Tag = %d, want the in-flight round %d", lost.Tag, tag)
		}
		if lost.Phase == "" || lost.Phase == "idle" {
			t.Errorf("RoundLostError.Phase = %q, want an in-round phase", lost.Phase)
		}
	})
}

// TestRestartResumesAcrossTakeover kills the coordinator while a
// restart group is mid-flight.  The group was journaled at spawn, so
// the promoted standby re-arms the group barriers from the per-rank
// progress and the restart completes instead of wedging.
func TestRestartResumesAcrossTakeover(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	const out = "/san/out/restartresume"
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(3, "counter", "400", out)
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		e.sys.KillManaged()
		var rerr error
		done := false
		task.P.SpawnTask("restart", false, func(rt *kernel.Task) {
			_, rerr = e.sys.RestartAll(rt, round, nil)
			done = true
		})
		// Kill the leader only once the standby's journal replica knows
		// the restart group: the kill then tests resumption from the
		// journal, not the (commit-closed) ship race.
		var standby *Coordinator
		for _, co := range e.sys.coords {
			if co != e.sys.Coord {
				standby = co
			}
		}
		if standby == nil {
			t.Fatal("no standby coordinator configured")
		}
		deadline := task.Now().Add(10 * time.Second)
		for task.Now() < deadline && !done {
			if standby.st().Restart != nil {
				break
			}
			task.Compute(time.Millisecond)
		}
		if !done {
			rg := standby.st().Restart
			if rg == nil {
				t.Fatal("restart group never reached the standby's journal")
			}
			preGen := rg.Gen
			e.c.KillNode(1) // the leader dies mid-restart
			waitTakeover(t, task, e)
			// The promoted standby resumed the inherited group (unless
			// the restart already ran to completion underneath it).
			if r := e.sys.Coord.st().Restart; r != nil && r.Gen != preGen {
				t.Errorf("standby resumed restart group %q, want %q", r.Gen, preGen)
			}
		}
		deadline = task.Now().Add(30 * time.Second)
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatal("restart wedged across the takeover")
		}
		if rerr != nil {
			t.Fatalf("restart across takeover: %v", rerr)
		}
		task.Compute(100 * time.Millisecond)
		if n := e.sys.NumManaged(); n != 1 {
			t.Errorf("managed after restart = %d, want 1", n)
		}
		deadline = task.Now().Add(60 * time.Second)
		for task.Now() < deadline {
			if ino, err := e.c.Node(0).FS.ReadFile(out); err == nil &&
				strings.Contains(string(ino.Data), "done") {
				break
			}
			task.Compute(100 * time.Millisecond)
		}
		ino, err := e.c.Node(0).FS.ReadFile(out)
		if err != nil || !strings.Contains(string(ino.Data), "done") {
			t.Fatal("computation did not finish after restart across takeover")
		}
	})
}

// TestRepairRestoresRedundancy kills a replica holder and asserts the
// coordinator's background re-fan-out restores the full redundancy
// target on surviving nodes, recording the rebalance time.
func TestRepairRestoresRedundancy(t *testing.T) {
	e := newEnv(t, 5, haConfig())
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(3, "counter", "400", "/san/out/repair")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		co := e.sys.Coord
		// Pick a replica holder whose death leaves the cluster healthy
		// enough to repair: not the driver (0), the coordinator (1), or
		// the writer (3).
		victim := ""
		for _, name := range placementNames(co) {
			pi := co.st().Placement[name]
			for _, h := range pi.HolderHosts() {
				if h != "node00" && h != "node01" && h != pi.Host {
					victim = h
				}
			}
		}
		if victim == "" {
			t.Fatal("no expendable replica holder found")
		}
		before := e.sys.Replica.Stats.RepairPushes
		if killed := e.c.KillNode(e.c.LookupHost(victim).ID); killed == 0 {
			t.Fatalf("killing holder %s terminated nothing", victim)
		}
		// Wait for the repair drive to run and go idle again.
		deadline := task.Now().Add(30 * time.Second)
		for task.Now() < deadline {
			if co.LastRebalance > 0 && co.RepairIdle() {
				break
			}
			task.Compute(10 * time.Millisecond)
		}
		if co.LastRebalance <= 0 {
			t.Fatal("repair drive never recorded a rebalance")
		}
		if got := e.sys.Replica.Stats.RepairPushes; got <= before {
			t.Errorf("repair pushes = %d, want > %d", got, before)
		}
		// Redundancy restored: no placement entry remains degraded.
		for _, name := range placementNames(co) {
			if _, degraded := co.planRepair(name); degraded {
				t.Errorf("%s still degraded after repair", name)
			}
		}
		// The repaired generations stay fully usable: a post-repair
		// checkpoint round works against the rebalanced cluster.
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Errorf("post-repair checkpoint: %v", err)
		}
	})
}

// TestRebalanceCountsEachRepairOnce degrades two generations at once:
// node02's and node03's counters both replicate to node04, which then
// dies.  One repair pass re-ships both, and the coord.rebalance span
// must report exactly the copies the repair pushes made — each repair
// counts only its own completed peers, not its neighbours'.
func TestRebalanceCountsEachRepairOnce(t *testing.T) {
	e := newEnv(t, 5, haConfig())
	e.c.Trace = obs.NewTracer()
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(2, "counter", "400", "/san/out/rebal-a")
		e.sys.Launch(3, "counter", "400", "/san/out/rebal-b")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		co := e.sys.Coord
		for _, name := range placementNames(co) {
			if pi := co.st().Placement[name]; pi.Holders["node04"] < 1 {
				t.Fatalf("%s not replicated to node04: %+v", name, pi.Holders)
			}
		}
		before := e.sys.Replica.Stats.RepairPushes
		e.c.KillNode(4)
		deadline := task.Now().Add(30 * time.Second)
		for task.Now() < deadline && (co.LastRebalance <= 0 || !co.RepairIdle()) {
			task.Compute(10 * time.Millisecond)
		}
		if co.LastRebalance <= 0 {
			t.Fatal("repair drive never recorded a rebalance")
		}
		pushes := int64(e.sys.Replica.Stats.RepairPushes - before)
		if pushes != 2 {
			t.Errorf("repair pushes = %d, want 2 (one per degraded generation)", pushes)
		}
		var copies []int64
		for _, ev := range e.c.Trace.Events() {
			if ev.Name != "coord.rebalance" {
				continue
			}
			for _, a := range ev.Args {
				if a.Key == "copies" {
					copies = append(copies, a.Val)
				}
			}
		}
		if len(copies) != 1 || copies[0] != pushes {
			t.Errorf("coord.rebalance copies = %v, want [%d] (the repair pushes made)", copies, pushes)
		}
	})
}

// placementNames returns the coordinator's placement keys in
// deterministic order.
func placementNames(co *Coordinator) []string {
	out := make([]string, 0, len(co.st().Placement))
	for name := range co.st().Placement {
		out = append(out, name)
	}
	return out
}

// TestRepairCancelledWhenSuperseded throttles repair hard (RepairQoS),
// kills a holder, and commits a newer checkpoint generation while the
// repair of the old one is still shipping.  The stale repair must
// cancel cleanly — its pins released, the drive going idle — instead
// of pushing an aged-out generation under the new one.
func TestRepairCancelledWhenSuperseded(t *testing.T) {
	e := newEnv(t, 5, haConfig())
	e.c.Params.RepairQoS = 0.01 // ~99x pacing: a wide mid-repair window
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(3, "counter", "50000", "/san/out/repaircancel")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		co := e.sys.Coord
		victim := ""
		for _, name := range placementNames(co) {
			pi := co.st().Placement[name]
			for _, h := range pi.HolderHosts() {
				if h != "node00" && h != "node01" && h != pi.Host {
					victim = h
				}
			}
		}
		if victim == "" {
			t.Fatal("no expendable replica holder found")
		}
		e.c.KillNode(e.c.LookupHost(victim).ID)
		// Wait out the full (static upper-bound) detection delay so the
		// repair pass has planned and opened its throttled streams.
		task.Compute(e.c.Params.FailureDetectDelay + 20*time.Millisecond)
		if co.RepairIdle() {
			t.Fatal("repair drive finished before a supersede could be tested")
		}
		deadline := task.Now().Add(30 * time.Second)
		cancels := e.sys.Replica.Stats.RepairCancels
		// Commit a newer generation mid-repair: the old one is
		// superseded and its repair must cancel.
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatalf("checkpoint during repair: %v", err)
		}
		for task.Now() < deadline {
			if co.RepairIdle() && e.sys.Replica.Stats.RepairCancels > cancels {
				break
			}
			task.Compute(10 * time.Millisecond)
		}
		if got := e.sys.Replica.Stats.RepairCancels; got <= cancels {
			t.Errorf("repair cancels = %d, want > %d (superseded generation)", got, cancels)
		}
		// The cancel released every pin: the retention pass can prune.
		e.sys.Replica.WaitIdle(task)
		for task.Now() < deadline && !co.RepairIdle() {
			task.Compute(10 * time.Millisecond)
		}
		if !co.RepairIdle() {
			t.Error("repair drive wedged after cancellation")
		}
	})
}
