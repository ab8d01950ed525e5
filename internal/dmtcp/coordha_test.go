package dmtcp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
)

// Coordinator HA coverage: journaled state machine, standby takeover,
// manager resync, and recovery with the coordinator among the dead.

// haConfig puts the coordinator on node 1 (the test driver runs on
// node 0 and must survive the coordinator-node kill) with one standby
// on node 2.
func haConfig() Config {
	return Config{
		CoordNode:     1,
		Compress:      true,
		Store:         true,
		StoreKeep:     3,
		ReplicaFactor: 2,
		CoordStandbys: 1,
	}
}

// waitTakeover blocks until a standby has been promoted (the active
// coordinator's node is alive again).
func waitTakeover(t *testing.T, task *kernel.Task, e *env) {
	t.Helper()
	deadline := task.Now().Add(10 * time.Second)
	for e.sys.Coord.Node.Down && task.Now() < deadline {
		task.Compute(20 * time.Millisecond)
	}
	if e.sys.Coord.Node.Down {
		t.Fatal("no standby took over")
	}
}

// runHACounter runs the counter workload under cfg, optionally
// killing the coordinator node mid-computation, and returns the final
// output file contents (the checksum the acceptance criterion
// compares) and the number of replica daemons running once the first
// round is in.
func runHACounter(t *testing.T, cfg Config, kill bool) (string, int) {
	t.Helper()
	e := newEnv(t, 4, cfg)
	daemons := 0
	const out = "/san/out/coordha"
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(3, "counter", "400", out); err != nil {
			t.Error(err)
			return
		}
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Errorf("pre-kill checkpoint: %v", err)
			return
		}
		for _, n := range e.c.Nodes() {
			for _, p := range n.Kern.Processes() {
				if p.ProgName == "dmtcp_replicad" {
					daemons++
				}
			}
		}
		if e.sys.Replica != nil {
			e.sys.Replica.WaitIdle(task)
		}
		if kill {
			preRounds := len(e.sys.Coord.Rounds())
			if killed := e.c.KillNode(1); killed == 0 {
				t.Error("coordinator node kill terminated nothing")
				return
			}
			waitTakeover(t, task, e)
			if e.sys.Coord.Node.ID != 2 {
				t.Errorf("takeover by node %d, want the standby on node 2", e.sys.Coord.Node.ID)
			}
			// The standby replayed the journal: the pre-kill round and
			// its placement map survived the coordinator's death.
			if got := len(e.sys.Coord.Rounds()); got != preRounds {
				t.Errorf("standby replayed %d rounds, leader had %d", got, preRounds)
			}
			if e.sys.Coord.LastRound().Bytes != r1.Bytes {
				t.Error("replayed round diverges from the leader's record")
			}
		}
		// A post-(take-over) checkpoint must work: the live manager
		// reconnects and resyncs with the promoted standby.
		task.Compute(50 * time.Millisecond)
		r2, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Errorf("post-takeover checkpoint: %v", err)
			return
		}
		if r2.NumProcs != 1 {
			t.Errorf("post-takeover round procs = %d, want 1", r2.NumProcs)
		}
		// Let the computation finish untouched: coordinator failover is
		// control-plane only, so the data plane's output must be
		// byte-identical to a run that never lost its coordinator.
		deadline := task.Now().Add(60 * time.Second)
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
		t.Fatal("no output file")
	}
	return string(ino.Data), daemons
}

// TestCoordinatorFailoverMidComputation is the headline HA scenario:
// the coordinator node dies mid-computation, the standby replays the
// journal and takes over, the live manager resyncs, and the completed
// run's checksum matches a run that never lost its coordinator.
//
// Coordinator HA needs no storage service: without a Store the journal
// still ships coordinator to coordinator, the takeover still happens,
// and no replica daemon runs on any node.
func TestCoordinatorFailoverMidComputation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		daemons bool
	}{
		{"replicated store", haConfig(), true},
		{"standbys only", Config{CoordNode: 1, Compress: true, CoordStandbys: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			killed, daemons := runHACounter(t, tc.cfg, true)
			control, _ := runHACounter(t, tc.cfg, false)
			if !strings.Contains(killed, "done") {
				t.Fatalf("killed run did not finish:\n%s", killed)
			}
			if killed != control {
				t.Fatalf("post-takeover checksum differs from unkilled run:\nkilled:\n%s\ncontrol:\n%s", killed, control)
			}
			if (daemons > 0) != tc.daemons {
				t.Errorf("%d dmtcp_replicad processes ran, want some: %v", daemons, tc.daemons)
			}
		})
	}
}

// TestKillCoordinatorMidRound kills the coordinator node between the
// suspended and drained barriers of a round.  The takeover resumes the
// orphaned round: synchronous barrier commits mean the standby's
// journal replay lands on the exact stage in flight, the resyncing
// managers re-credit the barriers they already passed, and the same
// round completes under the promoted standby (see zeroloss_test.go for
// the full per-stage sweep).
func TestKillCoordinatorMidRound(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/midround-a")
		e.sys.Launch(3, "counter", "5000", "/out/midround-b")
		task.Compute(50 * time.Millisecond)
		var round *CkptRound
		var cerr error
		done := false
		task.P.SpawnTask("req", false, func(rt *kernel.Task) {
			round, cerr = e.sys.Checkpoint(rt)
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
		r := co.st().Round
		if r == nil || !r.Released["suspended"] {
			t.Fatal("round never reached the drain stage")
		}
		if r.Released["drained"] {
			t.Fatal("drained barrier already released: the kill would miss the drain window")
		}
		e.c.KillNode(1) // the coordinator dies mid-round
		waitTakeover(t, task, e)
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatal("checkpoint request wedged across the takeover")
		}
		if cerr != nil {
			t.Fatalf("checkpoint across takeover: %v", cerr)
		}
		if round == nil || round.NumProcs != 2 {
			t.Fatalf("post-takeover round = %+v, want 2 participants", round)
		}
		// Both managers resumed: the computation keeps making progress.
		n0 := len(readLines(t, e.c.Node(0), "/out/midround-a"))
		task.Compute(500 * time.Millisecond)
		if n := len(readLines(t, e.c.Node(0), "/out/midround-a")); n <= n0 {
			t.Errorf("manager on node00 stayed suspended after the aborted round (%d → %d lines)", n0, n)
		}
		// The standby-recorded round is fully usable: kill everything
		// and restart both processes from it.
		e.sys.Replica.WaitIdle(task)
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, round, nil); err != nil {
			t.Fatalf("restart from post-takeover round: %v", err)
		}
		task.Compute(100 * time.Millisecond)
		if n := e.sys.NumManaged(); n != 2 {
			t.Errorf("managed after restart = %d, want 2", n)
		}
	})
}

// TestRecoverWithCoordinatorAmongDead: the coordinator node also
// hosts a managed process; killing it loses both.  Recover must wait
// out the standby takeover, then restart the lost process on a
// surviving replica holder from the journal-replayed placement map.
func TestRecoverWithCoordinatorAmongDead(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(1, "counter", "60", "/san/out/coorddead")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		e.c.KillNode(1) // kills the app AND the coordinator
		rec, err := e.sys.Recover(task)
		if err != nil {
			t.Fatalf("recover with dead coordinator: %v", err)
		}
		if len(rec.DeadHosts) != 1 || rec.DeadHosts[0] != "node01" {
			t.Errorf("dead hosts = %v", rec.DeadHosts)
		}
		if target := rec.Targets["node01"]; target == "" || target == "node01" {
			t.Fatalf("recovery target = %q", rec.Targets)
		}
		if e.sys.Coord.Node.ID != 2 {
			t.Errorf("recovery ran under node %d, want the promoted standby on node 2", e.sys.Coord.Node.ID)
		}
		task.Compute(100 * time.Millisecond)
		if n := e.sys.NumManaged(); n != 1 {
			t.Fatalf("managed after recovery = %d", n)
		}
		deadline := task.Now().Add(60 * time.Second)
		for task.Now() < deadline {
			if ino, err := e.c.Node(0).FS.ReadFile("/san/out/coorddead"); err == nil &&
				strings.Contains(string(ino.Data), "done") {
				break
			}
			task.Compute(100 * time.Millisecond)
		}
		ino, err := e.c.Node(0).FS.ReadFile("/san/out/coorddead")
		if err != nil || !strings.Contains(string(ino.Data), "done") {
			t.Fatal("computation did not finish after coordinator-node recovery")
		}
	})
}

// TestCheckpointErrorsWhenCoordinatorAndStandbyDie: with the whole
// coordinator set gone, the retry path must give up with a typed
// RoundLostError instead of wedging the session.  No round ever
// started, so the error reports the idle phase.
func TestCheckpointErrorsWhenCoordinatorAndStandbyDie(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(3, "counter", "50000", "/out/nocoord")
		task.Compute(50 * time.Millisecond)
		e.c.KillNode(1)
		e.c.KillNode(2)
		_, err := e.sys.Checkpoint(task)
		if err == nil {
			t.Fatal("checkpoint succeeded with every coordinator dead")
		}
		var lost *RoundLostError
		if !errors.As(err, &lost) {
			t.Fatalf("err = %v (%T), want *RoundLostError", err, err)
		}
		if lost.Tag != -1 || lost.Phase != "idle" {
			t.Errorf("RoundLostError = tag %d phase %q, want tag -1 phase \"idle\" (no round started)",
				lost.Tag, lost.Phase)
		}
	})
}

// runTakeoverTimed kills the coordinator node after a warm-up long
// enough for the heartbeat history to be statistically trusted, and
// returns how long the standby took to promote itself.  adaptive=false
// turns the health plane off (HeartbeatInterval=0), so the election
// falls back to the static FailureDetectDelay.
func runTakeoverTimed(t *testing.T, adaptive bool) time.Duration {
	t.Helper()
	e := newEnv(t, 4, haConfig())
	if !adaptive {
		e.c.Params.HeartbeatInterval = 0
	}
	var elapsed time.Duration
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(3, "counter", "400", "/san/out/timed"); err != nil {
			t.Error(err)
			return
		}
		// Warm-up: several heartbeat periods plus a checkpoint round, so
		// the journaled inter-arrival history reaches the standby.
		task.Compute(300 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Error(err)
			return
		}
		e.sys.Replica.WaitIdle(task)
		killAt := task.Now()
		e.c.KillNode(1)
		deadline := task.Now().Add(10 * time.Second)
		for e.sys.Coord.Node.Down && task.Now() < deadline {
			task.Compute(5 * time.Millisecond)
		}
		if e.sys.Coord.Node.Down {
			t.Error("no standby took over")
			return
		}
		elapsed = task.Now().Sub(killAt)
	})
	return elapsed
}

// TestAdaptiveTakeoverBeatsStaticDelay pins the phi-accrual detector's
// headline: with journaled heartbeat history, a silent coordinator is
// declared dead at the adaptive deadline, so the standby promotes
// itself strictly inside the static FailureDetectDelay+ElectionTimeout
// budget — and turning the health plane off restores the full static
// wait.
func TestAdaptiveTakeoverBeatsStaticDelay(t *testing.T) {
	p := model.Default()
	budget := p.FailureDetectDelay + p.ElectionTimeout
	adaptive := runTakeoverTimed(t, true)
	static := runTakeoverTimed(t, false)
	if adaptive >= budget {
		t.Errorf("adaptive takeover %v >= static budget %v", adaptive, budget)
	}
	if adaptive < p.PhiFloor {
		t.Errorf("adaptive takeover %v beat the phi floor %v: detector too aggressive", adaptive, p.PhiFloor)
	}
	if static < budget {
		t.Errorf("static takeover %v < detect+election %v: static path not actually static", static, budget)
	}
	if adaptive >= static {
		t.Errorf("adaptive takeover %v not faster than static %v", adaptive, static)
	}
}

// TestTakeoverInheritsHealthRegistry pins journal inheritance: the
// promoted standby's replayed state machine carries the dead leader's
// heartbeat history, so its failure detector keeps its adaptive
// deadlines instead of resetting to the static delay.
func TestTakeoverInheritsHealthRegistry(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	p := e.c.Params
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(3, "counter", "400", "/san/out/inherit"); err != nil {
			t.Error(err)
			return
		}
		task.Compute(300 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Error(err)
			return
		}
		e.sys.Replica.WaitIdle(task)
		e.c.KillNode(1)
		waitTakeover(t, task, e)
		st := e.sys.Coord.st()
		if len(st.Health) == 0 {
			t.Fatal("promoted standby has an empty health registry")
		}
		// The beating hosts' history survived the takeover with enough
		// samples to stay adaptive: the manager's node and the dead
		// leader itself (whose history is what the election consulted).
		for _, host := range []string{"node01", "node03"} {
			h := st.Health[host]
			if h == nil {
				t.Errorf("no inherited health entry for %s", host)
				continue
			}
			if h.Count < 4 {
				t.Errorf("%s: inherited %d beats, want >= 4 (adaptive threshold)", host, h.Count)
			}
			d := st.HostDeadline(host, p.PhiTimeoutFactor, p.PhiFloor, p.FailureDetectDelay)
			if d >= p.FailureDetectDelay {
				t.Errorf("%s: post-takeover deadline %v not adaptive (static %v)",
					host, d, p.FailureDetectDelay)
			}
		}
		// The promoted leader's live registry starts from those
		// summaries.  After node03 has beaten it for a while, its
		// deadline must still be adaptive: the time without a leader is
		// not an inter-arrival, so it never widens the statistics.
		inherited := st.Health["node03"].Count
		task.Compute(300 * time.Millisecond)
		h := e.sys.Coord.health["node03"]
		if h == nil || h.Count < inherited+4 {
			t.Errorf("node03 barely beat the promoted leader: %+v (inherited %d beats)", h, inherited)
			return
		}
		if d := h.Deadline(p.PhiTimeoutFactor, p.PhiFloor, p.FailureDetectDelay); d >= p.FailureDetectDelay {
			t.Errorf("node03: deadline %v after beating the promoted leader, not adaptive (static %v)",
				d, p.FailureDetectDelay)
		}
	})
}

// sleeperProg is a managed process that only sleeps: its manager keeps
// beating while the session does nothing else.
type sleeperProg struct{}

func (sleeperProg) Main(t *kernel.Task, _ []string) {
	t.MapAnon("[heap]", 4*model.MB, model.ClassData)
	for {
		t.Idle(time.Second)
	}
}

// TestJournalBoundedWhileIdle pins that nothing is journaled per unit
// of time: once a round has shipped, every manager and the leader keep
// beating, yet neither the leader's journal nor the standby's grows
// however long the session idles.
func TestJournalBoundedWhileIdle(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.c.Register("sleeper", sleeperProg{})
	e.drive(t, func(task *kernel.Task) {
		for n := kernel.NodeID(1); n <= 3; n++ {
			if _, err := e.sys.Launch(n, "sleeper"); err != nil {
				t.Error(err)
				return
			}
		}
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Error(err)
			return
		}
		e.sys.Replica.WaitIdle(task)
		standby := e.sys.coords[1]
		type journal struct{ seq, bytes, standbySeq, beats int64 }
		var at []journal
		start := task.Now()
		for _, idle := range []time.Duration{10 * time.Second, 60 * time.Second} {
			task.Idle(start.Add(idle).Sub(task.Now()))
			co := e.sys.Coord
			at = append(at, journal{co.Mach.Seq(), int64(len(co.Mach.JournalBytes())),
				standby.Mach.Seq(), co.health["node03"].Count})
		}
		if e.sys.NumManaged() != 3 || at[1].beats <= at[0].beats {
			t.Errorf("managers stopped beating while idle (managed %d, node03 beats %d → %d)",
				e.sys.NumManaged(), at[0].beats, at[1].beats)
		}
		if at[0].seq != at[1].seq || at[0].bytes != at[1].bytes || at[0].standbySeq != at[1].standbySeq {
			t.Errorf("journal grew while idle: leader seq %d → %d (%d → %d B), standby seq %d → %d",
				at[0].seq, at[1].seq, at[0].bytes, at[1].bytes, at[0].standbySeq, at[1].standbySeq)
		}
	})
}

// TestSingleStandbyRoundsCommitPromptly: with one standby a release
// needs its ack (quorum 2), so a shipper that backed off after a push
// the standby fully acked — entries applied meanwhile — would hold the
// release for its whole retry delay.  No round may spend more than
// BarrierAckTimeout outside its five stages.  Stage jitter spreads the
// arrivals so some land while a push is in flight.
func TestSingleStandbyRoundsCommitPromptly(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.c.Params.JitterPct = 0.06
	slack := e.c.Params.BarrierAckTimeout
	e.drive(t, func(task *kernel.Task) {
		for n := kernel.NodeID(1); n <= 3; n++ {
			if _, err := e.sys.Launch(n, "counter", "2000", fmt.Sprintf("/out/prompt%d", n)); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 30; i++ {
			task.Compute(50 * time.Millisecond)
			r, err := e.sys.Checkpoint(task)
			if err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
			st := r.Stages
			stages := st.Suspend + st.Elect + st.Drain + st.Write + st.Refill
			if st.Total-stages > slack {
				t.Errorf("round %d: total %v exceeds its stages %v by more than %v",
					i, st.Total, stages, slack)
			}
		}
	})
}

// TestRecoverUsesAdaptiveDeadline pins node-death detection on the
// Recover path: with a warm heartbeat history for the dead node, the
// pre-recovery silence wait is the adaptive deadline, so recovery
// completes measurably sooner than with the health plane off — and the
// gap is at least the detector headroom (static delay minus the
// adaptive cap's practical range).
func TestRecoverUsesAdaptiveDeadline(t *testing.T) {
	recoverTimed := func(adaptive bool) time.Duration {
		cfg := Config{Compress: true, Store: true, StoreKeep: 3, ReplicaFactor: 2}
		e := newEnv(t, 3, cfg)
		if !adaptive {
			e.c.Params.HeartbeatInterval = 0
		}
		var took time.Duration
		e.drive(t, func(task *kernel.Task) {
			e.sys.Launch(1, "counter", "60", "/san/out/adaptiverec")
			// Warm-up so the dead-to-be node's inter-arrival stats are
			// trusted before it goes silent.
			task.Compute(300 * time.Millisecond)
			if _, err := e.sys.Checkpoint(task); err != nil {
				t.Error(err)
				return
			}
			e.sys.Replica.WaitIdle(task)
			e.c.KillNode(1)
			rec, err := e.sys.Recover(task)
			if err != nil {
				t.Errorf("recover: %v", err)
				return
			}
			took = rec.Took
		})
		return took
	}
	p := model.Default()
	adaptive := recoverTimed(true)
	static := recoverTimed(false)
	if adaptive >= static {
		t.Errorf("adaptive recovery %v not faster than static %v", adaptive, static)
	}
	// Both runs do identical rollback/restart work; the difference is
	// the detection wait, which the adaptive path cuts from
	// FailureDetectDelay toward PhiFloor.
	if headroom := static - adaptive; headroom < (p.FailureDetectDelay-p.PhiFloor)/2 {
		t.Errorf("adaptive recovery saved only %v over static; detection wait not adaptive", headroom)
	}
}

// TestTakeoverSurvivesElectedStandbyDying: a double failure — the
// coordinator dies, and the front-runner standby dies during its own
// election wait.  The staggered election must still promote the
// remaining standby instead of losing the takeover forever.
func TestTakeoverSurvivesElectedStandbyDying(t *testing.T) {
	cfg := haConfig()
	cfg.CoordStandbys = 2 // standbys on node2 and node3
	e := newEnv(t, 5, cfg)
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(4, "counter", "400", "/san/out/double")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		e.c.KillNode(1) // the coordinator
		// Kill the front-runner (lowest-id standby) inside its
		// detection+election window, before it can promote itself.
		task.Compute(100 * time.Millisecond)
		if !e.sys.Coord.Node.Down {
			t.Fatal("takeover fired before the election window — test assumption broken")
		}
		e.c.KillNode(2)
		waitTakeover(t, task, e)
		if e.sys.Coord.Node.ID != 3 {
			t.Fatalf("takeover by node %d, want the surviving standby on node 3", e.sys.Coord.Node.ID)
		}
		task.Compute(50 * time.Millisecond)
		r, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatalf("checkpoint under second-choice standby: %v", err)
		}
		if r.NumProcs != 1 {
			t.Errorf("round procs = %d, want 1", r.NumProcs)
		}
	})
}

// TestFailedRestartReachesRestartAll pins that a restart program's
// fatal error reaches RestartAll when no coordinator answers its dial:
// the report travels in process and needs none.  (A leader that dies
// before it could be told is a case of
// TestStreamedRestartFailsTypedWhenAllHoldersLost.)
func TestFailedRestartReachesRestartAll(t *testing.T) {
	e := newEnv(t, 4, haConfig())
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(3, "counter", "400", "/san/out/nocoord")
		round := checkpointAndKill(t, e, task)
		if round == nil {
			return
		}
		err := restartWithin(t, e, task, round, nil, 30*time.Second, func() {
			// Both coordinators die once the group is journaled,
			// before the restart program can dial either.
			deadline := task.Now().Add(10 * time.Second)
			for e.sys.Coord.st().Restart == nil && task.Now() < deadline {
				task.Idle(time.Millisecond)
			}
			e.c.KillNode(1)
			e.c.KillNode(2)
		})
		if err == nil {
			t.Error("restart succeeded with no coordinator to dial")
		}
	})
}

// checkpointAndKill checkpoints the running workload, lets replication
// quiesce and kills the managed processes, returning the round (nil,
// with the test failed, when the checkpoint errors).
func checkpointAndKill(t *testing.T, e *env, task *kernel.Task) *CkptRound {
	task.Compute(50 * time.Millisecond)
	round, err := e.sys.Checkpoint(task)
	if err != nil {
		t.Errorf("checkpoint: %v", err)
		return nil
	}
	e.sys.Replica.WaitIdle(task)
	e.sys.KillManaged()
	return round
}
