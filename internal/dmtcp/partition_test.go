package dmtcp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// Partition-proof fencing coverage: cutting the leader off with a
// network partition (its node stays alive) at every round stage
// boundary must produce the same zero-loss convergence the node-death
// sweep guarantees — the standby silence watchdog promotes a new
// leader on the majority side, the deposed leader's releases stay
// fenced, and the healed partition converges by truncate-and-replay.

// haPartitionConfig is haConfig with a three-instance coordinator
// group, so the majority side of a leader-isolating cut still holds a
// quorum (two of three) and can elect.
func haPartitionConfig() Config {
	cfg := haConfig()
	cfg.CoordStandbys = 2
	return cfg
}

// cutAtOpen is the partition sweep's earliest cut point: the leader is
// isolated as soon as the round opens, before any barrier release.
const cutAtOpen = "open"

// cutAtJournaled isolates the leader once the round's start has
// reached both standbys (System.RoundOnStandbys), before any barrier
// release: the promoted standby resumes a round whose checkpoint
// request may already be on its way to the manager, which must still
// run the round once.
const cutAtJournaled = "journaled"

// runStagePartition runs the HA counter workload, starts a
// checkpoint, and isolates the leader's host as soon as the named
// barrier has been released, or at cutAtOpen or cutAtJournaled (stage
// "" is the uncut control run).  It asserts a standby promotes itself
// via journal-silence detection (the leader's node is never Down, so
// the node-death detector cannot fire), heals the cut after takeover,
// and checks the deposed leader steps down and converges onto the new
// epoch and that no manager ran a round twice.  It returns the
// workload's final output for checksum comparison.
func runStagePartition(t *testing.T, stage string) string {
	t.Helper()
	e := newEnv(t, 5, haPartitionConfig())
	e.c.Trace = obs.NewTracer()
	out := "/san/out/part-" + stage
	if stage == "" {
		out = "/san/out/part-control"
	}
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(4, "counter", "400", out); err != nil {
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
		old := e.sys.Coord
		preRounds := len(old.Rounds())
		deadline := task.Now().Add(20 * time.Second)
		if stage != "" {
			preTag := int64(-1)
			for task.Now() < deadline && !done {
				if r := old.st().Round; r != nil && (stage == cutAtOpen || r.Released[stage] ||
					stage == cutAtJournaled && e.sys.RoundOnStandbys()) {
					if (stage == cutAtOpen || stage == cutAtJournaled) && len(r.Released) > 0 {
						t.Fatalf("round released %v before the %s cut", r.Released, stage)
					}
					preTag = r.Tag
					break
				}
				task.Compute(time.Millisecond)
			}
			if preTag < 0 && !done {
				t.Fatalf("round never released the %q barrier", stage)
			}
			e.c.IsolateHost(old.Node.Hostname)
			// The leader is alive but unreachable: only the standby
			// watchdog's journal-silence detection can elect here.
			for task.Now() < deadline && e.sys.Coord == old && !done {
				task.Compute(5 * time.Millisecond)
			}
			if e.sys.Coord == old && !done {
				t.Fatal("no standby promoted itself across the partition")
			}
			if preTag >= 0 && stage != cutAtOpen && e.sys.Coord != old {
				// Resume, not abort: the new leader either still runs
				// the inherited round under the same tag, or already
				// drove it to completion.  (A round cut before any
				// barrier release has nothing committed to resume.)
				if r := e.sys.Coord.st().Round; r != nil && r.Tag != preTag {
					t.Errorf("stage %q: new leader runs round tag %d, want resumed tag %d",
						stage, r.Tag, preTag)
				} else if r == nil && len(e.sys.Coord.Rounds()) == preRounds && !done {
					t.Errorf("stage %q: new leader dropped the in-flight round instead of resuming it", stage)
				}
			}
			e.c.HealAllFaults()
		}
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatalf("stage %q: checkpoint wedged across the partition", stage)
		}
		if cerr != nil {
			t.Fatalf("stage %q: checkpoint across partition: %v", stage, cerr)
		}
		if round == nil || round.NumProcs != 1 {
			t.Fatalf("stage %q: round = %+v, want 1 participant", stage, round)
		}
		// Rounds lost on takeover = 0: exactly the one in-flight round
		// completed; nothing was silently redone as a new round.
		if round.Index != preRounds {
			t.Errorf("stage %q: completed round index = %d, want %d (zero rounds lost)",
				stage, round.Index, preRounds)
		}
		if got := len(e.sys.Coord.Rounds()); got != preRounds+1 {
			t.Errorf("stage %q: rounds after takeover = %d, want %d", stage, got, preRounds+1)
		}
		if stage != "" && e.sys.Coord != old {
			// The deposed leader learns of the new epoch through the
			// healed link, steps down, and is replayed back into a
			// consistent mirror (truncate-and-replay past the fence).
			lead := e.sys.Coord
			deadline = task.Now().Add(10 * time.Second)
			for task.Now() < deadline {
				if old.Standby && old.Mach.Epoch() == lead.Mach.Epoch() {
					break
				}
				task.Compute(10 * time.Millisecond)
			}
			if !old.Standby {
				t.Errorf("stage %q: deposed leader never stepped down", stage)
			}
			if old.Mach.Epoch() != lead.Mach.Epoch() {
				t.Errorf("stage %q: deposed leader on epoch %d, leader on %d (no convergence)",
					stage, old.Mach.Epoch(), lead.Mach.Epoch())
			}
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
	// A resync re-sends the request for the round in progress to a
	// manager that has passed no barrier of it; the manager is already
	// running that round and must not checkpoint it a second time.
	runs := map[[2]int64]int{}
	for _, ev := range e.c.Trace.Events() {
		if ev.Name != "ckpt.round" {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == "tag" {
				runs[[2]int64{int64(ev.Pid), a.Val}]++
			}
		}
	}
	for k, n := range runs {
		if n > 1 {
			t.Errorf("stage %q: a manager ran round tag %d %d times", stage, k[1], n)
		}
	}
	ino, err := e.c.Node(0).FS.ReadFile(out)
	if err != nil {
		t.Fatalf("stage %q: no output file", stage)
	}
	return string(ino.Data)
}

// TestStageSweepPartitionLeader isolates the leader's host as the
// round opens, once its start has reached the standbys, and at every
// stage boundary of a checkpoint round, and asserts the silently
// promoted standby resumes and completes the same round, each manager
// running it once, with the workload checksum identical to a run that
// never lost connectivity.
func TestStageSweepPartitionLeader(t *testing.T) {
	control := runStagePartition(t, "")
	if !strings.Contains(control, "done") {
		t.Fatalf("control run did not finish:\n%s", control)
	}
	for _, stage := range append([]string{cutAtOpen, cutAtJournaled}, ckptBarriers...) {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			got := runStagePartition(t, stage)
			if !strings.Contains(got, "done") {
				t.Fatalf("partitioned run did not finish:\n%s", got)
			}
			if got != control {
				t.Errorf("checksum after partition at %q differs from uncut run:\ncut:\n%s\ncontrol:\n%s",
					stage, got, control)
			}
		})
	}
}

// TestMinorityLeaderCannotCommit partitions the leader TOGETHER with
// the workload host away from the rest of the cluster.  The round's
// opening release stalls below the commit quorum, so the minority
// leader never sends a single checkpoint command: no barrier is
// released, its machine pins the old epoch, and the caller never sees
// the round complete while the cluster is split.  The majority elects
// a new leader; after the heal the deposed leader's journal push is
// fenced (ErrDeposed), it steps down, the manager re-binds, and the
// workload's tick log stays exactly-once.
func TestMinorityLeaderCannotCommit(t *testing.T) {
	e := newEnv(t, 5, haPartitionConfig())
	const out = "/san/out/part-minority"
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(4, "counter", "1200", out); err != nil {
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
		old := e.sys.Coord
		preRounds := len(old.Rounds())
		preEpoch := old.Mach.Epoch()
		// Cut as soon as the round exists, before its opening release
		// can commit: the quorum gate must hold it back forever.
		deadline := task.Now().Add(20 * time.Second)
		for task.Now() < deadline && old.st().Round == nil {
			task.Compute(time.Millisecond)
		}
		if old.st().Round == nil {
			t.Fatal("round never started")
		}
		e.c.PartitionHosts(
			[]string{old.Node.Hostname, "node04"},
			[]string{"node00", "node02", "node03"})
		// Majority side elects (journal-silence watchdog; no node is
		// Down, so the node-death detector cannot fire).
		for task.Now() < deadline && e.sys.Coord == old {
			task.Compute(5 * time.Millisecond)
		}
		if e.sys.Coord == old {
			t.Fatal("majority side never elected a new leader")
		}
		// Let the minority side stew: the deposed leader must not make
		// any fenced progress — no barrier released, no round closed,
		// no epoch movement — and the client-visible checkpoint must
		// not report success from the quorum-less side.
		settle := task.Now().Add(time.Second)
		for task.Now() < settle {
			task.Compute(20 * time.Millisecond)
			if r := old.st().Round; r != nil && len(r.Released) > 0 {
				t.Fatalf("minority leader released barriers %v while partitioned", r.Released)
			}
		}
		if len(old.Rounds()) != preRounds {
			t.Errorf("minority leader closed a round while partitioned (%d -> %d rounds)",
				preRounds, len(old.Rounds()))
		}
		if old.Mach.Epoch() != preEpoch {
			t.Errorf("minority leader moved epochs while partitioned (%d -> %d)",
				preEpoch, old.Mach.Epoch())
		}
		if done {
			t.Error("checkpoint reported done while no quorum side could commit")
		}
		e.c.HealAllFaults()
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatal("checkpoint wedged after the heal")
		}
		if cerr != nil {
			t.Fatalf("checkpoint across minority partition: %v", cerr)
		}
		// The round the majority leader inherited completes exactly
		// once.  (If the partition outlives the resync window the new
		// leader may have closed it without the unreachable client —
		// what matters here is that completion came from the quorum
		// side, exactly once, and never from the deposed leader.)
		if round == nil || round.Index != preRounds {
			t.Fatalf("round = %+v, want resumed round index %d (zero rounds lost)", round, preRounds)
		}
		// Deposed leader stepped down and converged.
		lead := e.sys.Coord
		deadline = task.Now().Add(10 * time.Second)
		for task.Now() < deadline {
			if old.Standby && old.Mach.Epoch() == lead.Mach.Epoch() {
				break
			}
			task.Compute(10 * time.Millisecond)
		}
		if !old.Standby {
			t.Error("deposed minority leader never stepped down")
		}
		if old.Mach.Epoch() != lead.Mach.Epoch() {
			t.Errorf("deposed leader on epoch %d, leader on %d (no convergence)",
				old.Mach.Epoch(), lead.Mach.Epoch())
		}
		// Exactly-once data plane: the workload finishes with a clean
		// tick log.
		deadline = task.Now().Add(60 * time.Second)
		for task.Now() < deadline {
			if ino, err := e.c.Node(0).FS.ReadFile(out); err == nil &&
				strings.Contains(string(ino.Data), "done") {
				break
			}
			task.Compute(100 * time.Millisecond)
		}
	})
	expectTicks(t, e.c.Node(0), out, 1200)
}
