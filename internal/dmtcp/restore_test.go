package dmtcp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/replica"
	"repro/internal/store"
)

// Streamed restore pipeline coverage: adaptive worker sizing, the
// kill-serving-holder-mid-fetch fallback, the typed error when every
// holder is gone, and journal compaction under coordinator HA.

// spinnerMain is an unmanaged CPU hog: its compute loop holds a core
// share, which is what adaptive sizing must size around.
func spinnerMain(t *kernel.Task, _ []string) {
	for {
		t.Compute(50 * time.Millisecond)
	}
}

// TestAdaptiveWorkerSizing pins CkptWorkers == 0 ("auto"): on an idle
// node both the write pool and the restore pool size up to all 4
// cores; beside three busy co-tenants the write pool sizes down to the
// single idle core instead of oversubscribing.
func TestAdaptiveWorkerSizing(t *testing.T) {
	e := newEnv(t, 2, Config{Compress: true, Store: true, CkptWorkers: 0})
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		e.c.RegisterFunc("spinner", spinnerMain)
		if _, err := e.sys.Launch(1, "bigdirty", "64"); err != nil {
			t.Fatal(err)
		}
		task.Compute(50 * time.Millisecond)

		// Idle node: the write pool takes the whole machine.
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		if got := r1.Images[0].Workers; got != 4 {
			t.Errorf("idle-node write workers = %d, want 4", got)
		}

		// Restart on the same idle node: the restore pool sizes up too.
		e.sys.KillManaged()
		stats, err := e.sys.RestartAll(task, r1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != 4 {
			t.Errorf("idle-node restore workers = %d, want 4", stats.Workers)
		}

		// Three unmanaged spinners leave one idle core: the next write
		// sizes down rather than oversubscribing the node.
		for i := 0; i < 3; i++ {
			if _, err := e.c.Node(1).Kern.Spawn("spinner", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		task.Compute(100 * time.Millisecond) // let the spinners start computing
		for _, p := range e.sys.ManagedProcesses() {
			if a := p.Mem.Area("[heap]"); a != nil {
				a.TouchFraction(1.0, 1)
			}
		}
		r2, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.Images[0].Workers; got != 1 {
			t.Errorf("loaded-node write workers = %d, want 1 (3 spinners on 4 cores)", got)
		}
	})
}

// restoreEnv builds the fallback scenario: a dirty workload on node 1
// checkpoints twice through the store with the given replication
// factor (holders: node2, then node3 at factor 2), replication
// quiesces, and node 1 dies.  It returns the round to restart from.
func restoreEnv(t *testing.T, e *env, task *kernel.Task) *CkptRound {
	t.Helper()
	return restoreEnvWith(t, e, task, "bigdirty", bigDirty{})
}

// restoreEnvWith is restoreEnv for the workload prog runs.
func restoreEnvWith(t *testing.T, e *env, task *kernel.Task, prog string, p kernel.Program) *CkptRound {
	t.Helper()
	e.c.Register(prog, p)
	if _, err := e.sys.Launch(1, prog, "128"); err != nil {
		t.Fatal(err)
	}
	task.Compute(50 * time.Millisecond)
	if _, err := e.sys.Checkpoint(task); err != nil {
		t.Fatal(err)
	}
	for _, p := range e.sys.ManagedProcesses() {
		if a := p.Mem.Area("[heap]"); a != nil {
			a.TouchFraction(1.0, 1)
		}
	}
	task.Compute(50 * time.Millisecond)
	round, err := e.sys.Checkpoint(task)
	if err != nil {
		t.Fatal(err)
	}
	e.sys.Replica.WaitIdle(task)
	if killed := e.c.KillNode(1); killed == 0 {
		t.Fatal("node kill was a no-op")
	}
	return round
}

// TestStreamedRestartFallsBackToAnotherHolder pins the mid-fetch
// holder-loss contract: the serving holder's node dies while the
// restore pipeline is pulling from it, the fetch resumes against the
// other replica holder with only the still-missing chunks, and the
// restart completes with an intact image.
func TestStreamedRestartFallsBackToAnotherHolder(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2})
	e.drive(t, func(task *kernel.Task) {
		round := restoreEnv(t, e, task)

		// Restart node01's process on node0 (holds nothing): the fetch
		// serves from node02, the first complete holder.
		var stats *RestartStages
		var rerr error
		done := false
		task.P.SpawnTask("restarter", false, func(rt *kernel.Task) {
			stats, rerr = e.sys.RestartAll(rt, round, Placement{"node01": 0})
			done = true
		})
		// Kill the serving holder mid-fetch (the 128 MB image takes
		// ~0.2 s to pull at 2 connections; 60 ms is inside the window).
		task.Idle(60 * time.Millisecond)
		if killed := e.c.KillNode(2); killed == 0 {
			t.Fatal("holder kill was a no-op")
		}
		for !done {
			task.Idle(20 * time.Millisecond)
		}
		if rerr != nil {
			t.Fatalf("restart with holder fallback: %v", rerr)
		}
		if stats.FetchedBytes <= 0 || stats.FetchedChunks <= 0 {
			t.Errorf("no fetch recorded: %+v", stats)
		}
		if stats.Workers != 2 {
			t.Errorf("restore workers = %d, want 2", stats.Workers)
		}
		task.Compute(50 * time.Millisecond)
		found := false
		for _, p := range e.sys.ManagedProcesses() {
			if p.Node.ID == 0 && p.ProgName == "bigdirty" {
				found = true
			}
		}
		if !found {
			t.Error("restored process not running on node0")
		}
		// The restored image on node0 is complete: every manifest chunk
		// is present despite the holder dying mid-stream.
		st := store.Open(e.c.Node(0), store.Config{Root: e.sys.StoreRoot()})
		m, err := st.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("restored manifest unreadable: %v", err)
		}
		if missing := st.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after fallback restore", len(missing))
		}
	})
}

// TestStreamedRestartFailsTypedWhenAllHoldersLost pins the other half
// of the contract: with every replica holder dead mid-fetch there is
// nowhere to fall back to — the restart fails (cleanly, not with a
// corrupt image), and RestartAll's error still carries the fetcher's
// typed replica.HolderLostError, also when the coordinator leader died
// with the holders and never heard of the failure.
func TestStreamedRestartFailsTypedWhenAllHoldersLost(t *testing.T) {
	cfg := Config{Compress: true, Store: true, ReplicaFactor: 1, CkptWorkers: 2}
	ha := cfg
	ha.CoordNode, ha.CoordStandbys = 1, 2
	cases := []struct {
		name  string
		nodes int
		cfg   Config
		// setup checkpoints a 128 MB bigdirty on node01 and kills it.
		setup func(t *testing.T, e *env, task *kernel.Task) *CkptRound
		place Placement
		kill  []kernel.NodeID // killed 60 ms into the restart
	}{
		{
			// node01 died with its workload: node02, its only replica
			// holder, serves the fetch.
			name: "only holder dies mid-fetch", nodes: 4, cfg: cfg,
			setup: restoreEnv, place: Placement{"node01": 0}, kill: []kernel.NodeID{2},
		},
		{
			// node01 leads, wrote the image and serves the fetch; node02
			// is its only replica holder and the first standby.  node03
			// takes over while node04's fetch has nowhere left to go.
			name: "leader and last holder die mid-fetch", nodes: 5, cfg: ha,
			setup: func(t *testing.T, e *env, task *kernel.Task) *CkptRound {
				e.c.Register("bigdirty", bigDirty{})
				e.sys.Launch(1, "bigdirty", "128")
				return checkpointAndKill(t, e, task)
			},
			place: Placement{"node01": 4}, kill: []kernel.NodeID{1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, tc.nodes, tc.cfg)
			e.drive(t, func(task *kernel.Task) {
				round := tc.setup(t, e, task)
				if round == nil {
					return
				}
				err := restartWithin(t, e, task, round, tc.place, 30*time.Second, func() {
					task.Idle(60 * time.Millisecond)
					for _, n := range tc.kill {
						e.c.KillNode(n)
					}
				})
				if err == nil {
					t.Error("restart succeeded with every holder dead")
					return
				}
				var hle *replica.HolderLostError
				if !errors.As(err, &hle) {
					t.Errorf("restart error %v (%T) does not carry a *replica.HolderLostError", err, err)
				}
			})
		})
	}
}

// TestJournalCompactionUnderHA pins the compaction satellite end to
// end: with a small threshold the leader compacts at round boundaries
// (journal suffix bounded, on-disk journal restores to the identical
// state), a continuously-replicating standby stays converged, and a
// takeover after compaction still replays the full round history.
func TestJournalCompactionUnderHA(t *testing.T) {
	e := newEnv(t, 4, Config{CoordNode: 1, Compress: true, Store: true,
		StoreKeep: 3, ReplicaFactor: 1, CoordStandbys: 1, CkptWorkers: 2})
	e.c.Params.JournalSnapshotEntries = 8
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		if _, err := e.sys.Launch(3, "bigdirty", "32"); err != nil {
			t.Fatal(err)
		}
		task.Compute(50 * time.Millisecond)
		rounds := 3
		for g := 0; g < rounds; g++ {
			if _, err := e.sys.Checkpoint(task); err != nil {
				t.Fatal(err)
			}
			e.sys.Replica.WaitIdle(task)
			for _, p := range e.sys.ManagedProcesses() {
				if a := p.Mem.Area("[heap]"); a != nil {
					a.TouchFraction(0.2, uint64(g+1))
				}
			}
			task.Compute(20 * time.Millisecond)
		}
		leader := e.sys.Coord
		if leader.Mach.Base() == 0 {
			t.Fatal("journal never compacted despite the low threshold")
		}
		if suffix := leader.Mach.Seq() - leader.Mach.Base(); suffix > 2*int64(e.c.Params.JournalSnapshotEntries) {
			t.Errorf("materialized suffix = %d entries, not bounded", suffix)
		}

		// The on-disk journal (snapshot + suffix) restores wholesale.
		ino, err := e.c.Node(1).FS.ReadFile(e.sys.Cfg.CkptDir + "/coordinator.journal")
		if err != nil {
			t.Fatalf("no journal file: %v", err)
		}
		mach, err := coordstate.RestoreJournal(ino.Data)
		if err != nil {
			t.Fatalf("journal restore: %v", err)
		}
		if got := len(mach.State().Rounds); got != rounds {
			t.Errorf("restored journal holds %d rounds, want %d", got, rounds)
		}

		// Takeover after compaction: the standby (converged via suffix
		// pushes) still owns the complete history.
		preRounds := len(leader.Rounds())
		if killed := e.c.KillNode(1); killed == 0 {
			t.Fatal("coordinator kill was a no-op")
		}
		deadline := task.Now().Add(10 * time.Second)
		for e.sys.Coord.Node.Down && task.Now() < deadline {
			task.Compute(20 * time.Millisecond)
		}
		if e.sys.Coord.Node.Down {
			t.Fatal("no standby took over")
		}
		if got := len(e.sys.Coord.Rounds()); got != preRounds {
			t.Errorf("standby replayed %d rounds, leader had %d", got, preRounds)
		}
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Errorf("post-takeover checkpoint: %v", err)
		}
	})
}
