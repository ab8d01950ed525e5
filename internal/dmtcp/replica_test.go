package dmtcp

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/store"
)

// Replicated checkpoint storage and node-failure recovery coverage.

// TestBarrierReleasesWhenClientDiesMidRound pins the coordinator's
// disconnect handling: a manager killed between the suspended and
// drained barriers must not wedge the round — the survivors' barrier
// is re-evaluated and released.  The two processes share a socket, so
// each manager drains the end it leads and the drain stage lasts at
// least DrainSettle: the kill lands inside it.
func TestBarrierReleasesWhenClientDiesMidRound(t *testing.T) {
	e := newEnv(t, 1, Config{})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "ppserver", "9150", "100000", "/out/mid-pp")
		task.Compute(5 * time.Millisecond)
		e.sys.Launch(0, "ppclient", "node00", "9150", "100000")
		task.Compute(50 * time.Millisecond)
		done := false
		task.P.SpawnTask("req", false, func(rt *kernel.Task) {
			if _, err := e.sys.Checkpoint(rt); err == nil {
				done = true
			}
		})
		co := e.sys.Coord
		// Wait for the suspended barrier to release: the round is now
		// electing leaders or draining their sockets.
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
		procs := e.sys.ManagedProcesses()
		if len(procs) != 2 {
			t.Fatalf("managed = %d", len(procs))
		}
		// One manager dies mid-round.
		procs[0].Kern.Kill(procs[0].Pid)
		for !done && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		if !done {
			t.Fatal("round wedged after a client died between suspended and drained")
		}
		last := co.LastRound()
		if last == nil || last.NumProcs != 1 {
			t.Errorf("round completed with %+v, want 1 surviving participant", last)
		}
	})
}

// TestReplicationShipsOnlyDirtyChunks verifies the dedup-aware fan-out:
// the first generation replicates the whole image, later clean/dirty
// generations ship only what changed, and the source store's
// replication watermark tracks completed fan-outs.
func TestReplicationShipsOnlyDirtyChunks(t *testing.T) {
	e := newEnv(t, 3, Config{Compress: true, Store: true, StoreKeep: 3, ReplicaFactor: 2})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/repl")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		gen1Bytes := e.sys.Replica.Stats.BytesSent
		if gen1Bytes == 0 {
			t.Fatal("first generation replicated no bytes")
		}
		if e.sys.Replica.Stats.Generations != 1 {
			t.Errorf("full fan-outs = %d, want 1", e.sys.Replica.Stats.Generations)
		}
		// Watermark on the writer's store covers generation 1.
		name, _, _ := store.NameForManifest(r1.Images[0].Path)
		st := e.sys.StoreOn(e.c.Node(0))
		if wm, ok := st.ReplicationWatermark(name); !ok || wm != 1 {
			t.Errorf("watermark = %v,%v, want 1,true", wm, ok)
		}
		// Both ring peers of node00 hold the generation.
		pi := e.sys.Coord.st().Placement[name]
		if pi == nil || pi.ReplicatedGen != 1 {
			t.Fatalf("placement = %+v", pi)
		}
		for _, h := range []string{"node01", "node02"} {
			if pi.Holders[h] < 1 {
				t.Errorf("holder %s missing generation 1: %+v", h, pi.Holders)
			}
		}

		// The counter dirties only its tiny [state] area: the second
		// generation's fan-out must ship a small fraction of the first.
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		gen2Bytes := e.sys.Replica.Stats.BytesSent - gen1Bytes
		if gen2Bytes >= gen1Bytes/4 {
			t.Errorf("incremental fan-out shipped %d bytes, first %d — dedup not applied", gen2Bytes, gen1Bytes)
		}
		if wm, _ := st.ReplicationWatermark(name); wm != 2 {
			t.Errorf("watermark after second round = %d, want 2", wm)
		}
	})
}

// TestRecoveryAfterNodeKill is the headline failover scenario: a
// process checkpoints through the replicated store, its node dies
// (local images and store lost), and the coordinator restarts it on a
// surviving replica holder from the last fully-replicated generation.
func TestRecoveryAfterNodeKill(t *testing.T) {
	e := newEnv(t, 3, Config{Compress: true, Store: true, StoreKeep: 3, ReplicaFactor: 2})
	e.drive(t, func(task *kernel.Task) {
		// Output lives on /san so it survives the node kill and the
		// test can observe completion after recovery.
		e.sys.Launch(1, "counter", "60", "/san/out/rec")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)

		if killed := e.c.KillNode(1); killed == 0 {
			t.Fatal("node kill terminated nothing")
		}
		if e.sys.NumManaged() != 0 {
			t.Fatalf("managed after node kill = %d", e.sys.NumManaged())
		}
		rec, err := e.sys.Recover(task)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if len(rec.DeadHosts) != 1 || rec.DeadHosts[0] != "node01" {
			t.Errorf("dead hosts = %v", rec.DeadHosts)
		}
		target := rec.Targets["node01"]
		if target == "" || target == "node01" {
			t.Fatalf("recovery target = %q", rec.Targets)
		}
		if rec.Took <= 0 || rec.Stats == nil {
			t.Errorf("recovery stats missing: %+v", rec)
		}
		// The target is a replica holder: restart reads its local
		// replicas rather than re-shipping the image.
		if rec.Stats.FetchedBytes > rec.Round.Bytes/2 {
			t.Errorf("recovery fetched %d bytes despite restarting on a holder", rec.Stats.FetchedBytes)
		}
		task.Compute(100 * time.Millisecond)
		procs := e.sys.ManagedProcesses()
		if len(procs) != 1 {
			t.Fatalf("managed after recovery = %d", len(procs))
		}
		if procs[0].Node.Hostname != target {
			t.Errorf("recovered on %s, reported target %s", procs[0].Node.Hostname, target)
		}
		// The computation finishes: every tick appears (the rolled-back
		// suffix may re-append, so duplicates are legal) and the final
		// "done" marker lands.
		deadline := task.Now().Add(60 * time.Second)
		for task.Now() < deadline {
			if ino, err := e.c.Node(0).FS.ReadFile("/san/out/rec"); err == nil &&
				strings.Contains(string(ino.Data), "done") {
				break
			}
			task.Compute(100 * time.Millisecond)
		}
		ino, err := e.c.Node(0).FS.ReadFile("/san/out/rec")
		if err != nil || !strings.Contains(string(ino.Data), "done") {
			t.Fatal("computation did not finish after recovery")
		}
		lines := string(ino.Data)
		for i := 0; i < 60; i++ {
			if !strings.Contains(lines, "tick "+strconv.Itoa(i)+"\n") {
				t.Errorf("tick %d missing after recovery", i)
			}
		}
	})
}

// TestRecoveryPrefersRoundCoveringDeadHost: a node dying mid-round
// leaves a newer, completed round that holds only the survivors'
// images.  Recovery must pass it over for the older round that covers
// every process, or the dead node's processes would silently vanish.
func TestRecoveryPrefersRoundCoveringDeadHost(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, StoreKeep: 3, ReplicaFactor: 2})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(1, "counter", "5000", "/san/out/cov-a")
		e.sys.Launch(2, "counter", "5000", "/san/out/cov-b")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil || len(r1.Images) != 2 {
			t.Fatalf("round 1 = %+v, %v", r1, err)
		}
		e.sys.Replica.WaitIdle(task)

		// Second round: kill node02 between suspended and drained, so
		// the round completes holding only node01's image.
		task.P.SpawnTask("req", false, func(rt *kernel.Task) { e.sys.Checkpoint(rt) })
		co := e.sys.Coord
		deadline := task.Now().Add(10 * time.Second)
		for task.Now() < deadline {
			if r := co.st().Round; r != nil && r.Released["suspended"] {
				break
			}
			task.Compute(time.Millisecond)
		}
		r := co.st().Round
		if r == nil {
			t.Fatal("round 2 never started")
		}
		if r.Released["drained"] {
			t.Fatal("drained barrier already released: the kill would miss the drain window")
		}
		e.c.KillNode(2)
		for co.st().Round != nil && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
		r2 := co.LastRound()
		if r2 == nil || len(r2.Images) != 1 {
			t.Fatalf("partial round = %+v", r2)
		}

		rec, err := e.sys.Recover(task)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if rec.Round.Index != r1.Index {
			t.Errorf("recovered from round %d, want %d (the round covering node02)", rec.Round.Index, r1.Index)
		}
		if rec.Procs != 2 {
			t.Errorf("recovery restarted %d processes, want 2", rec.Procs)
		}
		task.Compute(100 * time.Millisecond)
		if n := e.sys.NumManaged(); n != 2 {
			t.Errorf("managed after recovery = %d, want 2 — dead node's process dropped", n)
		}
	})
}

// TestWaitIdleCoversForkedCommits: with forked checkpointing the
// background writer child commits the generation's stream after the
// round's barriers release; WaitIdle immediately after Checkpoint must
// still cover that generation.
func TestWaitIdleCoversForkedCommits(t *testing.T) {
	e := newEnv(t, 3, Config{Compress: true, Store: true, Forked: true,
		StoreKeep: 3, ReplicaFactor: 2})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/forked")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		if e.sys.Replica.Stats.Generations != 1 {
			t.Fatalf("fan-outs after WaitIdle = %d, want 1 (forked commit missed)",
				e.sys.Replica.Stats.Generations)
		}
		name, _, _ := store.NameForManifest(r1.Images[0].Path)
		if wm, ok := e.sys.StoreOn(e.c.Node(0)).ReplicationWatermark(name); !ok || wm != 1 {
			t.Errorf("watermark = %v,%v, want 1", wm, ok)
		}
	})
}

// TestMigrationFetchesOverNetworkWithReplicaService: with the replica
// service running, migrating a store-mode checkpoint to a node that
// holds no replicas pulls the manifest and chunks through the replica
// daemon (charged network fetch) instead of the harness-side copy.
func TestMigrationFetchesOverNetworkWithReplicaService(t *testing.T) {
	e := newEnv(t, 3, Config{Compress: true, Store: true, ReplicaFactor: 1})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "2000", "/out/mig")
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		e.sys.KillManaged()
		// Factor 1 replicates node00 → node01 only; node02 holds
		// nothing and must fetch everything.
		place := Placement{"node00": 2}
		stats, err := e.sys.RestartAll(task, round, place)
		if err != nil {
			t.Fatalf("migrate restart: %v", err)
		}
		if stats.FetchedChunks == 0 || stats.FetchedBytes == 0 {
			t.Errorf("migration fetched nothing: %+v", stats)
		}
		if stats.Fetch <= 0 {
			t.Errorf("fetch stage uncharged: %+v", stats)
		}
		task.Compute(50 * time.Millisecond)
		procs := e.sys.ManagedProcesses()
		if len(procs) != 1 || procs[0].Node.ID != 2 {
			t.Fatalf("migrated process not on node02: %+v", procs)
		}
	})
}

// TestAutoRecover: with Config.AutoRecover the coordinator drives the
// whole recovery itself when it sees a client die with its node.
func TestAutoRecover(t *testing.T) {
	e := newEnv(t, 3, Config{Compress: true, Store: true, StoreKeep: 3,
		ReplicaFactor: 2, AutoRecover: true})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(1, "counter", "5000", "/san/out/auto")
		task.Compute(50 * time.Millisecond)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)
		e.c.KillNode(1)
		deadline := task.Now().Add(30 * time.Second)
		for task.Now() < deadline && e.sys.NumManaged() == 0 {
			task.Compute(50 * time.Millisecond)
		}
		procs := e.sys.ManagedProcesses()
		if len(procs) != 1 {
			t.Fatalf("auto-recovery did not restart the lost process")
		}
		if procs[0].Node.Hostname == "node01" {
			t.Error("recovered process on the dead node")
		}
	})
}
