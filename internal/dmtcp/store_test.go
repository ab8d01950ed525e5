package dmtcp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/store"
)

// Store-mode session coverage: the full checkpoint algorithm writing
// through the content-addressed store, coordinator-driven GC, and
// restart from manifests.

func TestStoreCheckpointDeduplicatesAcrossRounds(t *testing.T) {
	e := newEnv(t, 1, Config{Compress: true, Store: true})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/st1")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		if !r1.Store || len(r1.Images) != 1 {
			t.Fatalf("round = %+v", r1)
		}
		img1 := r1.Images[0]
		if img1.Generation != 1 || img1.Chunks == 0 || img1.NewChunks != img1.Chunks {
			t.Errorf("first generation stats = %+v", img1)
		}
		if !store.IsManifestPath(img1.Path) {
			t.Errorf("image path %q not a manifest", img1.Path)
		}
		task.Compute(50 * time.Millisecond)
		r2, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		img2 := r2.Images[0]
		if img2.Generation != 2 {
			t.Errorf("second generation = %d", img2.Generation)
		}
		// The counter dirties only its tiny [state] area between
		// rounds; the heap and libraries dedup, so the second round
		// writes a small fraction of the first.
		if img2.NewChunks >= img2.Chunks/2 {
			t.Errorf("round 2 rewrote %d of %d chunks", img2.NewChunks, img2.Chunks)
		}
		if r2.DedupBytes == 0 {
			t.Error("round 2 recorded no dedup")
		}
		if r2.Bytes >= r1.Bytes/2 {
			t.Errorf("round 2 wrote %d bytes, round 1 %d", r2.Bytes, r1.Bytes)
		}
		if r2.Stages.Write >= r1.Stages.Write {
			t.Errorf("incremental write stage %v not faster than full %v",
				r2.Stages.Write, r1.Stages.Write)
		}
		if r2.GC == nil || r2.GC.Live == 0 {
			t.Errorf("coordinator GC missing: %+v", r2.GC)
		}
		if r2.GC.Swept != 0 {
			t.Errorf("GC swept %d chunks still referenced by retained generations", r2.GC.Swept)
		}
	})
}

func TestStoreRestartCycleAndSecondCheckpoint(t *testing.T) {
	e := newEnv(t, 1, Config{Compress: true, Store: true, StoreKeep: 2})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "2000", "/out/st2")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, r1, nil); err != nil {
			t.Errorf("restart from store: %v", err)
			return
		}
		task.Compute(50 * time.Millisecond)
		if e.sys.NumManaged() != 1 {
			t.Fatal("process not restored from manifest")
		}
		// The restored process keeps counting exactly-once.
		task.Compute(100 * time.Millisecond)
		ino, err := e.c.Node(0).FS.ReadFile("/out/st2")
		if err != nil {
			t.Fatalf("no output: %v", err)
		}
		if !strings.Contains(string(ino.Data), "tick") {
			t.Errorf("restored counter produced no ticks: %q", ino.Data)
		}
		// A post-restart checkpoint must still deduplicate against
		// pre-restart generations (chunk versions travel in images).
		r2, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Errorf("checkpoint after restart: %v", err)
			return
		}
		img := r2.Images[0]
		if img.Generation != 2 {
			t.Errorf("post-restart generation = %d", img.Generation)
		}
		if img.NewChunks >= img.Chunks/2 {
			t.Errorf("post-restart round rewrote %d of %d chunks", img.NewChunks, img.Chunks)
		}
		// Chain a second restart from the post-restart round.
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, r2, nil); err != nil {
			t.Errorf("second restart: %v", err)
			return
		}
		task.Compute(50 * time.Millisecond)
		if e.sys.NumManaged() != 1 {
			t.Error("process lost after second restart")
		}
	})
}

// TestStoreRetentionPrunesOldGenerations pins StoreKeep: after four
// rounds only the newest two generations survive.  Coordinator
// standbys install the replica service without any replicas to ship;
// retention must apply all the same (no replication watermark pins
// generations that will never be replicated).
func TestStoreRetentionPrunesOldGenerations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		cfg   Config
	}{
		{"single node", 1, Config{Compress: true, Store: true, StoreKeep: 2}},
		{"coordinator standby", 3, Config{Compress: true, Store: true, StoreKeep: 2, CoordStandbys: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, tc.nodes, tc.cfg)
			e.drive(t, func(task *kernel.Task) {
				e.sys.Launch(0, "counter", "5000", "/out/st3")
				task.Compute(50 * time.Millisecond)
				var last *CkptRound
				for i := 0; i < 4; i++ {
					r, err := e.sys.Checkpoint(task)
					if err != nil {
						t.Error(err)
						return
					}
					last = r
					task.Compute(30 * time.Millisecond)
				}
				st := e.sys.StoreOn(e.c.Node(0))
				name := mtcpImageName(last.Images[0])
				gens := st.Generations(name)
				if len(gens) != 2 || gens[1] != 4 {
					t.Errorf("retained generations = %v, want [3 4]", gens)
				}
				if last.GC == nil || last.GC.Pruned == 0 {
					t.Errorf("final round GC = %+v", last.GC)
				}
			})
		})
	}
}

// mtcpImageName derives the store image name from an image path
// (".../manifests/<name>.g<NNN>").
func mtcpImageName(img ImageInfo) string {
	base := img.Path[strings.LastIndex(img.Path, "/")+1:]
	return base[:strings.LastIndex(base, ".g")]
}

func TestStoreMigrationCarriesChunks(t *testing.T) {
	e := newEnv(t, 2, Config{Compress: true, Store: true})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "2000", "/out/st4")
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		e.sys.KillManaged()
		// Restart on the other node: manifest + chunks must migrate.
		place := Placement{"node00": 1}
		if _, err := e.sys.RestartAll(task, round, place); err != nil {
			t.Errorf("migrated restart: %v", err)
			return
		}
		task.Compute(50 * time.Millisecond)
		procs := e.sys.ManagedProcesses()
		if len(procs) != 1 || procs[0].Node.Hostname != "node01" {
			t.Errorf("process not migrated: %+v", procs)
		}
		// A post-migration round's GC must still visit the abandoned
		// node00 store (its manifests are in the mark set), not just
		// the nodes that committed images this round.
		r2, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		if r2.GC == nil || r2.GC.Manifests < 2 {
			t.Errorf("GC skipped the migrated-away store: %+v", r2.GC)
		}
	})
}

func TestStoreForkedRoundsCollectOnNextRequest(t *testing.T) {
	e := newEnv(t, 1, Config{Compress: true, Store: true, Forked: true, StoreKeep: 1})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/stf")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		// The round completes while the forked writer is still
		// committing, so GC must have been deferred, not run.
		if r1.GC != nil {
			t.Errorf("forked round GC ran concurrently with its writer: %+v", r1.GC)
		}
		// Give the background writer time to commit, then request the
		// next round: the coordinator retries the deferred collection
		// before new writes begin.
		task.Compute(15 * time.Second)
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Error(err)
			return
		}
		if r1.GC == nil || r1.GC.Manifests == 0 || r1.GC.Live == 0 {
			t.Errorf("deferred GC never caught up: %+v", r1.GC)
		}
	})
}

// TestStoreForkedRoundsCollectAtRestart: a forked round whose GC
// deferred is collected when a restart's last group barrier releases,
// with no further checkpoint request.
func TestStoreForkedRoundsCollectAtRestart(t *testing.T) {
	e := newEnv(t, 1, Config{Compress: true, Store: true, Forked: true, StoreKeep: 1})
	e.drive(t, func(task *kernel.Task) {
		e.sys.Launch(0, "counter", "5000", "/out/stfr")
		task.Compute(50 * time.Millisecond)
		r1, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		if r1.GC != nil {
			t.Errorf("forked round GC ran concurrently with its writer: %+v", r1.GC)
		}
		task.Compute(15 * time.Second) // the background writer commits
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, r1, nil); err != nil {
			t.Error(err)
			return
		}
		task.Compute(time.Second)
		if r1.GC == nil || r1.GC.Manifests == 0 || r1.GC.Live == 0 {
			t.Errorf("deferred GC never ran at restart: %+v", r1.GC)
		}
	})
}
