package dmtcp

import (
	"errors"
	"math/rand"
	"reflect"
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

// TestSharedManifestsStayIntact pins the manifest memo: each manifest
// file is decoded once per content, and the decoded manifest, cached on
// its inode, is shared read-only by every reader.  A store round trip
// writes two generations, replicates them to two holders, restarts the
// job on one of them, and checkpoints it twice more there, so the
// restore, the writer's dedup against the prior generation, the
// replicas' verify passes and GC all read shared manifests.
// Afterwards every cached manifest must equal a fresh decode of its
// bytes: a reader that wrote into one (its Header included) fails here.
// Then a cached manifest changed in place, through a file descriptor or
// by the corruption injector, must decode afresh: a flipped magic byte
// makes the next LoadManifest fail with ErrBadManifest.
func TestSharedManifestsStayIntact(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, StoreKeep: 2, ReplicaFactor: 2, CkptWorkers: 2})
	scribbled := false
	e.c.RegisterFunc("scribble", func(st *kernel.Task, args []string) {
		defer func() { scribbled = true }()
		ino, err := st.P.Node.FS.ReadFile(args[0])
		if err != nil {
			t.Error(err)
			return
		}
		fd, err := st.Open(args[0])
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := st.Write(fd, []byte{ino.Data[0] ^ 1}); err != nil {
			t.Error(err)
		}
		st.Close(fd)
	})
	e.drive(t, func(task *kernel.Task) {
		intact := func(stage string) map[kernel.NodeID]int {
			cached := map[kernel.NodeID]int{}
			for i := kernel.NodeID(0); i < 4; i++ {
				fs := e.c.Node(i).FS
				for _, path := range fs.List(e.sys.StoreRoot()) {
					ino, err := fs.ReadFile(path)
					if err != nil {
						continue
					}
					m, ok := ino.Memo().(*store.Manifest)
					if !ok {
						continue
					}
					cached[i]++
					if fresh, err := store.DecodeManifest(ino.Data); err != nil || !reflect.DeepEqual(m, fresh) {
						t.Errorf("%s: node%02d %s: the cached manifest differs from its bytes (%v)", stage, i, path, err)
					}
				}
			}
			return cached
		}
		round := restoreEnv(t, e, task) // holders node02 and node03; node01 dead
		if _, err := e.sys.RestartAll(task, round, Placement{"node01": 2}); err != nil {
			t.Fatalf("restart: %v", err)
		}
		intact("after the restart")
		// The restarted job checkpoints under a new image name: its
		// first generation is a cold start, its second dedups
		// against the first.
		var last *CkptRound
		for i := 0; i < 2; i++ {
			task.Compute(50 * time.Millisecond)
			r, err := e.sys.Checkpoint(task)
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
		e.sys.Replica.WaitIdle(task)
		if cached := intact("after two more checkpoints"); cached[2] < 3 || cached[3] == 0 {
			t.Fatalf("cached manifests per node = %v, want three on node02 and some on node03", cached)
		}

		// In place through a file descriptor: a process on node02
		// flips the first byte of the magic.
		st := e.sys.StoreOn(e.c.Node(2))
		path := last.Images[0].Path
		ino, err := e.c.Node(2).FS.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadManifest(path); err != nil || ino.Memo() == nil {
			t.Fatalf("the last manifest is not cached: %v", err)
		}
		if _, err := e.c.Node(2).Kern.Spawn("scribble", []string{path}, nil); err != nil {
			t.Fatal(err)
		}
		for !scribbled {
			task.Idle(time.Millisecond)
		}
		if _, err := st.LoadManifest(path); !errors.Is(err, store.ErrBadManifest) {
			t.Errorf("LoadManifest after an fd write into the magic: %v, want ErrBadManifest", err)
		}

		// In place by the corruption injector, seeded so that its bit
		// flip lands in the magic.
		hst := e.sys.StoreOn(e.c.Node(3))
		hpath := round.Images[0].Path
		hino, err := e.c.Node(3).FS.ReadFile(hpath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hst.LoadManifest(hpath); err != nil || hino.Memo() == nil {
			t.Fatalf("node03's manifest is not cached: %v", err)
		}
		seed := int64(1)
		for rand.New(rand.NewSource(seed)).Intn(len(hino.Data)) >= len(store.ManifestMagic) {
			seed++
		}
		hino.Corrupt(rand.New(rand.NewSource(seed)))
		if _, err := hst.LoadManifest(hpath); !errors.Is(err, store.ErrBadManifest) {
			t.Errorf("LoadManifest after the injector flipped a magic bit: %v, want ErrBadManifest", err)
		}
	})
}
