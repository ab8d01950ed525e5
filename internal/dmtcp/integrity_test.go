package dmtcp

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// End-to-end chunk-integrity coverage: latent disk corruption on a
// replica holder is detected by content verification, quarantined,
// healed from another holder, and never installed into a restored
// process image.

// TestRestartHealsCorruptLocalChunk corrupts one chunk in a holder's
// local store and restarts the dead workload on that same holder.  The
// restore path must detect the flipped bit during local verification,
// quarantine the bad object, fetch the clean copy from the other
// holder, and complete with an image in which every chunk verifies —
// the "restore never installs a corrupt chunk" contract.  The lazy case
// corrupts the coldest chunk, which the post-copy tail (not the
// skeleton) installs after the process resumes.
func TestRestartHealsCorruptLocalChunk(t *testing.T) {
	for _, tc := range []struct {
		name string
		lazy bool
		prog string
		p    kernel.Program
		// victim picks the chunk to corrupt from the round's manifest.
		victim func(m *store.Manifest) store.ChunkCoord
	}{
		{"eager", false, "bigdirty", bigDirty{},
			func(m *store.Manifest) store.ChunkCoord { return m.Coords()[0] }},
		{"lazy", true, "libbytes", libBytes{},
			func(m *store.Manifest) store.ChunkCoord {
				hot := m.HotOrder()
				return hot[len(hot)-1]
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testRestartHealsCorruptLocalChunk(t, tc.lazy, tc.prog, tc.p, tc.victim)
		})
	}
}

// libBytes is bigDirty whose library mapping carries real bytes: its
// chunks are the image's coldest (never written), and they have
// content for a heal to get right.
type libBytes struct{}

func (libBytes) Main(t *kernel.Task, _ []string) {
	lib := t.MapLib("/lib/libc.so", 4*model.MB)
	lib.Payload = bytes.Repeat([]byte("libc"), int(lib.Bytes/4))
	t.MapAnon("[heap]", 128*model.MB, model.ClassData)
	t.P.SaveState([]byte{1})
	bigDirtyIdle(t)
}

func (libBytes) Restore(t *kernel.Task, _ []byte) { bigDirtyIdle(t) }

func testRestartHealsCorruptLocalChunk(t *testing.T, lazy bool, prog string, p kernel.Program,
	victim func(m *store.Manifest) store.ChunkCoord) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2, LazyRestore: lazy})
	e.drive(t, func(task *kernel.Task) {
		round := restoreEnvWith(t, e, task, prog, p) // workload dead; holders: node02, node03

		// Flip one bit in node02's copy of a chunk the restored image
		// actually references (the store also holds superseded
		// generation-1 objects the restore would never read).
		st2 := store.Open(e.c.Node(2), store.Config{Root: e.sys.StoreRoot()})
		m0, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("holder manifest: %v", err)
		}
		bad := victim(m0)
		hash := bad.Ref.Hash
		clean, err := store.Open(e.c.Node(3), store.Config{Root: e.sys.StoreRoot()}).ReadChunkVerified(task, bad.Ref)
		if err != nil {
			t.Fatalf("clean copy on node03: %v", err)
		}
		if !st2.CorruptChunk(rand.New(rand.NewSource(3)), hash) {
			t.Fatalf("chunk %s not present on node02", hash)
		}

		// Restart on the corrupted holder itself: everything else is
		// local, so any fetch traffic is corruption healing.
		stats, rerr := e.sys.RestartAll(task, round, Placement{"node01": 2})
		if rerr != nil {
			t.Fatalf("restart on corrupted holder: %v", rerr)
		}
		if stats.FetchedChunks < 1 {
			t.Errorf("no chunks fetched: the corrupt chunk was installed from disk (stats %+v)", stats)
		}
		found := false
		for _, q := range st2.Quarantined() {
			if q == hash {
				found = true
			}
		}
		if !found {
			t.Errorf("corrupt chunk %s not quarantined (quarantine: %v)", hash, st2.Quarantined())
		}

		// The healed store is complete and every chunk verifies.
		m, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("manifest on healed holder: %v", err)
		}
		if missing := st2.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after heal", len(missing))
		}
		for _, ref := range m.Refs() {
			if err := st2.VerifyChunk(ref); err != nil {
				t.Errorf("chunk %s fails verification after heal: %v", ref.Hash, err)
			}
		}
		task.Compute(50 * time.Millisecond)
		var restored *kernel.Process
		for _, p := range e.sys.ManagedProcesses() {
			if p.Node.ID == 2 && p.ProgName == prog {
				restored = p
			}
		}
		if restored == nil {
			t.Fatal("restored process not running on node02")
		}
		// The process holds the clean holder's bytes for the chunk.
		a := restored.Mem.Areas()[m0.Areas[bad.Area].Area]
		off := int64(bad.Idx) * kernel.CkptChunkBytes
		if !a.ChunkPresent(bad.Idx) {
			t.Errorf("healed chunk %d of %s not present", bad.Idx, a.Name)
		}
		if got := payloadAt(a.Payload, off, len(clean)); !bytes.Equal(got, clean) {
			t.Errorf("chunk %d of %s does not hold the clean copy's %d bytes", bad.Idx, a.Name, len(clean))
		}
	})
}

// payloadAt returns the n payload bytes at off, clipped to the payload.
func payloadAt(payload []byte, off int64, n int) []byte {
	if off >= int64(len(payload)) {
		return nil
	}
	end := off + int64(n)
	if end > int64(len(payload)) {
		end = int64(len(payload))
	}
	return payload[off:end]
}

// TestScrubDetectsCorruptionAndRepairRestoresRedundancy runs the
// background scrub daemon against a silently corrupted holder: the
// scrubber must find the flipped bit without any reader touching the
// chunk, quarantine it, and the OnCorrupt hook must drive a repair
// that re-sources the generation from a clean holder — full redundancy
// restored end to end.
func TestScrubDetectsCorruptionAndRepairRestoresRedundancy(t *testing.T) {
	e := newEnv(t, 4, Config{Compress: true, Store: true, ReplicaFactor: 2, CkptWorkers: 2})
	// Enable the scrub daemon (off by default) before the replica
	// daemons boot with the first engine step.
	e.c.Params.ScrubInterval = 150 * time.Millisecond
	e.drive(t, func(task *kernel.Task) {
		e.c.Register("bigdirty", bigDirty{})
		if _, err := e.sys.Launch(1, "bigdirty", "64"); err != nil {
			t.Fatal(err)
		}
		task.Compute(50 * time.Millisecond)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Fatal(err)
		}
		e.sys.Replica.WaitIdle(task)

		st2 := store.Open(e.c.Node(2), store.Config{Root: e.sys.StoreRoot()})
		m, err := st2.LoadManifest(round.Images[0].Path)
		if err != nil {
			t.Fatalf("holder manifest: %v", err)
		}
		hash, ok := st2.CorruptRandomChunk(rand.New(rand.NewSource(5)))
		if !ok {
			t.Fatal("nothing to corrupt on node02")
		}
		preCorrupt := e.sys.Replica.Stats.ScrubCorrupt

		// The scrubber finds the bad chunk and repair re-sources it; no
		// reader ever touches the data.
		deadline := task.Now().Add(30 * time.Second)
		healed := false
		for task.Now() < deadline {
			if e.sys.Replica.Stats.ScrubCorrupt > preCorrupt &&
				len(st2.MissingChunks(m.Refs())) == 0 {
				healed = true
				break
			}
			task.Compute(50 * time.Millisecond)
		}
		if !healed {
			t.Fatalf("scrub+repair never healed the holder (scrubCorrupt %d -> %d, missing %d)",
				preCorrupt, e.sys.Replica.Stats.ScrubCorrupt,
				len(st2.MissingChunks(m.Refs())))
		}
		found := false
		for _, q := range st2.Quarantined() {
			if q == hash {
				found = true
			}
		}
		if !found {
			t.Errorf("scrubbed chunk %s not quarantined", hash)
		}
		for _, ref := range m.Refs() {
			if err := st2.VerifyChunk(ref); err != nil {
				t.Errorf("chunk %s fails verification after repair: %v", ref.Hash, err)
			}
		}
		if e.sys.Replica.Stats.RepairJobs < 1 {
			t.Errorf("repair stats = %+v, want at least one repair job", e.sys.Replica.Stats)
		}
	})
}
