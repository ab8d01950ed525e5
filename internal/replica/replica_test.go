package replica_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mtcp"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/store"
)

const root = "/ckpt/store"

func testCluster(t *testing.T, nodes int) (*sim.Engine, *kernel.Cluster) {
	return seededCluster(t, 1, nodes)
}

func seededCluster(t *testing.T, seed int64, nodes int) (*sim.Engine, *kernel.Cluster) {
	t.Helper()
	eng := sim.NewEngine(seed)
	c := kernel.NewCluster(eng, model.Default(), nodes)
	t.Cleanup(eng.Shutdown)
	return eng, c
}

func run(t *testing.T, eng *sim.Engine, c *kernel.Cluster, fn func(*kernel.Task)) {
	t.Helper()
	c.RegisterFunc("m", func(task *kernel.Task, _ []string) {
		task.Compute(time.Millisecond) // let the daemons listen
		fn(task)
		eng.Stop()
	})
	if _, err := c.Node(0).Kern.Spawn("m", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// commit writes one generation of a synthetic image into node 0's
// store and returns its manifest path.
func commit(task *kernel.Task, touch float64, salt uint64) string {
	p := task.P
	if p.Mem.Area("[heap]") == nil {
		task.MapLib("/lib/libc.so", 4*model.MB)
		h := p.Mem.MapAnon("[heap]", 32*model.MB, model.ClassData)
		h.Payload = []byte("payload-v1")
		h.Touch(0, int64(len(h.Payload)))
	}
	if touch > 0 {
		p.Mem.Area("[heap]").TouchFraction(touch, salt)
	}
	img := mtcp.Capture(p, 900)
	s := store.Open(p.Node, store.Config{Root: root, Compress: true})
	res := mtcp.WriteImage(task, img, mtcp.WriteOptions{Dir: "/ckpt", Compress: true, Store: s})
	s.InitReplicationWatermark(task, mtcp.ImageBase(img))
	return res.Path
}

func TestRingTargetsSkipSelfAndDownNodes(t *testing.T) {
	_, c := testCluster(t, 4)
	sv := replica.Install(c, replica.Config{Factor: 2, Root: root})
	names := func(ns []*kernel.Node) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Hostname)
		}
		return out
	}
	got := names(sv.Targets(c.Node(1)))
	if len(got) != 2 || got[0] != "node02" || got[1] != "node03" {
		t.Errorf("targets of node01 = %v", got)
	}
	c.Node(2).Down = true
	got = names(sv.Targets(c.Node(1)))
	if len(got) != 2 || got[0] != "node03" || got[1] != "node00" {
		t.Errorf("targets of node01 with node02 down = %v", got)
	}
}

func TestFanOutReplicatesAndDedups(t *testing.T) {
	eng, c := testCluster(t, 3)
	sv := replica.Install(c, replica.Config{Factor: 2, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	run(t, eng, c, func(task *kernel.Task) {
		p1 := commit(task, 0, 0)
		name, gen, _ := store.NameForManifest(p1)
		sv.Ship(c.Node(0), replica.Job{ManifestPath: p1})
		sv.WaitIdle(task)

		if sv.Stats.Generations != 1 || sv.Stats.Pushes != 2 {
			t.Fatalf("stats after gen 1 = %+v", sv.Stats)
		}
		gen1Bytes := sv.Stats.BytesSent
		src := store.Open(c.Node(0), store.Config{Root: root})
		m, err := src.LoadManifest(p1)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range []*kernel.Node{c.Node(1), c.Node(2)} {
			ps := store.Open(peer, store.Config{Root: root})
			if _, err := ps.LoadManifest(p1); err != nil {
				t.Errorf("%s missing manifest: %v", peer.Hostname, err)
			}
			if missing := ps.MissingChunks(m.Refs()); len(missing) != 0 {
				t.Errorf("%s missing %d chunks after fan-out", peer.Hostname, len(missing))
			}
		}
		if wm, ok := src.ReplicationWatermark(name); !ok || wm != gen {
			t.Errorf("watermark = %v,%v want %d", wm, ok, gen)
		}

		// A 10%-dirty second generation ships a fraction of the first.
		p2 := commit(task, 0.10, 7)
		sv.Ship(c.Node(0), replica.Job{ManifestPath: p2})
		sv.WaitIdle(task)
		incr := sv.Stats.BytesSent - gen1Bytes
		if incr <= 0 || incr >= gen1Bytes/4 {
			t.Errorf("incremental fan-out shipped %d of %d", incr, gen1Bytes)
		}
	})
}

// TestManifestPrecedesChunksAfterCommit pins the stream's post-commit
// rule: once a generation is committed, its manifest reaches the peer
// before any chunk not yet shipped.  The peer runs store GC every
// millisecond during the push; since every chunk is referenced the
// moment it lands, none is swept and each missing chunk travels
// exactly once.
func TestManifestPrecedesChunksAfterCommit(t *testing.T) {
	for _, tc := range []struct {
		name string
		push func(sv *replica.Service, task *kernel.Task, path string, m *store.Manifest)
	}{
		{"committed generation", func(sv *replica.Service, task *kernel.Task, path string, _ *store.Manifest) {
			sv.Ship(task.P.Node, replica.Job{ManifestPath: path})
		}},
		{"eager stream committed before its first batch", func(sv *replica.Service, task *kernel.Task, path string, m *store.Manifest) {
			// Nothing here yields, so the shippers first run with the
			// stream already committed.
			s := sv.NewStream(task.P.Node, task.P, m.Name, m.Generation)
			for _, ref := range m.Refs() {
				s.Chunk(task, ref)
			}
			s.Commit(task, path)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, c := testCluster(t, 2)
			sv := replica.Install(c, replica.Config{Factor: 1, Root: root})
			if err := sv.StartAll(); err != nil {
				t.Fatal(err)
			}
			swept, stop, stopped := 0, false, false
			c.RegisterFunc("gc-loop", func(gt *kernel.Task, _ []string) {
				peer := store.Open(gt.P.Node, store.Config{Root: root})
				for !stop {
					swept += peer.GC(gt).Swept
					gt.Idle(time.Millisecond)
				}
				stopped = true
			})
			run(t, eng, c, func(task *kernel.Task) {
				path := commit(task, 0, 0)
				m, err := store.Open(c.Node(0), store.Config{Root: root}).LoadManifest(path)
				if err != nil {
					t.Fatal(err)
				}
				unique := map[string]bool{}
				for _, ref := range m.Refs() {
					unique[ref.Hash] = true
				}
				if _, err := c.Node(1).Kern.Spawn("gc-loop", nil, nil); err != nil {
					t.Fatal(err)
				}
				tc.push(sv, task, path, m)
				sv.WaitIdle(task)
				stop = true
				for !stopped {
					task.Idle(time.Millisecond)
				}
				if sv.Stats.Pushes != 1 || sv.Stats.Generations != 1 {
					t.Fatalf("push incomplete: %+v", sv.Stats)
				}
				if swept != 0 {
					t.Errorf("peer GC swept %d chunks of the generation mid-push", swept)
				}
				if sv.Stats.ChunksSent != len(unique) {
					t.Errorf("chunks sent = %d, want %d (each missing chunk exactly once)",
						sv.Stats.ChunksSent, len(unique))
				}
				if missing := store.Open(c.Node(1), store.Config{Root: root}).MissingChunks(m.Refs()); len(missing) != 0 {
					t.Errorf("peer missing %d chunks after the push", len(missing))
				}
			})
		})
	}
}

// pullAll makes one manifest generation restorable on node: it pulls
// the manifest from holders[0] if missing, then every chunk the node
// lacks through one PullStream.  It runs on a task spawned on node and
// reports whether the manifest traveled plus the stream's traffic.
func pullAll(t *testing.T, c *kernel.Cluster, sv *replica.Service, task *kernel.Task, node kernel.NodeID,
	path string, holders []string, opts replica.PullOptions) (fetched bool, bytes int64, chunks int) {
	t.Helper()
	var err error
	done := false
	prog := fmt.Sprintf("puller@%v", task.Now()) // one program per call
	c.RegisterFunc(prog, func(ft *kernel.Task, _ []string) {
		defer func() { done = true }()
		if fetched, err = sv.EnsureManifest(ft, path, holders[0]); err != nil {
			return
		}
		var m *store.Manifest
		if m, err = store.Open(ft.P.Node, store.Config{Root: root}).LoadManifest(path); err != nil {
			return
		}
		ps := replica.NewPullStream(ft, sv, holders, m.Refs(), opts)
		err = ps.Wait(ft)
		bytes, chunks = ps.Bytes(), ps.Chunks()
	})
	if _, err := c.Node(node).Kern.Spawn(prog, nil, nil); err != nil {
		t.Fatal(err)
	}
	for !done {
		task.Compute(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	return fetched, bytes, chunks
}

// TestPullStreamFetchesOnlyMissing pins the restart-time fetch: a cold
// node pulls the manifest and every chunk, and a second pull once
// everything is local moves nothing.
func TestPullStreamFetchesOnlyMissing(t *testing.T) {
	eng, c := testCluster(t, 3)
	sv := replica.Install(c, replica.Config{Factor: 1, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	run(t, eng, c, func(task *kernel.Task) {
		p1 := commit(task, 0, 0)
		sv.Ship(c.Node(0), replica.Job{ManifestPath: p1})
		sv.WaitIdle(task)

		// node02 holds nothing (factor 1 → only node01): a pull from
		// node00 must land the manifest and every chunk, charging time.
		t0 := task.Now()
		fetched, bytes, chunks := pullAll(t, c, sv, task, 2, p1, []string{"node00"}, replica.PullOptions{})
		if !fetched || chunks == 0 || bytes == 0 {
			t.Errorf("cold pull = manifest %v, %d chunks, %d bytes", fetched, chunks, bytes)
		}
		if task.Now().Sub(t0) <= 0 {
			t.Error("pull charged no time")
		}
		ps := store.Open(c.Node(2), store.Config{Root: root})
		m, err := ps.LoadManifest(p1)
		if err != nil {
			t.Fatalf("pulled manifest unreadable: %v", err)
		}
		if missing := ps.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Fatalf("%d chunks still missing after pull", len(missing))
		}

		// A second pull is a no-op: everything is local now.
		fetched, bytes, chunks = pullAll(t, c, sv, task, 2, p1, []string{"node00"}, replica.PullOptions{})
		if fetched || chunks != 0 || bytes != 0 {
			t.Errorf("warm pull = manifest %v, %d chunks, %d bytes — dedup not applied", fetched, chunks, bytes)
		}
	})
}

// TestPullStreamFailsOverMidPull kills the serving holder halfway
// through a pull: the stream moves to the next holder, which serves
// the rest, and no chunk is fetched or delivered twice.
func TestPullStreamFailsOverMidPull(t *testing.T) {
	eng, c := testCluster(t, 4)
	sv := replica.Install(c, replica.Config{Factor: 2, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	run(t, eng, c, func(task *kernel.Task) {
		p1 := commit(task, 0, 0)
		sv.Ship(c.Node(0), replica.Job{ManifestPath: p1})
		sv.WaitIdle(task)
		m, err := store.Open(c.Node(0), store.Config{Root: root}).LoadManifest(p1)
		if err != nil {
			t.Fatal(err)
		}
		unique := map[string]bool{}
		for _, ref := range m.Refs() {
			unique[ref.Hash] = true
		}

		// node03 holds nothing; node01 serves over two connections,
		// node02 is the spare.
		delivered := map[string]int{}
		var chunks int
		var ferr error
		done := false
		c.RegisterFunc("puller", func(ft *kernel.Task, _ []string) {
			defer func() { done = true }()
			if _, ferr = sv.EnsureManifest(ft, p1, "node00"); ferr != nil {
				return
			}
			ps := replica.NewPullStream(ft, sv, []string{"node01", "node02"}, m.Refs(),
				replica.PullOptions{Stripe: 1, Conns: 2, Deliver: func(ref store.ChunkRef) {
					delivered[ref.Hash]++
				}})
			ferr = ps.Wait(ft)
			chunks = ps.Chunks()
		})
		if _, err := c.Node(3).Kern.Spawn("puller", nil, nil); err != nil {
			t.Fatal(err)
		}
		for len(delivered) < len(unique)/2 {
			task.Idle(time.Millisecond)
		}
		atKill := len(delivered)
		if killed := c.KillNode(1); killed == 0 {
			t.Fatal("holder kill was a no-op")
		}
		for !done {
			task.Compute(10 * time.Millisecond)
		}
		if ferr != nil {
			t.Fatalf("pull with a dead holder: %v", ferr)
		}
		if atKill == 0 || atKill >= len(unique) {
			t.Fatalf("kill landed outside the pull (%d of %d delivered)", atKill, len(unique))
		}
		if chunks != len(unique) {
			t.Errorf("network chunks = %d, want %d (no chunk fetched twice)", chunks, len(unique))
		}
		for h := range unique {
			if delivered[h] != 1 {
				t.Errorf("chunk %s delivered %d times", h, delivered[h])
			}
		}
		local := store.Open(c.Node(3), store.Config{Root: root})
		if missing := local.MissingChunks(m.Refs()); len(missing) != 0 {
			t.Errorf("%d chunks missing after failover", len(missing))
		}
	})
}

// fanOutOnce runs one factor-3 fan-out on a fresh cluster and reports
// the outcome facts order-independence is judged on.
func fanOutOnce(t *testing.T, seed int64) (bytesSent int64, pushes int, holders []string) {
	t.Helper()
	eng, c := seededCluster(t, seed, 5)
	sv := replica.Install(c, replica.Config{Factor: 3, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	var holderSet []string
	sv.OnReplicated = func(_ string, _ int64, holder string) {
		holderSet = append(holderSet, holder)
	}
	run(t, eng, c, func(task *kernel.Task) {
		p1 := commit(task, 0, 0)
		name, gen, _ := store.NameForManifest(p1)
		sv.Ship(c.Node(0), replica.Job{ManifestPath: p1})
		sv.WaitIdle(task)

		src := store.Open(c.Node(0), store.Config{Root: root})
		m, err := src.LoadManifest(p1)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range []*kernel.Node{c.Node(1), c.Node(2), c.Node(3)} {
			ps := store.Open(peer, store.Config{Root: root})
			if missing := ps.MissingChunks(m.Refs()); len(missing) != 0 {
				t.Errorf("%s missing %d chunks", peer.Hostname, len(missing))
			}
		}
		if wm, ok := src.ReplicationWatermark(name); !ok || wm != gen {
			t.Errorf("watermark = %v,%v want %d", wm, ok, gen)
		}
	})
	sort.Strings(holderSet)
	return sv.Stats.BytesSent, sv.Stats.Pushes, holderSet
}

// TestParallelFanOutOrderIndependence pins the concurrent fan-out's
// contract: whatever order the per-peer shippers complete in, the
// outcome is identical: same peers hold complete generations, same
// bytes shipped, same watermark.
func TestParallelFanOutOrderIndependence(t *testing.T) {
	refBytes, refPushes, refHolders := fanOutOnce(t, 1)
	if refPushes != 3 || len(refHolders) != 3 {
		t.Fatalf("fan-out incomplete: pushes=%d holders=%v", refPushes, refHolders)
	}
	for _, tc := range []struct {
		name string
		seed int64
	}{
		{"different schedule", 7},
		{"another schedule", 23},
	} {
		bytes, pushes, holders := fanOutOnce(t, tc.seed)
		if bytes != refBytes || pushes != refPushes || !reflect.DeepEqual(holders, refHolders) {
			t.Errorf("%s: outcome diverged: bytes %d vs %d, pushes %d vs %d, holders %v vs %v",
				tc.name, bytes, refBytes, pushes, refPushes, holders, refHolders)
		}
	}
}

// TestJournalPushAndFencing exercises the coordinator-journal
// transport the daemons carry for coordinator HA: the want/append
// handshake ships only the suffix the sink lacks, and a stale-epoch
// pusher is fenced off.
func TestJournalPushAndFencing(t *testing.T) {
	eng, c := testCluster(t, 3)
	sv := replica.Install(c, replica.Config{Factor: 1, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	leader := coordstate.NewMachine()
	standby := coordstate.NewMachine()
	sv.SetJournalSink(c.Node(1), standby)
	run(t, eng, c, func(task *kernel.Task) {
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "a/x[1]"})
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "b/y[2]"})
		seq, err := sv.PushJournal(task, "node01", leader)
		if err != nil || seq != 2 {
			t.Fatalf("push: seq=%d err=%v", seq, err)
		}
		if !reflect.DeepEqual(standby.State(), leader.State()) {
			t.Fatal("sink state diverges after push")
		}
		before := sv.Stats.JournalEntries

		// Second push with nothing new ships nothing.
		if _, err := sv.PushJournal(task, "node01", leader); err != nil {
			t.Fatal(err)
		}
		if sv.Stats.JournalEntries != before {
			t.Error("caught-up push re-shipped entries")
		}

		// Only the suffix travels.
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "c/z[3]"})
		if seq, err := sv.PushJournal(task, "node01", leader); err != nil || seq != 3 {
			t.Fatalf("suffix push: seq=%d err=%v", seq, err)
		}
		if got := sv.Stats.JournalEntries - before; got != 1 {
			t.Errorf("suffix push shipped %d entries, want 1", got)
		}

		// The sink is promoted to epoch 1; the old epoch-0 leader must
		// be fenced off.
		standby.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node01", Epoch: 1})
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "stale"})
		if _, err := sv.PushJournal(task, "node01", leader); !errors.Is(err, replica.ErrDeposed) {
			t.Fatalf("stale-epoch push: err = %v, want ErrDeposed", err)
		}
		if standby.State().ClientByDesc("stale") != 0 {
			t.Fatal("stale entry applied through the fence")
		}
	})
}

// TestJournalFenceAfterDoubleTakeover: standby B holds epoch-0
// entries the intermediate leader A never saw; after A dies too, the
// next leader C (epoch 2) must rewind B past the divergence point —
// the first epoch boundary B missed — not merely to C's newest epoch
// start, or B would keep a divergent prefix under C's suffix.
func TestJournalFenceAfterDoubleTakeover(t *testing.T) {
	eng, c := testCluster(t, 3)
	sv := replica.Install(c, replica.Config{Factor: 1, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	reg := func(m *coordstate.Machine, desc string) {
		m.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: desc})
	}
	// Shared epoch-0 prefix of 2 entries.
	leader0 := coordstate.NewMachine()
	reg(leader0, "a/x[1]")
	reg(leader0, "b/y[2]")
	// B replicated the prefix, then got 2 more epoch-0 entries that
	// never reached anyone else before leader0 died.
	ahead, err := coordstate.Replay(leader0.EntriesSince(0))
	if err != nil {
		t.Fatal(err)
	}
	reg(ahead, "c/z[3]")
	reg(ahead, "d/w[4]")
	// A took over at epoch 1 (from the shared prefix), appended one
	// entry, then died; C took over from A's journal at epoch 2.
	next, err := coordstate.Replay(leader0.EntriesSince(0))
	if err != nil {
		t.Fatal(err)
	}
	next.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node01", Epoch: 1})
	reg(next, "e/v[5]")
	next.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node00", Epoch: 2})
	if fence := next.FenceFor(0); fence != 2 {
		t.Fatalf("FenceFor(0) = %d, want 2 (entry before epoch 1's takeover)", fence)
	}

	sv.SetJournalSink(c.Node(1), ahead)
	run(t, eng, c, func(task *kernel.Task) {
		seq, err := sv.PushJournal(task, "node01", next)
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		if seq != next.Seq() {
			t.Fatalf("peer acked seq %d, want %d", seq, next.Seq())
		}
		if !reflect.DeepEqual(ahead.State(), next.State()) {
			t.Fatalf("divergent prefix survived the fence:\npeer %+v\nleader %+v",
				ahead.State(), next.State())
		}
		if ahead.State().ClientByDesc("c/z[3]") != 0 {
			t.Fatal("orphaned epoch-0 entry kept after rewind")
		}
	})
}

// TestPullStreamStreamsAndShortCircuits pins the pull-stream
// contract: every chunk is delivered exactly once, is locally durable
// at delivery time, and chunks the local store already holds are
// delivered without touching the network.
func TestPullStreamStreamsAndShortCircuits(t *testing.T) {
	eng, c := testCluster(t, 3)
	sv := replica.Install(c, replica.Config{Factor: 1, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	run(t, eng, c, func(task *kernel.Task) {
		p1 := commit(task, 0, 0)
		src := store.Open(c.Node(0), store.Config{Root: root})
		m, err := src.LoadManifest(p1)
		if err != nil {
			t.Fatal(err)
		}
		refs := m.Refs()
		// Pre-seed a few chunks on node02 so the short-circuit path is
		// exercised alongside real fetches.
		local := store.Open(c.Node(2), store.Config{Root: root})
		preseeded := 3
		for _, ref := range refs[:preseeded] {
			ino, _ := c.Node(0).FS.ReadFile(src.ChunkPath(ref.Hash))
			c.Node(2).FS.WriteFile(local.ChunkPath(ref.Hash), ino.Data, ino.LogicalSize)
		}

		delivered := map[string]int{}
		var netBytes int64
		var nChunks int
		var ferr error
		done := false
		c.RegisterFunc("fetcher2", func(ft *kernel.Task, _ []string) {
			ps := replica.NewPullStream(ft, sv, []string{"node00"}, refs,
				replica.PullOptions{Stripe: 1, Conns: 4, Deliver: func(ref store.ChunkRef) {
					if !local.HasChunk(ref.Hash) {
						t.Errorf("chunk %s delivered before it was durable", ref.Hash)
					}
					delivered[ref.Hash]++
				}})
			ferr = ps.Wait(ft)
			netBytes, nChunks = ps.Bytes(), ps.Chunks()
			done = true
		})
		if _, err := c.Node(2).Kern.Spawn("fetcher2", nil, nil); err != nil {
			t.Fatal(err)
		}
		for !done {
			task.Compute(10 * time.Millisecond)
		}
		if ferr != nil {
			t.Fatalf("fetch: %v", ferr)
		}
		if nChunks != len(refs)-preseeded {
			t.Errorf("network chunks = %d, want %d (preseeded short-circuit)", nChunks, len(refs)-preseeded)
		}
		if netBytes <= 0 {
			t.Error("no bytes accounted for the network fetch")
		}
		if len(delivered) != len(refs) {
			t.Errorf("delivered %d distinct chunks, want %d", len(delivered), len(refs))
		}
		for h, n := range delivered {
			if n != 1 {
				t.Errorf("chunk %s delivered %d times", h, n)
			}
		}
	})
}

// TestJournalSnapshotCatchUp pins the compaction ship path: a standby
// that predates a leader compaction receives the state snapshot plus
// the materialized suffix (bounded catch-up), converges exactly, and
// subsequent pushes go back to suffix-only shipping.
func TestJournalSnapshotCatchUp(t *testing.T) {
	eng, c := testCluster(t, 3)
	sv := replica.Install(c, replica.Config{Factor: 1, Root: root})
	if err := sv.StartAll(); err != nil {
		t.Fatal(err)
	}
	leader := coordstate.NewMachine()
	for i := 0; i < 10; i++ {
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: fmt.Sprintf("h/p[%d]", i)})
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "post/compaction[1]"})

	standby := coordstate.NewMachine()
	sv.SetJournalSink(c.Node(1), standby)
	run(t, eng, c, func(task *kernel.Task) {
		seq, err := sv.PushJournal(task, "node01", leader)
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		if seq != leader.Seq() {
			t.Fatalf("acked seq = %d, want %d", seq, leader.Seq())
		}
		if sv.Stats.JournalSnapshots != 1 {
			t.Fatalf("snapshots shipped = %d, want 1", sv.Stats.JournalSnapshots)
		}
		if !reflect.DeepEqual(standby.State(), leader.State()) {
			t.Fatal("snapshot catch-up diverges")
		}
		if standby.Base() != leader.Base() {
			t.Fatalf("standby base = %d, want %d", standby.Base(), leader.Base())
		}

		// Caught-up peers keep getting plain suffixes, never snapshots.
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "tail/x[2]"})
		if _, err := sv.PushJournal(task, "node01", leader); err != nil {
			t.Fatal(err)
		}
		if sv.Stats.JournalSnapshots != 1 {
			t.Errorf("caught-up push re-shipped a snapshot (%d)", sv.Stats.JournalSnapshots)
		}
		if !reflect.DeepEqual(standby.State(), leader.State()) {
			t.Fatal("suffix push after snapshot diverges")
		}
	})
}
