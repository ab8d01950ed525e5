package store

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/kernel"
)

// Repair pins: a generation being re-replicated to a new holder must
// keep its manifest across retention passes that would otherwise age
// it out mid-repair — the mark phase scans every committed manifest,
// so keeping the manifest keeps its chunks live through the sweep.
// The registry is package-level because Store handles are stateless
// (all state lives in the filesystem); it is keyed by node and
// counted, so overlapping repair drives nest.  The map itself is
// mutex-guarded because independent simulations (parallel tests) share
// the package.
var (
	pinMu sync.Mutex
	pins  = map[*kernel.Node]map[string]int{}
)

func pinKey(name string, gen int64) string { return fmt.Sprintf("%s@%d", name, gen) }

// PinGeneration protects (name, gen) on this node's store from
// retention pruning until the matching UnpinGeneration.
func (s *Store) PinGeneration(name string, gen int64) {
	pinMu.Lock()
	defer pinMu.Unlock()
	m := pins[s.Node]
	if m == nil {
		m = make(map[string]int)
		pins[s.Node] = m
	}
	m[pinKey(name, gen)]++
}

// UnpinGeneration releases one PinGeneration claim.
func (s *Store) UnpinGeneration(name string, gen int64) {
	pinMu.Lock()
	defer pinMu.Unlock()
	m := pins[s.Node]
	if m == nil {
		return
	}
	k := pinKey(name, gen)
	if m[k] > 1 {
		m[k]--
		return
	}
	delete(m, k)
	if len(m) == 0 {
		delete(pins, s.Node)
	}
}

// pinnedGen reports whether (name, gen) is pinned on this node.
func (s *Store) pinnedGen(name string, gen int64) bool {
	pinMu.Lock()
	defer pinMu.Unlock()
	return pins[s.Node][pinKey(name, gen)] > 0
}

// GCStats reports one retention + mark-and-sweep pass.
type GCStats struct {
	// Pruned is the number of manifests dropped by the retention
	// policy before the sweep.
	Pruned int
	// Manifests is the number of live manifests scanned during mark.
	Manifests int
	// Live is the number of distinct chunks referenced by a live
	// manifest; LiveBytes their stored size.
	Live      int
	LiveBytes int64
	// Swept is the number of unreferenced chunks reclaimed;
	// SweptBytes the stored size returned to the disk.
	Swept      int
	SweptBytes int64
	// Took is the modeled duration of the pass.
	Took time.Duration
}

// Add accumulates another pass's counters (aggregating per-node
// sweeps into one session-wide record).
func (g *GCStats) Add(o GCStats) {
	g.Pruned += o.Pruned
	g.Manifests += o.Manifests
	g.Live += o.Live
	g.LiveBytes += o.LiveBytes
	g.Swept += o.Swept
	g.SweptBytes += o.SweptBytes
	g.Took += o.Took
}

// Prune applies the retention policy: for every image name, drop all
// but the newest keep generations.  keep <= 0 retains everything.
// When replication is active for a name, generations above the
// replication watermark are pinned: dropping them could leave their
// not-yet-replicated chunks unreferenced, and the sweep would reclaim
// data the replicator (and any post-failure restart) still needs.  It
// returns the number of manifests removed; their chunks become
// unreferenced and are reclaimed by the next GC.
func (s *Store) Prune(t *kernel.Task, keep int) int {
	if keep <= 0 {
		return 0
	}
	p := s.params()
	pruned := 0
	for _, name := range s.Names() {
		gens := s.Generations(name)
		wm, pinned := s.ReplicationWatermark(name)
		for len(gens) > keep {
			if pinned && gens[0] > wm {
				break // unreplicated generation: pinned until the watermark passes it
			}
			if s.pinnedGen(name, gens[0]) {
				break // repair in flight: pinned until the drive unpins it
			}
			t.Compute(p.SyscallCost)
			s.Node.FS.Unlink(s.ManifestPath(name, gens[0]))
			gens = gens[1:]
			pruned++
		}
	}
	return pruned
}

// GC runs mark-and-sweep: every chunk referenced by any committed
// manifest is live; everything else under <root>/chunks is reclaimed.
// Mark charges manifest scanning (metadata reads plus per-entry
// bookkeeping); sweep charges one index operation per examined chunk
// and unlinks the dead ones.
func (s *Store) GC(t *kernel.Task) GCStats {
	p := s.params()
	start := t.Now()
	var st GCStats

	// Mark: scan every committed manifest.  The chunk directory holds
	// every live chunk plus the dead ones the sweep will reclaim, so a
	// live set sized to it never rehashes as it fills.
	live := make(map[string]int64, s.Node.FS.Count(s.chunks)) // hash → stored bytes
	var manifestBytes int64
	var entries int
	for _, path := range s.Node.FS.List(s.manifestDir()) {
		ino, err := s.Node.FS.ReadFile(path)
		if err != nil {
			continue
		}
		m, err := ManifestOf(ino)
		if err != nil {
			continue
		}
		st.Manifests++
		manifestBytes += ino.Size()
		for _, a := range m.Areas {
			for _, ref := range a.Chunks {
				entries++
				live[ref.Hash] = ref.StoredBytes
			}
		}
	}
	s.Node.ReadPipeFor(s.manifestDir()).Read(t.T, manifestBytes)
	t.Compute(time.Duration(entries) * p.ManifestEntryCost)

	// Sweep: unlink chunks no manifest references, then charge the
	// pass's index lookups and unlinks as one CPU charge.
	dir := s.chunks
	paths := s.Node.FS.List(dir)
	for _, path := range paths {
		hash := path[len(dir):]
		if sz, ok := live[hash]; ok {
			st.Live++
			st.LiveBytes += sz
			continue
		}
		if ino, err := s.Node.FS.ReadFile(path); err == nil {
			st.SweptBytes += ino.Size()
		}
		s.Node.FS.Unlink(path)
		st.Swept++
	}
	t.Compute(time.Duration(len(paths))*p.ChunkLookupCost + time.Duration(st.Swept)*p.SyscallCost)
	st.Took = t.Now().Sub(start)
	return st
}

// Collect runs retention pruning followed by a mark-and-sweep pass —
// the coordinator calls this after every committed checkpoint round.
func (s *Store) Collect(t *kernel.Task, keep int) GCStats {
	pruned := s.Prune(t, keep)
	st := s.GC(t)
	st.Pruned = pruned
	return st
}
