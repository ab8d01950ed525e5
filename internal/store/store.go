// Package store is a content-addressed checkpoint store: the storage
// layer that turns DMTCP's monolithic per-process images into
// incremental, deduplicated generations (after stdchk's dedicated
// checkpoint storage system).
//
// Checkpoint payloads are split into fixed-size chunks, fingerprinted,
// and written only when the fingerprint is not already present; a
// manifest per (process image, generation) lists the chunks that
// reconstruct the image.  The store supports generation retention,
// mark-and-sweep garbage collection of unreferenced chunks, and
// per-chunk compression timed by the calibrated gzip model, so the
// simulated cost of an incremental checkpoint scales with the
// *deduplicated* bytes actually written.
//
// On-"disk" layout under Config.Root (a simulated kernel.Store
// namespace; roots under /san live on central storage):
//
//	<root>/chunks/<hash>            one chunk object
//	<root>/manifests/<name>.g<NNNNNN>  one generation of one image
//
// Chunk objects carry the real payload span as Inode data and account
// their modeled (compressed) size as the inode's logical size.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sim"
)

// Config selects store location and behavior.
type Config struct {
	// Root is the store directory, e.g. "/ckpt/store".  Roots under
	// /san are shared cluster-wide.
	Root string
	// Compress enables per-chunk compression (gzip model).
	Compress bool
}

// Store is a handle to one content-addressed store on one node's
// filesystem (or on central storage when Root is under /san).  Handles
// are cheap: all state lives in the filesystem.
type Store struct {
	Node *kernel.Node
	Cfg  Config

	chunks string // chunk object directory, Cfg.Root + "/chunks/"
}

// Open returns a handle to the store rooted at cfg.Root on node n.
func Open(n *kernel.Node, cfg Config) *Store {
	return &Store{Node: n, Cfg: cfg, chunks: cfg.Root + "/chunks/"}
}

// ChunkRef identifies one stored chunk and carries the accounting
// needed to charge reads without touching the chunk object.
type ChunkRef struct {
	Hash string
	// LogicalBytes is the uncompressed span the chunk covers.
	LogicalBytes int64
	// StoredBytes is the modeled on-disk (compressed) size.
	StoredBytes int64
	// Entropy and ZeroFrac reproduce the span's model.MemClass for
	// decompression timing at restore.
	Entropy  float64
	ZeroFrac float64
	// Heat is the chunk's write version at checkpoint time — a
	// recency proxy the lazy restore prefetcher uses to pull the
	// hottest (most recently written) chunks first.
	Heat int64
	// Sum is the content checksum of the chunk's payload bytes
	// (ContentSum), carried in manifests and replica transfers so any
	// holder can verify its stored copy end-to-end (see integrity.go).
	Sum string
}

// Class reconstructs the chunk's compressibility class.
func (r ChunkRef) Class() model.MemClass {
	return model.MemClass{Entropy: r.Entropy, ZeroFrac: r.ZeroFrac}
}

// ChunkHash fingerprints one chunk: the identity covers the chunk's
// dedup scope (an area name for globally-dedupable content such as
// library text, shared segments, and untouched zero pages; an
// image-qualified name for written private memory — see the
// checkpoint layer's scoping rules), its position, its write version
// (the kernel's dirty-tracking counter — the simulation's stand-in
// for page content), its logical extent and class, and the real
// payload bytes it carries.  Identical spans — an untouched libc text
// chunk in every process, generation after generation of a clean heap
// — therefore collapse to one stored object.
//
// The fingerprint hashes the preimage
// fmt.Sprintf("%s\x00%d\x00%d\x00%d\x00%.4f\x00%.4f\x00", scope,
// index, version, span, class.Entropy, class.ZeroFrac) followed by
// data; the preimage is built with strconv in a stack buffer, byte for
// byte what that format prints.
func ChunkHash(scope string, index int, version uint64, span int64, class model.MemClass, data []byte) string {
	var buf [128]byte
	b := append(buf[:0], scope...)
	b = strconv.AppendInt(append(b, 0), int64(index), 10)
	b = strconv.AppendUint(append(b, 0), version, 10)
	b = strconv.AppendInt(append(b, 0), span, 10)
	b = strconv.AppendFloat(append(b, 0), class.Entropy, 'f', 4, 64)
	b = strconv.AppendFloat(append(b, 0), class.ZeroFrac, 'f', 4, 64)
	b = append(b, 0)
	h := sha256.New()
	h.Write(b)
	h.Write(data)
	var sum [sha256.Size]byte
	var name [40]byte
	hex.Encode(name[:], h.Sum(sum[:0])[:20])
	return string(name[:])
}

func (s *Store) manifestDir() string { return s.Cfg.Root + "/manifests/" }

// ChunkPath returns the object path for a chunk hash.
func (s *Store) ChunkPath(hash string) string { return s.chunks + hash }

// ManifestPath returns the manifest path for (name, generation).
func (s *Store) ManifestPath(name string, gen int64) string {
	return fmt.Sprintf("%s%s.g%06d", s.manifestDir(), name, gen)
}

// IsManifestPath reports whether path names a store manifest (so
// restart can route image loads through the store transparently).
func IsManifestPath(path string) bool {
	i := strings.LastIndex(path, "/manifests/")
	if i < 0 {
		return false
	}
	base := path[i+len("/manifests/"):]
	j := strings.LastIndex(base, ".g")
	if j < 0 {
		return false
	}
	_, err := strconv.ParseInt(base[j+2:], 10, 64)
	return err == nil
}

// RootForManifest derives the store root from a manifest path.
func RootForManifest(path string) (string, bool) {
	i := strings.LastIndex(path, "/manifests/")
	if i < 0 {
		return "", false
	}
	return path[:i], true
}

// params returns the cluster's calibrated model.
func (s *Store) params() *model.Params { return s.Node.Cluster.Params }

// HasChunk reports whether the chunk object already exists.  It probes
// without building the object's path.
func (s *Store) HasChunk(hash string) bool {
	return s.Node.FS.ExistsIn(s.chunks, hash)
}

// inflightPuts tracks chunk hashes currently being compressed/written
// per node, so concurrent PutChunk callers (parallel checkpoint
// writers, replica receivers) never duplicate the compression CPU and
// storage write for one chunk: the first writer claims the hash,
// later callers wait and then observe a dedup hit.  The map itself is
// mutex-guarded because independent simulations (parallel tests) share
// the package; all WaitQueue operations stay within one engine's
// cooperative scheduling.
var (
	inflightMu   sync.Mutex
	inflightPuts = map[*kernel.Node]map[string]*sim.WaitQueue{}
)

// claimPut claims hash for writing on s's node.  It returns nil when
// the claim was won; otherwise the queue to wait on until the current
// writer finishes.
func (s *Store) claimPut(hash string) *sim.WaitQueue {
	inflightMu.Lock()
	defer inflightMu.Unlock()
	m := inflightPuts[s.Node]
	if m == nil {
		m = make(map[string]*sim.WaitQueue)
		inflightPuts[s.Node] = m
	}
	if wq, busy := m[hash]; busy {
		return wq
	}
	m[hash] = sim.NewWaitQueue(s.Node.Cluster.Eng, "store.put."+hash[:8])
	return nil
}

// releasePut retires a claim and wakes waiters.
func (s *Store) releasePut(hash string) {
	inflightMu.Lock()
	m := inflightPuts[s.Node]
	wq := m[hash]
	delete(m, hash)
	if len(m) == 0 {
		delete(inflightPuts, s.Node)
	}
	inflightMu.Unlock()
	if wq != nil {
		wq.WakeAll()
	}
}

// PutChunk stores one chunk if absent.  It always charges the
// content-addressed index probe; for a chunk that is already present
// nothing else is charged or written — that skip is the entire dedup
// win.  For a new chunk it charges compression CPU (when enabled) and
// queues the stored size on wb, the writer's write-behind stage: the
// chunk lands when the transfer carrying it ends, and landing writes
// the object, releases the chunk's claim and then runs landed (when
// non-nil) on the stage's writer task.  It returns at once with the
// stored size and whether the chunk was new.
//
// PutChunk is safe for concurrent writer tasks: callers racing on one
// hash serialize through an in-flight claim, held until the chunk
// lands, so exactly one pays the compression and write while the rest
// see a dedup hit.
func (s *Store) PutChunk(t *kernel.Task, wb *kernel.WriteBehind, ref *ChunkRef, data []byte, landed func(wt *kernel.Task, ref ChunkRef)) (int64, bool) {
	p := s.params()
	if ref.Sum == "" {
		// Content checksum for end-to-end verification; free here — the
		// payload is already flowing through the fingerprint hash the
		// writer charged for.
		ref.Sum = ContentSum(data)
	}
	t.Compute(p.ChunkLookupCost)
	for {
		path := s.ChunkPath(ref.Hash)
		if ino, err := s.Node.FS.ReadFile(path); err == nil {
			ref.StoredBytes = ino.Size()
			t.Trace().Add(t.Host(), "store.dedup_bytes", t.Now(), ino.Size())
			return ino.Size(), false
		}
		wq := s.claimPut(ref.Hash)
		if wq == nil {
			break // claim won: this task writes the chunk
		}
		wq.Wait(t.T) // another task is writing it; re-check when done
	}
	queued := false
	defer func() {
		if !queued { // killed while compressing
			s.releasePut(ref.Hash)
		}
	}()
	stored := ref.LogicalBytes
	if s.Cfg.Compress {
		rng := s.Node.Cluster.Eng.Rand()
		t.Compute(p.Jitter(rng, p.CompressTime(ref.LogicalBytes, ref.Class())))
		stored = p.CompressedSize(ref.LogicalBytes, ref.Class())
	}
	ref.StoredBytes = stored
	r := *ref
	wb.Queue(stored, func(wt *kernel.Task, ok bool) {
		if ok {
			s.Node.FS.WriteFile(s.ChunkPath(r.Hash), data, stored)
			wt.Trace().Add(wt.Host(), "store.put_bytes", wt.Now(), stored)
		}
		s.releasePut(r.Hash)
		if ok && landed != nil {
			landed(wt, r)
		}
	})
	queued = true
	return stored, true
}

// ReadChunkData returns a chunk's real payload bytes without charging
// time (bulk read time is charged from manifest refs, which know the
// stored sizes — see ChargeReadRaw and ChargeGunzip).
func (s *Store) ReadChunkData(hash string) ([]byte, error) {
	ino, err := s.Node.FS.ReadFile(s.ChunkPath(hash))
	if err != nil {
		return nil, err
	}
	return ino.Data, nil
}

// ChargeGunzip charges the decompression CPU that rebuilds one
// chunk's logical bytes from its stored form (nothing for a chunk
// stored raw).  The read of the stored bytes is charged apart: by the
// restore side's read-ahead stage, or by ChargeReadRaw on a demand
// fault.
func ChargeGunzip(t *kernel.Task, ref ChunkRef) {
	if ref.StoredBytes < ref.LogicalBytes {
		t.Compute(t.P.Node.Cluster.Params.DecompressTime(ref.LogicalBytes, ref.Class()))
	}
}

// ChargeReadRaw charges only the storage bandwidth for streaming the
// given chunks out in their stored (compressed) form, in one transfer:
// what shipping a chunk to a replica peer costs, where nothing is
// decompressed, and what a lazy restore's demand fault pays for its
// chunk before ChargeGunzip.
func (s *Store) ChargeReadRaw(t *kernel.Task, refs []ChunkRef) {
	var stored int64
	for _, r := range refs {
		stored += r.StoredBytes
	}
	s.Node.ReadPipeFor(s.chunks).Read(t.T, stored)
}

// Generations returns the committed generation numbers for an image
// name, ascending.  Numbers are sorted numerically — the zero-padded
// file names happen to sort lexicographically too, but only below
// generation 10^6, so ordering never depends on it.
func (s *Store) Generations(name string) []int64 {
	prefix := s.manifestDir() + name + ".g"
	var out []int64
	for _, p := range s.Node.FS.List(prefix) {
		if g, err := strconv.ParseInt(p[len(prefix):], 10, 64); err == nil {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NextGeneration returns the generation number a new checkpoint of
// name should commit as (last + 1, starting at 1).
func (s *Store) NextGeneration(name string) int64 {
	gens := s.Generations(name)
	if len(gens) == 0 {
		return 1
	}
	return gens[len(gens)-1] + 1
}

// Names lists the image names with at least one committed generation.
func (s *Store) Names() []string {
	dir := s.manifestDir()
	seen := map[string]bool{}
	var out []string
	for _, p := range s.Node.FS.List(dir) {
		base := p[len(dir):]
		j := strings.LastIndex(base, ".g")
		if j < 0 {
			continue
		}
		name := base[:j]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}
