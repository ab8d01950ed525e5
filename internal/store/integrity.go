package store

// End-to-end chunk integrity.  Every committed chunk carries a content
// checksum over its real payload bytes (ChunkRef.Sum), computed once at
// write time and carried through manifests and replica transfers, so
// every consumer — restore reads, replica fetches, the background
// scrubber — can detect a chunk whose stored bytes no longer match what
// was committed (the simulation's stand-in for latent disk corruption).
//
// Verification on ordinary read paths is modeled as free: the checksum
// rides the decompression pass exactly as gzip's trailing CRC does, and
// uncompressed reads are bandwidth-bound, not hash-bound.  The scrubber
// is the opposite — its whole job is reading and hashing cold data — so
// a scrub pass charges full read bandwidth plus hash CPU, paced down to
// a background QoS share.
//
// A chunk that fails verification is quarantined: the object is moved
// to <root>/quarantine/<hash> (kept for post-mortem, like a real
// scrubber would) so the chunk reads as missing.  Everything downstream
// already knows how to handle a missing chunk — restore fetches it from
// a verified replica holder, and the repair drive re-replicates it —
// which is exactly the recovery we want for a corrupt one.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// ErrCorruptChunk reports a chunk whose payload bytes fail content
// verification against the checksum its manifest carries.
var ErrCorruptChunk = errors.New("store: corrupt chunk")

// ContentSum fingerprints a chunk's payload bytes alone.  Unlike
// ChunkHash — which names a chunk by its dedup identity (scope,
// position, version, …) and is not recomputable from the stored object
// — ContentSum depends only on the bytes on disk, so any holder can
// verify a chunk it did not write.
func ContentSum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:10])
}

// VerifyChunk checks the local chunk object against ref.Sum.  It
// returns nil for a clean chunk or one whose ref predates checksums
// (empty Sum), kernel.ErrNoEnt if the object is absent, and
// ErrCorruptChunk on a mismatch.  No time is charged; callers either
// piggyback on an existing read charge or account scrub costs
// explicitly.
func (s *Store) VerifyChunk(ref ChunkRef) error {
	ino, err := s.Node.FS.ReadFile(s.ChunkPath(ref.Hash))
	if err != nil {
		return err
	}
	if ref.Sum != "" && ContentSum(ino.Data) != ref.Sum {
		return fmt.Errorf("%w: %s", ErrCorruptChunk, ref.Hash)
	}
	return nil
}

// ReadChunkVerified returns a chunk's payload after verifying it
// against ref.Sum.  A corrupt chunk is quarantined before the error
// returns, so it immediately reads as missing and recovery paths
// (holder fetch, repair) take over.
func (s *Store) ReadChunkVerified(t *kernel.Task, ref ChunkRef) ([]byte, error) {
	ino, err := s.Node.FS.ReadFile(s.ChunkPath(ref.Hash))
	if err != nil {
		return nil, err
	}
	if ref.Sum != "" && ContentSum(ino.Data) != ref.Sum {
		s.Quarantine(t, ref.Hash)
		return nil, fmt.Errorf("%w: %s", ErrCorruptChunk, ref.Hash)
	}
	return ino.Data, nil
}

func (s *Store) quarantineDir() string { return s.Cfg.Root + "/quarantine/" }

// QuarantinePath returns where a quarantined chunk object lands.
func (s *Store) QuarantinePath(hash string) string { return s.quarantineDir() + hash }

// Quarantine moves a chunk object out of the chunk namespace into
// <root>/quarantine/, so the chunk reads as missing while the bad bytes
// stay available for post-mortem.  It reports whether an object was
// actually moved (false: already gone or already quarantined).
func (s *Store) Quarantine(t *kernel.Task, hash string) bool {
	path := s.ChunkPath(hash)
	ino, err := s.Node.FS.ReadFile(path)
	if err != nil {
		return false
	}
	s.Node.FS.WriteFile(s.QuarantinePath(hash), ino.Data, ino.LogicalSize)
	s.Node.FS.Unlink(path)
	t.Trace().Add(t.Host(), "store.corrupt_chunks", t.Now(), 1)
	t.Trace().Instant(t.Host(), "store", "store.quarantine", "integrity", t.Now(),
		obs.A("bytes", ino.Size()))
	return true
}

// Quarantined lists the quarantined chunk hashes, sorted.
func (s *Store) Quarantined() []string {
	dir := s.quarantineDir()
	var out []string
	for _, p := range s.Node.FS.List(dir) {
		out = append(out, p[len(dir):])
	}
	return out
}

// CorruptChunk is the disk-fault injector: it flips one random bit of
// the stored object's payload in place (or plants a garbage byte in an
// empty object), using the caller's seeded RNG (kernel.Inode.Corrupt).
// It reports false if the chunk object does not exist.
func (s *Store) CorruptChunk(rng *rand.Rand, hash string) bool {
	ino, err := s.Node.FS.ReadFile(s.ChunkPath(hash))
	if err != nil {
		return false
	}
	ino.Corrupt(rng)
	return true
}

// CorruptRandomChunk corrupts one uniformly-chosen committed chunk and
// returns its hash (deterministic for a given RNG state: candidates
// are drawn from the sorted object list).
func (s *Store) CorruptRandomChunk(rng *rand.Rand) (string, bool) {
	dir := s.chunks
	paths := s.Node.FS.List(dir)
	if len(paths) == 0 {
		return "", false
	}
	hash := paths[rng.Intn(len(paths))][len(dir):]
	return hash, s.CorruptChunk(rng, hash)
}

// ScrubStats summarizes one scrub pass.
type ScrubStats struct {
	Checked int   // chunk objects verified
	Corrupt int   // verification failures (all quarantined)
	Bytes   int64 // stored bytes read and hashed
}

// ScrubPass walks every committed manifest, verifies each locally
// present chunk against the checksum the manifest carries, and
// quarantines failures.  It charges read bandwidth plus hash CPU per
// chunk and, when 0 < qos < 1, idles between chunks so the scrubber
// consumes roughly a qos share of the disk — the background-drain
// discipline the repair drive uses.  onCorrupt (optional) fires once
// per quarantined chunk so upper layers can trigger re-replication.
func (s *Store) ScrubPass(t *kernel.Task, qos float64, onCorrupt func(ref ChunkRef)) ScrubStats {
	p := s.params()
	// Deduplicate refs across manifests (first wins) in deterministic
	// manifest order; different generations referencing one chunk agree
	// on its Sum because content addressing pins the payload.
	seen := map[string]bool{}
	var work []ChunkRef
	for _, mp := range s.Node.FS.List(s.manifestDir()) {
		m, err := s.LoadManifest(mp)
		if err != nil {
			continue // corrupt manifests are the replica layer's problem
		}
		for _, ref := range m.Refs() {
			if ref.Sum == "" || seen[ref.Hash] {
				continue
			}
			seen[ref.Hash] = true
			work = append(work, ref)
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i].Hash < work[j].Hash })
	var st ScrubStats
	for _, ref := range work {
		if !s.HasChunk(ref.Hash) {
			continue
		}
		s.Node.ReadPipeFor(s.chunks).Read(t.T, ref.StoredBytes)
		t.Compute(p.HashTime(ref.StoredBytes))
		st.Checked++
		st.Bytes += ref.StoredBytes
		if err := s.VerifyChunk(ref); errors.Is(err, ErrCorruptChunk) {
			st.Corrupt++
			s.Quarantine(t, ref.Hash)
			if onCorrupt != nil {
				onCorrupt(ref)
			}
		}
		t.IdleQoS(time.Duration(float64(ref.StoredBytes)/p.DiskReadBW*1e9)+p.HashTime(ref.StoredBytes), qos)
	}
	return st
}
