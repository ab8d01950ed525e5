package store

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kernel"
)

// Replication support: the store records, per image name, the highest
// generation that has been fully copied to its replica peers (the
// replication watermark).  The watermark has two jobs:
//
//   - it pins retention: Prune never drops a manifest newer than the
//     watermark, so chunks that are committed locally but not yet
//     fully replicated can never become unreferenced and be swept by
//     GC while the replicator still needs to read them;
//   - it names the generation failure recovery restarts from — the
//     newest one guaranteed to exist somewhere else.
//
// Watermarks live in the filesystem like all other store state:
//
//	<root>/replication/<name>   highest fully-replicated generation

func (s *Store) replicaDir() string { return s.Cfg.Root + "/replication/" }

// WatermarkPath returns the replication-watermark file for an image
// name.
func (s *Store) WatermarkPath(name string) string { return s.replicaDir() + name }

// ReplicationWatermark returns the highest fully-replicated generation
// for name and whether replication is active for it at all.  Absent
// watermark (replication never enabled for this image) reports ok =
// false, and retention applies unpinned.
func (s *Store) ReplicationWatermark(name string) (int64, bool) {
	ino, err := s.Node.FS.ReadFile(s.WatermarkPath(name))
	if err != nil {
		return 0, false
	}
	gen, err := strconv.ParseInt(strings.TrimSpace(string(ino.Data)), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// SetReplicationWatermark records gen as fully replicated for name.
// The watermark never moves backwards.
func (s *Store) SetReplicationWatermark(t *kernel.Task, name string, gen int64) {
	if cur, ok := s.ReplicationWatermark(name); ok && cur >= gen {
		return
	}
	t.Compute(s.params().SyscallCost)
	s.Node.FS.WriteFile(s.WatermarkPath(name), []byte(strconv.FormatInt(gen, 10)), 0)
}

// InitReplicationWatermark makes replication pinning active for name
// (watermark 0: nothing replicated yet) without moving an existing
// watermark.  The checkpoint layer calls it at commit time, before the
// coordinator's post-round GC could prune the just-written generation.
func (s *Store) InitReplicationWatermark(t *kernel.Task, name string) {
	if _, ok := s.ReplicationWatermark(name); ok {
		return
	}
	t.Compute(s.params().SyscallCost)
	s.Node.FS.WriteFile(s.WatermarkPath(name), []byte("0"), 0)
}

// NameForManifest parses a manifest path into its image name and
// generation number.
func NameForManifest(path string) (string, int64, bool) {
	i := strings.LastIndex(path, "/manifests/")
	if i < 0 {
		return "", 0, false
	}
	base := path[i+len("/manifests/"):]
	j := strings.LastIndex(base, ".g")
	if j < 0 {
		return "", 0, false
	}
	gen, err := strconv.ParseInt(base[j+2:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return base[:j], gen, true
}

// MissingChunks returns the subset of refs whose chunk objects are not
// present locally — the dedup-aware replication and recovery-fetch
// work list: only these travel over the network.
func (s *Store) MissingChunks(refs []ChunkRef) []ChunkRef {
	var out []ChunkRef
	for _, r := range refs {
		if !s.HasChunk(r.Hash) {
			out = append(out, r)
		}
	}
	return out
}

// PutReplicaChunk stores an already-compressed chunk received from a
// peer: it verifies the received bytes against the ref's content
// checksum (a corrupt chunk is never installed — the error surfaces to
// the fetcher, which falls back to another holder), charges the index
// probe and storage bandwidth for the stored size (no recompression —
// the bytes arrive in stored form) and writes the object if absent.
// It reports whether the chunk was new.
func (s *Store) PutReplicaChunk(t *kernel.Task, ref ChunkRef, data []byte) (bool, error) {
	if ref.Sum != "" && ContentSum(data) != ref.Sum {
		t.Trace().Add(t.Host(), "store.reject_corrupt", t.Now(), 1)
		return false, fmt.Errorf("%w: %s (received)", ErrCorruptChunk, ref.Hash)
	}
	t.Compute(s.params().ChunkLookupCost)
	path := s.ChunkPath(ref.Hash)
	if s.Node.FS.Exists(path) {
		return false, nil
	}
	s.Node.WritePipeFor(path).Write(t.T, ref.StoredBytes)
	s.Node.FS.WriteFile(path, data, ref.StoredBytes)
	return true, nil
}

// PutRawManifest stores serialized manifest bytes received from a
// peer, charging storage bandwidth for them.  A node that already
// holds the same bytes at path keeps its file: nothing is charged or
// replaced, so the manifest decoded from it (ManifestOf) stays cached.
func (s *Store) PutRawManifest(t *kernel.Task, path string, data []byte) {
	if ino, err := s.Node.FS.ReadFile(path); err == nil && bytes.Equal(ino.Data, data) {
		return
	}
	s.Node.WritePipeFor(path).Write(t.T, int64(len(data)))
	s.Node.FS.WriteFile(path, data, 0)
}
