package store

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
)

// ManifestMagic identifies manifest files.
const ManifestMagic = "CASMAN1\n"

// ErrBadManifest reports a corrupt or incompatible manifest.
var ErrBadManifest = errors.New("store: bad manifest")

// AreaChunks lists the chunks reconstructing one image section (one
// serialized VM area's payload) in order.
type AreaChunks struct {
	// Area is the section index within the image's area list.
	Area   int
	Chunks []ChunkRef
}

// Manifest is one committed generation of one process image: an
// opaque header (the image minus its bulk payloads) plus the chunk
// lists that reconstruct each payload.
type Manifest struct {
	Name       string
	Generation int64
	// Header is the serialized image with payloads stripped; the
	// checkpoint layer owns its format.
	Header []byte
	Areas  []AreaChunks
}

// Refs returns every chunk reference in the manifest, in order, in
// one allocation (nil when there are none).
func (m *Manifest) Refs() []ChunkRef {
	n := m.NumChunks()
	if n == 0 {
		return nil
	}
	out := make([]ChunkRef, 0, n)
	for _, a := range m.Areas {
		out = append(out, a.Chunks...)
	}
	return out
}

// NumChunks returns the total chunk count.
func (m *Manifest) NumChunks() int {
	n := 0
	for _, a := range m.Areas {
		n += len(a.Chunks)
	}
	return n
}

// ChunkCoord locates one chunk within a manifest: the area-list
// position and the chunk's index inside that area's chunk list (which
// is also its payload-offset index, in CkptChunkBytes units).
type ChunkCoord struct {
	Area int // index into Manifest.Areas
	Idx  int // index into that AreaChunks.Chunks
	Ref  ChunkRef
}

// Coords returns every chunk coordinate in manifest order.
func (m *Manifest) Coords() []ChunkCoord {
	out := make([]ChunkCoord, 0, m.NumChunks())
	for ai, a := range m.Areas {
		for ci, c := range a.Chunks {
			out = append(out, ChunkCoord{Area: ai, Idx: ci, Ref: c})
		}
	}
	return out
}

// HotOrder returns every chunk coordinate sorted hottest-first by the
// Heat carried in the manifest (last-generation write recency), with
// ties broken by (area, idx) so the order is deterministic.  The lazy
// restore skeleton and prefetch queue both consume it.
func (m *Manifest) HotOrder() []ChunkCoord {
	out := m.Coords()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ref.Heat != out[j].Ref.Heat {
			return out[i].Ref.Heat > out[j].Ref.Heat
		}
		if out[i].Area != out[j].Area {
			return out[i].Area < out[j].Area
		}
		return out[i].Idx < out[j].Idx
	})
	return out
}

// StoredBytes sums the on-disk sizes of all referenced chunks.
func (m *Manifest) StoredBytes() int64 {
	var n int64
	for _, a := range m.Areas {
		for _, c := range a.Chunks {
			n += c.StoredBytes
		}
	}
	return n
}

// Encoded sizes: the fixed part of an area entry (index, chunk count)
// and of a chunk ref (the length prefixes of Hash and Sum, LogicalBytes,
// StoredBytes, Entropy, ZeroFrac, Heat).  A ref is at least refBytes
// long, which bounds how many refs a buffer can hold.
const (
	areaBytes = 8 + 4
	refBytes  = 4 + 5*8 + 4
)

// encodedLen returns the exact length of Encode's output.
func (m *Manifest) encodedLen() int {
	n := len(ManifestMagic) + 4 + len(m.Name) + 8 + 4 + len(m.Header) + 4
	for _, a := range m.Areas {
		n += areaBytes
		for _, c := range a.Chunks {
			n += refBytes + len(c.Hash) + len(c.Sum)
		}
	}
	return n
}

// Encode serializes the manifest into one buffer of its exact length.
func (m *Manifest) Encode() []byte {
	e := bin.Encoder{B: make([]byte, 0, m.encodedLen())}
	e.B = append(e.B, ManifestMagic...)
	e.Str(m.Name)
	e.I64(m.Generation)
	e.Bytes(m.Header)
	e.U32(uint32(len(m.Areas)))
	for _, a := range m.Areas {
		e.Int(a.Area)
		e.U32(uint32(len(a.Chunks)))
		for _, c := range a.Chunks {
			e.Str(c.Hash)
			e.I64(c.LogicalBytes)
			e.I64(c.StoredBytes)
			e.F64(c.Entropy)
			e.F64(c.ZeroFrac)
			e.I64(c.Heat)
			e.Str(c.Sum)
		}
	}
	return e.B
}

// DecodeManifest parses a serialized manifest.  Each list is sized
// from its encoded count, capped by what the remaining bytes could
// hold, so a corrupt count fails as ErrBadManifest without a large
// allocation.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(ManifestMagic) || string(b[:len(ManifestMagic)]) != ManifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	d := &bin.Decoder{B: b[len(ManifestMagic):]}
	m := &Manifest{}
	m.Name = d.Str()
	m.Generation = d.I64()
	m.Header = d.Bytes()
	if n := int(d.U32()); n > 0 {
		m.Areas = make([]AreaChunks, 0, min(n, len(d.B)/areaBytes))
		for i := 0; i < n && d.Err == nil; i++ {
			a := AreaChunks{Area: d.Int()}
			if k := int(d.U32()); k > 0 {
				a.Chunks = make([]ChunkRef, 0, min(k, len(d.B)/refBytes))
				for j := 0; j < k && d.Err == nil; j++ {
					a.Chunks = append(a.Chunks, ChunkRef{
						Hash:         d.Str(),
						LogicalBytes: d.I64(),
						StoredBytes:  d.I64(),
						Entropy:      d.F64(),
						ZeroFrac:     d.F64(),
						Heat:         d.I64(),
						Sum:          d.Str(),
					})
				}
			}
			m.Areas = append(m.Areas, a)
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, d.Err)
	}
	return m, nil
}

// WriteManifest commits a generation: it charges per-chunk manifest
// bookkeeping plus storage bandwidth for the manifest itself and
// writes it.  It returns the manifest path and its size.
func (s *Store) WriteManifest(t *kernel.Task, m *Manifest) (string, int64) {
	p := s.params()
	t.Compute(time.Duration(m.NumChunks()) * p.ManifestEntryCost)
	data := m.Encode()
	path := s.ManifestPath(m.Name, m.Generation)
	s.Node.WritePipeFor(path).Write(t.T, int64(len(data)))
	s.Node.FS.WriteFile(path, data, 0)
	return path, int64(len(data))
}

// ManifestOf returns the manifest the file ino holds.  It decodes the
// bytes once per inode content and caches the result as the inode's
// memo (kernel.Inode.Memo), which any in-place change to the bytes
// drops.  The manifest is shared by every reader of the file: callers
// must not modify it, its Header, or its chunk lists.
func ManifestOf(ino *kernel.Inode) (*Manifest, error) {
	if m, ok := ino.Memo().(*Manifest); ok {
		return m, nil
	}
	m, err := DecodeManifest(ino.Data)
	if err != nil {
		return nil, err
	}
	ino.SetMemo(m)
	return m, nil
}

// LoadManifest reads a manifest by path, without charging bulk time
// (callers charge the metadata read, mirroring how restart reads image
// headers before the bulk restore).  The result is shared read-only
// (ManifestOf).
func (s *Store) LoadManifest(path string) (*Manifest, error) {
	ino, err := s.Node.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ManifestOf(ino)
}

// LatestManifest returns the newest committed generation for name.
func (s *Store) LatestManifest(name string) (*Manifest, error) {
	gens := s.Generations(name)
	if len(gens) == 0 {
		return nil, kernel.ErrNoEnt
	}
	return s.LoadManifest(s.ManifestPath(name, gens[len(gens)-1]))
}

// CopyTo replicates a manifest and every chunk it references into the
// destination store if absent (checkpoint migration: making a
// generation restorable on another node).  It copies structure only;
// the caller models transfer time if any.
func (s *Store) CopyTo(dst *Store, manifestPath string) error {
	ino, err := s.Node.FS.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	m, err := ManifestOf(ino)
	if err != nil {
		return err
	}
	for _, a := range m.Areas {
		for _, ref := range a.Chunks {
			dp := dst.ChunkPath(ref.Hash)
			if dst.Node.FS.Exists(dp) {
				continue
			}
			cino, err := s.Node.FS.ReadFile(s.ChunkPath(ref.Hash))
			if err != nil {
				return fmt.Errorf("store: missing chunk %s: %w", ref.Hash, err)
			}
			dst.Node.FS.WriteFile(dp, cino.Data, cino.LogicalSize)
		}
	}
	if !dst.Node.FS.Exists(manifestPath) {
		dst.Node.FS.WriteFile(manifestPath, ino.Data, ino.LogicalSize)
	}
	return nil
}
