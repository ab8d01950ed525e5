package kernel

import (
	"fmt"

	"repro/internal/model"
)

// AreaKind classifies a virtual memory area, mirroring the categories
// visible in /proc/<pid>/maps.
type AreaKind int

const (
	// AreaText is program or library code.
	AreaText AreaKind = iota
	// AreaData is initialized data / BSS.
	AreaData
	// AreaHeap is brk/malloc memory.
	AreaHeap
	// AreaStack is a thread stack.
	AreaStack
	// AreaAnon is an anonymous private mmap.
	AreaAnon
	// AreaShm is a shared mapping backed by a file (mmap MAP_SHARED).
	AreaShm
	// AreaFileMap is a private file-backed mapping.
	AreaFileMap
)

func (k AreaKind) String() string {
	switch k {
	case AreaText:
		return "text"
	case AreaData:
		return "data"
	case AreaHeap:
		return "heap"
	case AreaStack:
		return "stack"
	case AreaAnon:
		return "anon"
	case AreaShm:
		return "shm"
	case AreaFileMap:
		return "filemap"
	default:
		return "unknown"
	}
}

// VMArea is one mapped region of a process address space.  Bytes is
// the modeled (logical) size that checkpoint images account for;
// Payload carries real application state that round-trips through
// checkpoint images byte-exactly.
type VMArea struct {
	Name    string // e.g. "[heap]", "/usr/lib/libfoo.so"
	Kind    AreaKind
	Bytes   int64
	Class   model.MemClass
	Payload []byte

	// Seg links a shared mapping to its segment; nil otherwise.
	Seg *ShmSegment

	// vers counts writes per CkptChunkBytes span; the incremental
	// checkpoint store keys chunk identity on it.  Shared mappings
	// track versions on the segment instead.
	vers []uint64

	// present tracks per-chunk residency for lazily (post-copy)
	// restored areas: a false entry is a chunk whose contents have not
	// been installed yet.  nil means fully resident (the common case —
	// areas not going through a lazy restore never allocate it).
	present []bool
	// absent counts the false entries in present.
	absent int
	// fault resolves a first-touch access to an absent chunk.
	fault FaultHandler
}

// clone returns a private copy of the area (fork semantics: shared
// segments stay shared, private payloads are copied).
func (a *VMArea) clone() *VMArea {
	na := *a
	if a.Seg == nil && a.Payload != nil {
		na.Payload = append([]byte(nil), a.Payload...)
	}
	if a.Seg == nil && a.vers != nil {
		na.vers = append([]uint64(nil), a.vers...)
	}
	if a.Seg == nil && a.present != nil {
		na.present = append([]bool(nil), a.present...)
	}
	return &na
}

// --- dirty-chunk write tracking --------------------------------------

// CkptChunkBytes is the granularity at which writes to memory are
// tracked (and at which the content-addressed checkpoint store chunks
// area payloads).  One counter per 1 MiB keeps tracking overhead
// negligible while exposing dirty-page locality to incremental
// checkpoints.
const CkptChunkBytes int64 = 1 << 20

// ChunkCount returns how many tracking chunks cover n bytes (min 1).
func ChunkCount(n int64) int {
	if n <= 0 {
		return 1
	}
	return int((n + CkptChunkBytes - 1) / CkptChunkBytes)
}

// versSlice lazily sizes a version slice to cover bytes.
func versSlice(v []uint64, bytes int64) []uint64 {
	n := ChunkCount(bytes)
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}

func touchRange(v []uint64, bytes, off, n int64) []uint64 {
	v = versSlice(v, bytes)
	if n <= 0 {
		return v
	}
	lo := off / CkptChunkBytes
	hi := (off + n - 1) / CkptChunkBytes
	for i := lo; i <= hi && int(i) < len(v); i++ {
		v[i]++
	}
	return v
}

func touchFraction(v []uint64, bytes int64, frac float64, salt uint64) []uint64 {
	v = versSlice(v, bytes)
	if frac <= 0 {
		return v
	}
	if frac > 1 {
		frac = 1
	}
	dirty := int(float64(len(v))*frac + 0.5)
	if dirty < 1 {
		dirty = 1
	}
	// Rotate the dirty window with salt so successive intervals touch
	// different (but deterministic) chunks — a moving working set.
	start := int(salt % uint64(len(v)))
	for i := 0; i < dirty; i++ {
		v[(start+i)%len(v)]++
	}
	return v
}

// Touch records a write of n bytes at offset off, dirtying the
// covering chunks.
func (a *VMArea) Touch(off, n int64) {
	if a.Seg != nil {
		a.Seg.Touch(off, n)
		return
	}
	a.vers = touchRange(a.vers, a.Bytes, off, n)
}

// TouchFraction dirties roughly frac of the area's chunks; salt
// rotates which chunks are hit so repeated calls model a moving
// working set deterministically.
func (a *VMArea) TouchFraction(frac float64, salt uint64) {
	if a.Seg != nil {
		a.Seg.TouchFraction(frac, salt)
		return
	}
	a.vers = touchFraction(a.vers, a.Bytes, frac, salt)
}

// ChunkVersions snapshots the per-chunk write versions covering the
// area's current size.
func (a *VMArea) ChunkVersions() []uint64 {
	if a.Seg != nil {
		return a.Seg.ChunkVersions()
	}
	a.vers = versSlice(a.vers, a.Bytes)
	return append([]uint64(nil), a.vers...)
}

// SetVersions installs saved chunk versions (restart restores them so
// post-restart checkpoints keep deduplicating against earlier
// generations).  For shared mappings the versions go to the segment,
// first restorer wins (§4.5: every attached process checkpointed the
// same segment state).
func (a *VMArea) SetVersions(v []uint64) {
	if a.Seg != nil {
		a.Seg.SetVersions(v)
		return
	}
	a.vers = append([]uint64(nil), v...)
}

// --- lazy (post-copy) presence tracking -------------------------------

// FaultHandler resolves a first-touch fault on a lazily-restored area:
// it must make chunk's contents resident (blocking the calling task
// while the chunk is pulled on demand) and mark it present before
// returning nil.  Returning an error propagates to the faulting
// accessor — the restore source is gone.
type FaultHandler func(t *Task, a *VMArea, chunk int) error

// SetLazy arms post-copy restore on a private area: the listed chunk
// indices become absent (their payload bytes are placeholders until
// installed) and h is invoked on first touch.  Shared mappings are
// always installed eagerly and ignore the call.
func (a *VMArea) SetLazy(absent []int, h FaultHandler) {
	if a.Seg != nil {
		return
	}
	n := ChunkCount(a.Bytes)
	a.present = make([]bool, n)
	for i := range a.present {
		a.present[i] = true
	}
	a.absent = 0
	for _, i := range absent {
		if i >= 0 && i < n && a.present[i] {
			a.present[i] = false
			a.absent++
		}
	}
	a.fault = h
	if a.absent == 0 {
		a.present, a.fault = nil, nil
	}
}

// Lazy reports whether any chunk of the area is still absent.
func (a *VMArea) Lazy() bool { return a.absent > 0 }

// ChunkPresent reports whether the given chunk's contents are
// resident.  Fully-resident areas (and shared mappings) always are.
func (a *VMArea) ChunkPresent(idx int) bool {
	if a.present == nil || idx < 0 || idx >= len(a.present) {
		return true
	}
	return a.present[idx]
}

// MarkPresent records that a chunk's contents arrived.  When the last
// absent chunk lands, the presence map and fault hook are dropped so a
// drained area costs nothing.
func (a *VMArea) MarkPresent(idx int) {
	if a.present == nil || idx < 0 || idx >= len(a.present) || a.present[idx] {
		return
	}
	a.present[idx] = true
	a.absent--
	if a.absent == 0 {
		a.present, a.fault = nil, nil
	}
}

// AbsentChunks lists the chunk indices still awaiting contents, in
// ascending order.
func (a *VMArea) AbsentChunks() []int {
	if a.absent == 0 {
		return nil
	}
	out := make([]int, 0, a.absent)
	for i, p := range a.present {
		if !p {
			out = append(out, i)
		}
	}
	return out
}

// InstallChunk copies chunk contents into the payload at the chunk's
// offset (clipped to the real payload length, matching the checkpoint
// writer's payload-prefix chunking) and marks it present.
func (a *VMArea) InstallChunk(idx int, data []byte) {
	off := int64(idx) * CkptChunkBytes
	if off < int64(len(a.Payload)) {
		copy(a.Payload[off:], data)
	}
	a.MarkPresent(idx)
}

// EnsureRange is the fault trap: it makes [off, off+n) resident,
// invoking the fault hook (which blocks t) for each absent covering
// chunk.  Present ranges return immediately at zero cost.
func (a *VMArea) EnsureRange(t *Task, off, n int64) error {
	if a.absent == 0 || n <= 0 {
		return nil
	}
	lo := off / CkptChunkBytes
	hi := (off + n - 1) / CkptChunkBytes
	for i := lo; i <= hi; i++ {
		idx := int(i)
		if a.ChunkPresent(idx) {
			continue
		}
		h := a.fault
		if h == nil {
			return fmt.Errorf("fault on %s chunk %d: no restore source", a.Name, idx)
		}
		if err := h(t, a, idx); err != nil {
			return err
		}
	}
	return nil
}

// AddressSpace is the ordered set of areas mapped by a process.
type AddressSpace struct {
	areas []*VMArea
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace { return &AddressSpace{} }

// Map adds an area and returns it.
func (as *AddressSpace) Map(a *VMArea) *VMArea {
	as.areas = append(as.areas, a)
	return a
}

// MapAnon maps an anonymous area with the given name, size and class.
func (as *AddressSpace) MapAnon(name string, bytes int64, class model.MemClass) *VMArea {
	return as.Map(&VMArea{Name: name, Kind: AreaAnon, Bytes: bytes, Class: class})
}

// Area returns the first area with the given name, or nil.
func (as *AddressSpace) Area(name string) *VMArea {
	for _, a := range as.areas {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Areas returns the areas in mapping order.  The returned slice must
// not be mutated.
func (as *AddressSpace) Areas() []*VMArea { return as.areas }

// RSS returns the total resident size in bytes.
func (as *AddressSpace) RSS() int64 {
	var n int64
	for _, a := range as.areas {
		n += a.Bytes
	}
	return n
}

// clone implements fork: private areas are copied (COW collapsed to a
// copy; the fork *cost* is charged by the caller), shared mappings
// alias the same segment.
func (as *AddressSpace) clone() *AddressSpace {
	na := &AddressSpace{areas: make([]*VMArea, 0, len(as.areas))}
	for _, a := range as.areas {
		na.areas = append(na.areas, a.clone())
	}
	return na
}

// Maps renders a /proc/<pid>/maps-like listing, sorted by area name
// within mapping order; DMTCP uses it to probe process state.
func (as *AddressSpace) Maps() []string {
	out := make([]string, 0, len(as.areas))
	for _, a := range as.areas {
		out = append(out, fmt.Sprintf("%-8s %10d %s", a.Kind, a.Bytes, a.Name))
	}
	return out
}

// ShmSegment is a shared-memory object backed by a file path on a
// node (mmap of a file with MAP_SHARED, or POSIX shm under /dev/shm).
type ShmSegment struct {
	ID      int64
	Node    *Node
	Backing string // backing file path
	Bytes   int64
	Class   model.MemClass
	Payload []byte

	// vers tracks per-chunk writes; shared by every attached area.
	vers []uint64
}

// Touch records a write of n bytes at offset off.
func (s *ShmSegment) Touch(off, n int64) {
	s.vers = touchRange(s.vers, s.Bytes, off, n)
}

// TouchFraction dirties roughly frac of the segment's chunks.
func (s *ShmSegment) TouchFraction(frac float64, salt uint64) {
	s.vers = touchFraction(s.vers, s.Bytes, frac, salt)
}

// ChunkVersions snapshots the segment's per-chunk write versions.
func (s *ShmSegment) ChunkVersions() []uint64 {
	s.vers = versSlice(s.vers, s.Bytes)
	return append([]uint64(nil), s.vers...)
}

// SetVersions installs saved versions into a freshly re-created
// segment; segments that have already been written to (or restored)
// keep their live counters.
func (s *ShmSegment) SetVersions(v []uint64) {
	if len(s.vers) != 0 || len(v) == 0 {
		return
	}
	s.vers = append([]uint64(nil), v...)
}

// Attach maps the segment into as under the given area name.
func (s *ShmSegment) Attach(as *AddressSpace, name string) *VMArea {
	return as.Map(&VMArea{
		Name:  name,
		Kind:  AreaShm,
		Bytes: s.Bytes,
		Class: s.Class,
		Seg:   s,
	})
}
