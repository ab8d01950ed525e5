// Package mtcp is the lower layer of the two-layer checkpointing
// design (§4.1): single-process checkpoint and restore.  It knows how
// to capture a process's memory areas and thread records into a
// versioned binary image, charge realistic time for writing/reading
// that image through the storage and compression models, and rebuild
// process memory from an image.  Everything distributed — sockets,
// coordination, restart orchestration — belongs to the DMTCP layer
// above, which talks to this package through a small API, mirroring
// the paper's MTCP/DMTCP split.
package mtcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// Magic and Version identify the image format.  Version 2 added
// per-area chunk write-versions for the incremental store; version 3
// added the stripped-payload length for lazy (post-copy) restores.
const (
	Magic   = "MTCPIMG1"
	Version = 3
)

// ErrBadImage reports a corrupt or incompatible image.
var ErrBadImage = errors.New("mtcp: bad image")

// AreaRecord is one serialized VM area.
type AreaRecord struct {
	Name       string
	Kind       kernel.AreaKind
	Bytes      int64
	Entropy    float64
	ZeroFrac   float64
	Payload    []byte
	ShmBacking string // non-empty for shared mappings

	// PayloadBytes is the length of the payload this record carried
	// before a manifest header stripped it (headerBytes).  A lazy
	// restore sizes its install buffers from it; zero for records that
	// still hold their payload.
	PayloadBytes int64

	// ChunkVers are the kernel's per-chunk write versions at capture
	// time (kernel.CkptChunkBytes granularity); the content-addressed
	// store keys chunk identity on them, and restart reinstalls them
	// so later checkpoints keep deduplicating across a restart.
	ChunkVers []uint64
}

// Class reconstructs the compressibility class.
func (a *AreaRecord) Class() model.MemClass {
	return model.MemClass{Entropy: a.Entropy, ZeroFrac: a.ZeroFrac}
}

// ThreadRecord is one serialized user thread.  ContFD/ContData carry
// an in-progress send continuation (the bytes a thread blocked inside
// write() had not yet pushed into the kernel), which restart completes
// so streams stay byte-exact.
type ThreadRecord struct {
	Role     string
	ContFD   int32 // -1 when no continuation
	ContData []byte
}

// Image is a whole single-process checkpoint.
type Image struct {
	Hostname string
	ProgName string
	Args     []string
	Env      map[string]string
	RealPid  int64
	VirtPid  int64

	Areas   []AreaRecord
	Threads []ThreadRecord

	// Ext holds upper-layer sections keyed by name; DMTCP stores its
	// connection-information table and descriptor table here.  MTCP
	// treats them as opaque bytes (the two-layer API of §4.1).
	Ext map[string][]byte

	// manifest caches the decoded store manifest for images loaded
	// through the chunked path, so the bulk-restore charge does not
	// decode it a second time.  Never serialized.
	manifest *store.Manifest

	// bulkCharged marks an image whose bulk restore cost (chunk reads
	// and decompression) was already paid by the streamed restore
	// pipeline; the per-process restore charge then covers only the
	// per-area install bookkeeping.  Never serialized.
	bulkCharged bool
}

// Capture snapshots a process into an image.  The caller (the
// checkpoint manager) must have suspended the process's user threads.
// A live state source's pending change is encoded into "[state]"
// first (kernel.StateSource).
func Capture(p *kernel.Process, virtPid kernel.Pid) *Image {
	p.SyncState()
	img := &Image{
		Hostname: p.Node.Hostname,
		ProgName: p.ProgName,
		Args:     append([]string(nil), p.Args...),
		Env:      map[string]string{},
		RealPid:  int64(p.Pid),
		VirtPid:  int64(virtPid),
		Ext:      map[string][]byte{},
	}
	for k, v := range p.Env {
		img.Env[k] = v
	}
	for _, a := range p.Mem.Areas() {
		rec := AreaRecord{
			Name:     a.Name,
			Kind:     a.Kind,
			Bytes:    a.Bytes,
			Entropy:  a.Class.Entropy,
			ZeroFrac: a.Class.ZeroFrac,
		}
		if a.Seg != nil {
			rec.ShmBacking = a.Seg.Backing
			rec.Payload = append([]byte(nil), a.Seg.Payload...)
		} else {
			rec.Payload = append([]byte(nil), a.Payload...)
		}
		rec.ChunkVers = a.ChunkVersions()
		rec.PayloadBytes = int64(len(rec.Payload))
		img.Areas = append(img.Areas, rec)
	}
	for _, task := range p.UserTasks() {
		tr := ThreadRecord{Role: task.Role, ContFD: -1}
		if cont := task.SendContinuation(); cont != nil {
			tr.ContFD = int32(cont.FD)
			tr.ContData = cont.Remaining
		}
		img.Threads = append(img.Threads, tr)
	}
	return img
}

// LogicalBytes is the uncompressed memory footprint the image
// represents — what an uncompressed checkpoint file would occupy.
func (img *Image) LogicalBytes() int64 {
	var n int64 = 4096 // headers
	for _, a := range img.Areas {
		n += a.Bytes
	}
	for _, e := range img.Ext {
		n += int64(len(e))
	}
	return n
}

// CompressedBytes is the modeled gzip output size of the image.
func (img *Image) CompressedBytes(p *model.Params) int64 {
	var n int64 = 2048
	for _, a := range img.Areas {
		n += p.CompressedSize(a.Bytes, a.Class())
	}
	for _, e := range img.Ext {
		n += int64(len(e)) / 2
	}
	return n
}

// --- binary encoding -------------------------------------------------

type encoder struct{ b []byte }

func (e *encoder) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(mathFloat64bits(v)) }
func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *encoder) str(v string) { e.bytes([]byte(v)) }

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) need(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.err = ErrBadImage
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}
func (d *decoder) u32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
func (d *decoder) u64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return mathFloat64frombits(d.u64()) }
func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.b)) < n {
		d.err = ErrBadImage
		return nil
	}
	return append([]byte(nil), d.need(int(n))...)
}
func (d *decoder) str() string { return string(d.bytes()) }

// Encode serializes the image with a CRC32 trailer.
func (img *Image) Encode() []byte {
	var e encoder
	e.b = append(e.b, Magic...)
	e.u32(Version)
	e.str(img.Hostname)
	e.str(img.ProgName)
	e.u32(uint32(len(img.Args)))
	for _, a := range img.Args {
		e.str(a)
	}
	e.u32(uint32(len(img.Env)))
	for _, k := range sortedKeys(img.Env) {
		e.str(k)
		e.str(img.Env[k])
	}
	e.i64(img.RealPid)
	e.i64(img.VirtPid)
	e.u32(uint32(len(img.Areas)))
	for _, a := range img.Areas {
		e.str(a.Name)
		e.u32(uint32(a.Kind))
		e.i64(a.Bytes)
		e.f64(a.Entropy)
		e.f64(a.ZeroFrac)
		e.bytes(a.Payload)
		e.str(a.ShmBacking)
		e.i64(a.PayloadBytes)
		e.u32(uint32(len(a.ChunkVers)))
		for _, v := range a.ChunkVers {
			e.u64(v)
		}
	}
	e.u32(uint32(len(img.Threads)))
	for _, t := range img.Threads {
		e.str(t.Role)
		e.u32(uint32(t.ContFD))
		e.bytes(t.ContData)
	}
	e.u32(uint32(len(img.Ext)))
	for _, k := range sortedKeys(img.Ext) {
		e.str(k)
		e.bytes(img.Ext[k])
	}
	sum := crc32.ChecksumIEEE(e.b)
	e.u32(sum)
	return e.b
}

// Decode parses an encoded image, verifying magic, version and CRC.
func Decode(b []byte) (*Image, error) {
	if len(b) < len(Magic)+8 {
		return nil, ErrBadImage
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}
	d := &decoder{b: body}
	if string(d.need(len(Magic))) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	if v := d.u32(); v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrBadImage, v)
	}
	img := &Image{Env: map[string]string{}, Ext: map[string][]byte{}}
	img.Hostname = d.str()
	img.ProgName = d.str()
	for i, n := 0, int(d.u32()); i < n && d.err == nil; i++ {
		img.Args = append(img.Args, d.str())
	}
	for i, n := 0, int(d.u32()); i < n && d.err == nil; i++ {
		k := d.str()
		img.Env[k] = d.str()
	}
	img.RealPid = d.i64()
	img.VirtPid = d.i64()
	for i, n := 0, int(d.u32()); i < n && d.err == nil; i++ {
		var a AreaRecord
		a.Name = d.str()
		a.Kind = kernel.AreaKind(d.u32())
		a.Bytes = d.i64()
		a.Entropy = d.f64()
		a.ZeroFrac = d.f64()
		a.Payload = d.bytes()
		a.ShmBacking = d.str()
		a.PayloadBytes = d.i64()
		for j, k := 0, int(d.u32()); j < k && d.err == nil; j++ {
			a.ChunkVers = append(a.ChunkVers, d.u64())
		}
		img.Areas = append(img.Areas, a)
	}
	for i, n := 0, int(d.u32()); i < n && d.err == nil; i++ {
		var t ThreadRecord
		t.Role = d.str()
		t.ContFD = int32(d.u32())
		t.ContData = d.bytes()
		img.Threads = append(img.Threads, t)
	}
	for i, n := 0, int(d.u32()); i < n && d.err == nil; i++ {
		k := d.str()
		img.Ext[k] = d.bytes()
	}
	if d.err != nil {
		return nil, d.err
	}
	return img, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(u uint64) float64 { return math.Float64frombits(u) }
