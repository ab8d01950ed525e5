package store_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mtcp"
	"repro/internal/store"
)

// referenceEncode is the manifest format written out field by field
// with a growing encoder: Encode must produce exactly these bytes.
func referenceEncode(m *store.Manifest) []byte {
	var e bin.Encoder
	e.B = append(e.B, store.ManifestMagic...)
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

// testManifests covers an empty manifest, an area without chunks,
// empty and full-length hashes, and a few hundred refs.
func testManifests() []*store.Manifest {
	big := &store.Manifest{Name: "ckpt_app_node01_4242", Generation: 12, Header: make([]byte, 700)}
	for a := 0; a < 4; a++ {
		ac := store.AreaChunks{Area: a * 3}
		for c := 0; c < 90; c++ {
			ac.Chunks = append(ac.Chunks, store.ChunkRef{
				Hash: fmt.Sprintf("%040x", a*1000+c), LogicalBytes: 1 << 20, StoredBytes: int64(4096 + c),
				Entropy: 0.25, ZeroFrac: math.Copysign(0, -1), Heat: int64(-c), Sum: fmt.Sprintf("%020x", c),
			})
		}
		big.Areas = append(big.Areas, ac)
	}
	return []*store.Manifest{
		{},
		{Name: "n", Generation: 1, Header: []byte("h"), Areas: []store.AreaChunks{{Area: 0}, {Area: 1, Chunks: []store.ChunkRef{{}}}}},
		big,
	}
}

// TestManifestEncodeExact checks that Encode writes the reference
// bytes into one buffer of exactly their length, in one allocation,
// that decoding them gives the manifest back, an area without chunks
// keeping a nil list, and that Refs lists them in one allocation.
func TestManifestEncodeExact(t *testing.T) {
	for i, m := range testManifests() {
		got, want := m.Encode(), referenceEncode(m)
		if string(got) != string(want) {
			t.Errorf("manifest %d: Encode differs from the reference encoding", i)
		}
		if cap(got) != len(got) {
			t.Errorf("manifest %d: Encode's buffer has capacity %d for %d bytes", i, cap(got), len(got))
		}
		if n := testing.AllocsPerRun(20, func() { m.Encode() }); n != 1 {
			t.Errorf("manifest %d: Encode allocated %.0f times, want 1", i, n)
		}
		back, err := store.DecodeManifest(got)
		if err != nil {
			t.Fatalf("manifest %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("manifest %d: round trip = %+v, want %+v", i, back, m)
		}
		if refs := back.Refs(); len(refs) != m.NumChunks() || (len(refs) == 0) != (refs == nil) {
			t.Errorf("manifest %d: Refs = %d refs (nil %v), want %d", i, len(refs), refs == nil, m.NumChunks())
		}
		if n := testing.AllocsPerRun(20, func() { back.Refs() }); n > 1 {
			t.Errorf("manifest %d: Refs allocated %.0f times, want at most 1", i, n)
		}
	}
}

// TestManifestDecodeHugeCountFailsSmall corrupts a manifest's area
// count and its chunk count to 1<<30: each must fail as ErrBadManifest
// without allocating anywhere near what that many entries would need.
func TestManifestDecodeHugeCountFailsSmall(t *testing.T) {
	m := &store.Manifest{Name: "n", Header: []byte("hdr"), Areas: []store.AreaChunks{{
		Area: 0, Chunks: []store.ChunkRef{{Hash: "h", Sum: "s"}},
	}}}
	enc := m.Encode()
	areas := len(store.ManifestMagic) + 4 + len(m.Name) + 8 + 4 + len(m.Header)
	for _, field := range []struct {
		name string
		off  int
	}{{"area count", areas}, {"chunk count", areas + 4 + 8}} {
		b := append([]byte(nil), enc...)
		binary.BigEndian.PutUint32(b[field.off:], 1<<30)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := store.DecodeManifest(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, store.ErrBadManifest) {
			t.Errorf("%s 1<<30: err = %v, want ErrBadManifest", field.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s 1<<30: decoding allocated %d bytes", field.name, n)
		}
	}
}

// TestChunkHashMatchesFormat pins ChunkHash to the fingerprint's
// defining formula, the fmt preimage, over edge values.
func TestChunkHashMatchesFormat(t *testing.T) {
	formula := func(scope string, index int, version uint64, span int64, class model.MemClass, data []byte) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00%d\x00%.4f\x00%.4f\x00", scope, index, version, span, class.Entropy, class.ZeroFrac)
		h.Write(data)
		return hex.EncodeToString(h.Sum(nil)[:20])
	}
	type args struct {
		scope   string
		index   int
		version uint64
		span    int64
		class   model.MemClass
		data    []byte
	}
	for _, a := range []args{
		{"[heap]", 0, 0, 1 << 20, model.MemClass{Entropy: 0.35, ZeroFrac: 0.1}, []byte("payload")},
		{"", -7, math.MaxUint64, -1, model.MemClass{Entropy: math.Inf(1), ZeroFrac: math.Inf(-1)}, nil},
		{"node01/prog[12]/[stack]", math.MaxInt64, 1, math.MinInt64, model.MemClass{Entropy: math.NaN(), ZeroFrac: math.Copysign(0, -1)}, nil},
		{strings.Repeat("long-scope/", 40), 3, 99, 4096, model.MemClass{Entropy: 0.00005, ZeroFrac: 0.99995}, []byte{0}},
		{"libc", 1, 2, 3, model.MemClass{Entropy: -0.00004, ZeroFrac: 1e300}, make([]byte, 5000)},
	} {
		got := store.ChunkHash(a.scope, a.index, a.version, a.span, a.class, a.data)
		if want := formula(a.scope, a.index, a.version, a.span, a.class, a.data); got != want {
			t.Errorf("ChunkHash(%.20q, %d, %d, %d, %+v) = %s, want %s", a.scope, a.index, a.version, a.span, a.class, got, want)
		}
	}
	class := model.MemClass{Entropy: 0.35, ZeroFrac: 0.1}
	if n := testing.AllocsPerRun(100, func() { store.ChunkHash("[heap]", 5, 9, 1<<20, class, nil) }); n != 1 {
		t.Errorf("ChunkHash allocated %.0f times, want 1 (the name)", n)
	}
}

// TestRepeatedManifestPushKeepsInode pushes one generation's manifest
// to a peer twice: the second push of the same bytes must leave the
// peer's file alone (same inode, decoded manifest still cached) and
// charge no second write, while a push of different bytes replaces it.
func TestRepeatedManifestPushKeepsInode(t *testing.T) {
	eng, c := testCluster(t)
	run(t, eng, c, func(task *kernel.Task) {
		src := openStore(task, false)
		res := mtcp.WriteImage(task, capture(task), mtcp.WriteOptions{Dir: "/ckpt", Store: src})
		ino, err := task.P.Node.FS.ReadFile(res.Path)
		if err != nil {
			t.Fatal(err)
		}
		peer := c.Node(1)
		dst := store.Open(peer, store.Config{Root: "/ckpt/store"})
		dst.PutRawManifest(task, res.Path, ino.Data)
		first, err := peer.FS.ReadFile(res.Path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.LoadManifest(res.Path); err != nil {
			t.Fatal(err)
		}
		written, now := peer.DiskW.TotalBytes(), task.Now()
		dst.PutRawManifest(task, res.Path, append([]byte(nil), ino.Data...))
		second, _ := peer.FS.ReadFile(res.Path)
		if second != first || second.Memo() == nil {
			t.Errorf("a second push of the same bytes replaced the inode (%p → %p) or dropped its memo", first, second)
		}
		if peer.DiskW.TotalBytes() != written || task.Now() != now {
			t.Errorf("a second push of the same bytes charged %d bytes and %v", peer.DiskW.TotalBytes()-written, task.Now().Sub(now))
		}
		changed := append([]byte(nil), ino.Data...)
		changed[len(changed)-1] ^= 1
		dst.PutRawManifest(task, res.Path, changed)
		if third, _ := peer.FS.ReadFile(res.Path); third == first || string(third.Data) != string(changed) {
			t.Error("a push of different bytes did not replace the manifest")
		}
		if peer.DiskW.TotalBytes() == written {
			t.Error("a push of different bytes charged no write")
		}
	})
}
