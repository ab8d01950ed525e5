package mtcp

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/kernel"
)

// TestGoldenBytes pins the image format byte for byte: an image with
// arguments, environment, extension sections, a thread with a send
// continuation and chunk versions encodes to the bytes whose digest is
// below, and decodes back to itself; every seed of FuzzDecode that
// decodes re-encodes to its own bytes.
func TestGoldenBytes(t *testing.T) {
	img := &Image{
		Hostname: "node03",
		ProgName: "ppserver",
		Args:     []string{"9100", "", "/out/pp"},
		Env:      map[string]string{"HOME": "/home/u", "DMTCP_PORT": "7779", "EMPTY": ""},
		RealPid:  4711,
		VirtPid:  40001,
		Areas: []AreaRecord{
			{Name: "[heap]", Kind: kernel.AreaHeap, Bytes: 3 << 20, Entropy: 0.4, ZeroFrac: 0.25,
				Payload: []byte("heap-state"), PayloadBytes: 10, ChunkVers: []uint64{3, 0, 1 << 40}},
			{Name: "/dev/shm/seg", Kind: kernel.AreaShm, Bytes: 4096, ShmBacking: "/dev/shm/seg", PayloadBytes: 99},
		},
		Threads: []ThreadRecord{{Role: "main", ContFD: -1}, {Role: "worker", ContFD: 5, ContData: []byte("unsent")}},
		Ext:     map[string][]byte{"dmtcp.fdtable": []byte("fds"), "dmtcp.conns": []byte("conns"), "empty": nil},
	}
	enc := img.Encode()
	sum := sha256.Sum256(enc)
	if got, want := hex.EncodeToString(sum[:]), "2ff2d549bda25116ea6acef27ee8da8f9a318b9df51a97b2f07175978e1e6254"; got != want {
		t.Errorf("image digest = %s, want %s", got, want)
	}
	back, err := Decode(enc)
	if err != nil || !reflect.DeepEqual(back, img) {
		t.Errorf("decode = %+v, %v; want %+v", back, err, img)
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecode") {
		if img, err := Decode(b); err == nil && string(img.Encode()) != string(b) {
			t.Errorf("seed %s re-encodes to other bytes", name)
		}
	}
}
