package store_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/store"
)

// TestGoldenBytes pins the manifest format byte for byte: a manifest
// with two areas encodes to the bytes whose digest is below and
// decodes back to itself; every seed of FuzzDecodeManifest that
// decodes re-encodes to its own bytes.
func TestGoldenBytes(t *testing.T) {
	m := &store.Manifest{Name: "ckpt_ppserver_node01_3", Generation: 7, Header: []byte("image header"),
		Areas: []store.AreaChunks{
			{Area: 2, Chunks: []store.ChunkRef{
				{Hash: "9f2c", LogicalBytes: 1 << 20, StoredBytes: 4096, Entropy: 0.5, ZeroFrac: 0.125, Heat: 3, Sum: "ab01"},
				{Hash: "77e0", LogicalBytes: 512, StoredBytes: 300, Heat: -1},
			}},
			{Area: 5, Chunks: []store.ChunkRef{{Hash: "0001", LogicalBytes: 1, StoredBytes: 1, Entropy: 1, Sum: "ff"}}},
		}}
	enc := m.Encode()
	sum := sha256.Sum256(enc)
	if got, want := hex.EncodeToString(sum[:]), "55129ec1e178108e21df4142ee65ead844396b1389918b12a986e38406747c3b"; got != want {
		t.Errorf("manifest digest = %s, want %s", got, want)
	}
	back, err := store.DecodeManifest(enc)
	if err != nil || !reflect.DeepEqual(back, m) {
		t.Errorf("decode = %+v, %v; want %+v", back, err, m)
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeManifest") {
		if m, err := store.DecodeManifest(b); err == nil && string(m.Encode()) != string(b) {
			t.Errorf("seed %s re-encodes to other bytes", name)
		}
	}
}
