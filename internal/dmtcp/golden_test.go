package dmtcp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fuzzcheck"
)

// TestGoldenBytes pins the checkpoint-request frame byte for byte and
// the three image sections through their seeds: every seed of
// FuzzDecodeFDTable, FuzzDecodeConns and FuzzDecodePids that decodes
// re-encodes to its own bytes.
func TestGoldenBytes(t *testing.T) {
	co := &Coordinator{Sys: &System{Cfg: Config{CkptDir: "/ckpt", Compress: true, Forked: true, Store: true, CkptWorkers: 3}}}
	sum := sha256.Sum256(co.doCkptFrame(5<<32|2, 4))
	if got, want := hex.EncodeToString(sum[:]), "77ddd40898b8d9efd11f76cc684ef1e4a42d392443731f93ef67deb2f3ec73ad"; got != want {
		t.Errorf("checkpoint-request frame digest = %s, want %s", got, want)
	}
	if got := decodeCkptConfig(co.doCkptFrame(5<<32|2, 4)); got != (ckptConfig{Dir: "/ckpt", Compress: true,
		Forked: true, Store: true, Tag: 5<<32 | 2, Workers: 3, Hint: 4}) {
		t.Errorf("checkpoint-request frame decodes to %+v", got)
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeFDTable") {
		if recs, err := decodeFDTable(b); err == nil && string(encodeFDTable(recs)) != string(b) {
			t.Errorf("fd-table seed %s re-encodes to other bytes", name)
		}
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeConns") {
		if recs, err := decodeConns(b); err == nil && string(encodeConns(recs)) != string(b) {
			t.Errorf("conns seed %s re-encodes to other bytes", name)
		}
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodePids") {
		if virt, table, err := decodePids(b); err == nil && string(encodePids(virt, table)) != string(b) {
			t.Errorf("pid seed %s re-encodes to other bytes", name)
		}
	}
}
