package coordstate

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fuzzcheck"
)

// TestGoldenBytes pins the journal, snapshot and event formats byte for
// byte: richMachine's journal and snapshot, and the two event kinds it
// does not journal, encode to the bytes whose digests are below; every
// seed of the native fuzz targets that decodes re-encodes to its own
// bytes.
func TestGoldenBytes(t *testing.T) {
	m := richMachine(t)
	snap, err := EncodeState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"journal", m.JournalBytes(), "3269112077e3b44771f455f0ea98ce7c07c6b4de2c72d42f6a2f837e15a0aea7"},
		{"snapshot", snap, "73c397b66740639f1253f696e6f2a5790eb694cbafde5844b4e54646585d338c"},
		{"disconnect", Event{Kind: EvDisconnect, Now: 12345, CID: 3}.Encode(), "d5437ec0a0f5c78ad08a52b384d825d8e24053379b042bae66a000eed35bab9c"},
		{"resync", Event{Kind: EvResync, Now: 99, CID: 2, RoundTag: 1<<32 | 4, Expect: 3}.Encode(), "694232032061f6dc5ccd33abcea0891dbb0f2d7408d54fdf99140b153fb2e057"},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeEvent") {
		if ev, err := DecodeEvent(b); err == nil && string(ev.Encode()) != string(b) {
			t.Errorf("event seed %s re-encodes to other bytes", name)
		}
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeState") {
		if st, err := DecodeState(b); err == nil {
			if again, _ := EncodeState(st); string(again) != string(b) {
				t.Errorf("state seed %s re-encodes to other bytes", name)
			}
		}
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeJournal") {
		if entries, err := DecodeJournal(b); err == nil && string(EncodeEntries(entries)) != string(b) {
			t.Errorf("journal seed %s re-encodes to other bytes", name)
		}
	}
}
