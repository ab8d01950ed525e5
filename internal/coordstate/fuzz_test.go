package coordstate

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bin"
)

// The fuzz targets reuse richMachine (snapshot_test.go), whose journal
// exercises every codec branch: registrations, a full round with image
// placements, replication, advertisement, restart bookkeeping, a
// takeover, and health summaries.

// mangle returns a copy of b with a seeded truncation and/or bit flip.
func mangle(rng *rand.Rand, b []byte) []byte {
	out := append([]byte(nil), b...)
	switch rng.Intn(3) {
	case 0:
		out = out[:rng.Intn(len(out)+1)]
	case 1:
		j := rng.Intn(len(out))
		out[j] ^= 1 << uint(rng.Intn(8))
	default:
		out = out[:rng.Intn(len(out)+1)]
		if len(out) > 0 {
			j := rng.Intn(len(out))
			out[j] ^= 1 << uint(rng.Intn(8))
		}
	}
	return out
}

// TestJournalDecodeCorruptTruncateNeverPanics fuzzes the journal
// codec stack — DecodeJournal, RestoreJournal and per-entry
// DecodeEvent — with seeded truncations and bit flips of a real
// journal.  A coordinator restarting from a torn or bit-rotted
// journal file must get a typed error (or a clean shorter prefix),
// never a panic.
func TestJournalDecodeCorruptTruncateNeverPanics(t *testing.T) {
	m := richMachine(t)
	enc := m.JournalBytes()
	if _, err := RestoreJournal(enc); err != nil {
		t.Fatalf("clean restore: %v", err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 1000; i++ {
		b := mangle(rng, enc)
		entries, err := DecodeJournal(b)
		if err != nil {
			if !errors.Is(err, bin.ErrTruncated) {
				t.Fatalf("iter %d: DecodeJournal error not typed: %v", i, err)
			}
			continue
		}
		// Structurally valid journal: every surviving entry must
		// decode to an event or fail with a typed error, and a full
		// restore must never panic.  (A truncation at an entry
		// boundary legitimately yields a shorter valid journal; a
		// flipped payload byte may yield an apply-time error.)
		for _, e := range entries {
			if _, derr := DecodeEvent(e.Data); derr != nil &&
				!errors.Is(derr, bin.ErrTruncated) &&
				!errors.Is(derr, ErrUnknownEvent) {
				t.Fatalf("iter %d: DecodeEvent error not typed: %v", i, derr)
			}
		}
		if _, rerr := RestoreJournal(b); rerr != nil &&
			!errors.Is(rerr, bin.ErrTruncated) &&
			!errors.Is(rerr, ErrUnknownEvent) &&
			!errors.Is(rerr, ErrBadSeq) {
			t.Fatalf("iter %d: RestoreJournal error not typed: %v", i, rerr)
		}
	}
}

// TestStateDecodeCorruptTruncateNeverPanics fuzzes the snapshot codec
// the same way: a mangled standby snapshot must produce a typed error
// or decode cleanly — never panic, never allocate unboundedly from a
// flipped length field.
func TestStateDecodeCorruptTruncateNeverPanics(t *testing.T) {
	m := richMachine(t)
	enc, err := EncodeState(m.State())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := DecodeState(enc); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1000; i++ {
		st, derr := DecodeState(mangle(rng, enc))
		if derr != nil {
			if !errors.Is(derr, ErrBadSnapshot) {
				t.Fatalf("iter %d: DecodeState error not typed: %v", i, derr)
			}
			continue
		}
		if st == nil {
			t.Fatalf("iter %d: nil state with nil error", i)
		}
	}
}
