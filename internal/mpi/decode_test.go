package mpi

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/fuzzcheck"
)

// FuzzResume fuzzes the rank-state decoder every restored MPI rank
// runs, from the seed corpus under testdata/fuzz: a two-rank job's
// rank 0 after a commit with a message in its log, and the 52-byte
// state that claims a million channels.  See fuzzcheck.Decoder for the
// three checks.
func FuzzResume(f *testing.F) {
	fuzzcheck.Decoder(f, decodeWorld, func(w *World) []byte { return w.AppendState(nil) })
}

// TestStateDecodersHugeCountFailSmall hands each program-state decoder
// a short input whose count claims far more entries than it holds:
// each must fail without allocating anywhere near what they would
// take.  A rank state claiming 1,000,000 channels once allocated
// 121.7 MB before it failed, and 4 bytes claiming 2^28 floats 2 GiB.
func TestStateDecodersHugeCountFailSmall(t *testing.T) {
	count := func(prefix int, n uint32) []byte {
		return binary.BigEndian.AppendUint32(make([]byte, prefix), n)
	}
	for _, c := range []struct {
		name   string
		in     []byte
		decode func([]byte) error
	}{
		{"world", count(6*8, 1_000_000), func(b []byte) error { _, err := decodeWorld(b); return err }},
		{"floats", count(0, 1<<28), func(b []byte) error { _, err := decodeF64s(b); return err }},
		{"mpd", count(5*8, 1<<30), func(b []byte) error { _, err := decMPD(b); return err }},
		{"orted", count(0, 1<<30), func(b []byte) error { _, err := decORTED(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte input decoded without error", c.name, len(c.in))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: %d-byte input allocated %d bytes", c.name, len(c.in), n)
		}
	}
}

// TestDecodeGatherRejectsBadInput: the root's gather decoder fails,
// without allocating for it or indexing out of range, on a huge count
// and on a rank outside the communicator.
func TestDecodeGatherRejectsBadInput(t *testing.T) {
	outside := binary.BigEndian.AppendUint32(nil, 1)
	outside = binary.BigEndian.AppendUint64(outside, 9)
	outside = binary.BigEndian.AppendUint32(outside, 0)
	for name, in := range map[string][]byte{
		"huge count":   binary.BigEndian.AppendUint32(nil, 1<<30),
		"rank outside": outside,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeGather(in, 4)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, n)
		}
	}
}
