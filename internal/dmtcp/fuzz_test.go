package dmtcp

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
)

// Native fuzz targets for the table decoders loadImages runs on every
// image it restores.  The seed corpora under testdata/fuzz hold the
// sections of a checkpointed ppserver image and the 4-byte input whose
// count once asked the fd-table decoder for 159 GB.  Each target checks
// three things: the decoder never panics; a table it decodes without
// error encodes back to bytes that decode to an equal table; and
// decoding allocates at most a constant times the input's length (plus
// 64 KiB of slack for what the fuzzing engine allocates meanwhile).

func FuzzDecodeFDTable(f *testing.F) {
	fuzzTable(f, decodeFDTable, encodeFDTable)
}

func FuzzDecodeConns(f *testing.F) {
	fuzzTable(f, decodeConns, encodeConns)
}

// pidSection is decodePids' result as one value.
type pidSection struct {
	virt  kernel.Pid
	table map[kernel.Pid]kernel.Pid
}

func FuzzDecodePids(f *testing.F) {
	fuzzTable(f, func(b []byte) (pidSection, error) {
		virt, table, err := decodePids(b)
		return pidSection{virt, table}, err
	}, func(s pidSection) []byte { return encodePids(s.virt, s.table) })
}

// fuzzTable runs decode on every input under the three checks above.
func fuzzTable[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = decode(b)
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(b))+1<<16; n > budget {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(b), n, budget)
		}
		if err != nil {
			return
		}
		again, err := decode(encode(v))
		if err != nil {
			t.Fatalf("re-encoded table fails to decode: %v", err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("round trip changed the table:\n  %+v\n  %+v", v, again)
		}
	})
}
