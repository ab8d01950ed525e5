package dmtcp

import (
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/kernel"
)

// Native fuzz targets for the table decoders loadImages runs on every
// image it restores.  The seed corpora under testdata/fuzz hold the
// sections of a checkpointed ppserver image and the 4-byte input whose
// count once asked the fd-table decoder for 159 GB.  Each target checks
// three things: the decoder never panics; a table it decodes without
// error encodes back to bytes that decode to an equal table; and
// decoding allocates at most a constant times the input's length (plus
// 64 KiB of slack for what the fuzzing engine allocates meanwhile);
// fuzzcheck.Decoder makes them.

func FuzzDecodeFDTable(f *testing.F) {
	fuzzcheck.Decoder(f, decodeFDTable, encodeFDTable)
}

func FuzzDecodeConns(f *testing.F) {
	fuzzcheck.Decoder(f, decodeConns, encodeConns)
}

// pidSection is decodePids' result as one value.
type pidSection struct {
	virt  kernel.Pid
	table map[kernel.Pid]kernel.Pid
}

func FuzzDecodePids(f *testing.F) {
	fuzzcheck.Decoder(f, func(b []byte) (pidSection, error) {
		virt, table, err := decodePids(b)
		return pidSection{virt, table}, err
	}, func(s pidSection) []byte { return encodePids(s.virt, s.table) })
}
