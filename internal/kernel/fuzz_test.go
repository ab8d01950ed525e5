package kernel

import (
	"testing"

	"repro/internal/fuzzcheck"
)

// Native fuzz targets for the frame decoders sshd runs on every remote
// launch, DecodeStrings (the argument list) and DecodeEnv.  The seed
// corpora under testdata/fuzz hold the argument list and environment
// of a checkpointed ppserver image and the 8-byte input whose count
// once asked DecodeStrings for 21 GB.  Each target checks three things:
// the decoder never panics; a value it decodes without error encodes
// back to bytes that decode to an equal value; and decoding allocates
// at most a constant times the input's length (plus 64 KiB of slack for
// what the fuzzing engine allocates meanwhile); fuzzcheck.Decoder makes
// them.

func FuzzDecodeStrings(f *testing.F) {
	fuzzcheck.Decoder(f, DecodeStrings, EncodeStrings)
}

func FuzzDecodeEnv(f *testing.F) {
	fuzzcheck.Decoder(f, DecodeEnv, EncodeEnv)
}
