package kernel

import (
	"reflect"
	"runtime"
	"testing"
)

// Native fuzz targets for the frame decoders sshd runs on every remote
// launch, DecodeStrings (the argument list) and DecodeEnv.  The seed
// corpora under testdata/fuzz hold the argument list and environment
// of a checkpointed ppserver image and the 8-byte input whose count
// once asked DecodeStrings for 21 GB.  Each target checks three things:
// the decoder never panics; a value it decodes without error encodes
// back to bytes that decode to an equal value; and decoding allocates
// at most a constant times the input's length (plus 64 KiB of slack for
// what the fuzzing engine allocates meanwhile).

func FuzzDecodeStrings(f *testing.F) {
	fuzzFrame(f, DecodeStrings, EncodeStrings)
}

func FuzzDecodeEnv(f *testing.F) {
	fuzzFrame(f, DecodeEnv, EncodeEnv)
}

// fuzzFrame runs decode on every input under the three checks above.
func fuzzFrame[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte) {
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
			t.Fatalf("re-encoded value fails to decode: %v", err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("round trip changed the value:\n  %v\n  %v", v, again)
		}
	})
}
