package kernel

import (
	"testing"

	"repro/internal/fuzzcheck"
)

// TestGoldenBytes pins the string-list and environment formats: every
// seed of FuzzDecodeStrings and FuzzDecodeEnv that decodes re-encodes
// to its own bytes.
func TestGoldenBytes(t *testing.T) {
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeStrings") {
		if ss, err := DecodeStrings(b); err == nil && string(EncodeStrings(ss)) != string(b) {
			t.Errorf("strings seed %s re-encodes to other bytes", name)
		}
	}
	for name, b := range fuzzcheck.Seeds(t, "testdata/fuzz/FuzzDecodeEnv") {
		if env, err := DecodeEnv(b); err == nil && string(EncodeEnv(env)) != string(b) {
			t.Errorf("env seed %s re-encodes to other bytes", name)
		}
	}
}
