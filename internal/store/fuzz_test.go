package store_test

import (
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/store"
)

// FuzzDecodeManifest fuzzes the manifest decoder every store restore
// runs, from the seed corpus under testdata/fuzz: the manifest of a
// checkpointed ppserver and one whose area count claims 1<<30 areas.
// See fuzzcheck.Decoder for the three checks.
func FuzzDecodeManifest(f *testing.F) {
	fuzzcheck.Decoder(f, store.DecodeManifest, (*store.Manifest).Encode)
}
