package mtcp

import (
	"testing"

	"repro/internal/fuzzcheck"
)

// FuzzDecode fuzzes the image decoder every monolithic restart runs,
// from the seed corpus under testdata/fuzz: a checkpointed ppserver
// image.  See fuzzcheck.Decoder for the three checks.
func FuzzDecode(f *testing.F) {
	fuzzcheck.Decoder(f, Decode, (*Image).Encode)
}
