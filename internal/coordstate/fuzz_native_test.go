package coordstate

import (
	"testing"

	"repro/internal/fuzzcheck"
)

// Native fuzz targets for the journal, event and snapshot decoders a
// standby runs on what its leader ships.  The seed corpora under
// testdata/fuzz are richMachine's events (one per kind it journals),
// its snapshot and its journal.  See fuzzcheck.Decoder for the three
// checks.

func FuzzDecodeEvent(f *testing.F) {
	fuzzcheck.Decoder(f, DecodeEvent, Event.Encode)
}

func FuzzDecodeState(f *testing.F) {
	fuzzcheck.Decoder(f, DecodeState, func(st *State) []byte {
		b, _ := EncodeState(st)
		return b
	})
}

func FuzzDecodeJournal(f *testing.F) {
	fuzzcheck.Decoder(f, DecodeJournal, EncodeEntries)
}
