package dmtcp

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
)

// TestTableCodecsRoundTrip pins the image-table codecs: tables decode
// to what was encoded, and an empty record encodes to exactly the
// minimum size the decoders cap their preallocation with.
func TestTableCodecsRoundTrip(t *testing.T) {
	fds := []FDRec{
		{FD: 0, Kind: FDConsole},
		{FD: 3, Kind: FDFile, OFID: 7, Owner: -1, Path: "/tmp/out", Offset: 4096},
		{FD: 5, Kind: FDConn, OFID: 9, GUID: "node01:12:3:1", Accept: true},
		{FD: 6, Kind: FDPtyMaster, OFID: 11, Pty: "/dev/pts/2",
			Modes: kernel.Termios{Echo: true, Canon: true, Rows: 24, Cols: 80}},
	}
	gotFDs, err := decodeFDTable(encodeFDTable(fds))
	if err != nil || !reflect.DeepEqual(gotFDs, fds) {
		t.Errorf("fd table round trip = %+v, %v; want %+v", gotFDs, err, fds)
	}
	conns := []ConnRec{{GUID: "a", Drained: []byte("buffered")}, {GUID: "b"}}
	gotConns, err := decodeConns(encodeConns(conns))
	if err != nil || !reflect.DeepEqual(gotConns, conns) {
		t.Errorf("conn table round trip = %+v, %v; want %+v", gotConns, err, conns)
	}
	table := map[kernel.Pid]kernel.Pid{40: 1040, 41: 1041}
	virt, gotTable, err := decodePids(encodePids(40, table))
	if err != nil || virt != 40 || !reflect.DeepEqual(gotTable, table) {
		t.Errorf("pid table round trip = %d %v, %v; want 40 %v", virt, gotTable, err, table)
	}

	for _, c := range []struct {
		name string
		enc  []byte
		want int
	}{
		{"fd record", encodeFDTable([]FDRec{{}}), 4 + fdRecBytes},
		{"conn record", encodeConns([]ConnRec{{}}), 4 + connRecBytes},
		{"pid entry", encodePids(0, map[kernel.Pid]kernel.Pid{0: 0}), 8 + 4 + pidRecBytes},
	} {
		if len(c.enc) != c.want {
			t.Errorf("an empty %s encodes to %d bytes, want %d", c.name, len(c.enc), c.want)
		}
	}
}

// TestTableDecodersHugeCountFailSmall hands each image-table decoder
// (loadImages runs all three on every image it restores) a count of
// 1<<20 over a few bytes: each must fail without allocating anywhere
// near what that many records would take.  A decoder that passes then
// gets the 4-byte input a fuzzer found, "A\xd4\xf77", whose count of
// 1.1 billion asked the uncapped fd-table decoder for 159 GB; one that
// fails never sees it.
func TestTableDecodersHugeCountFailSmall(t *testing.T) {
	huge := binary.BigEndian.AppendUint32(nil, 1<<20)
	huge = append(huge, 0, 0, 0, 0, 0, 9)
	fuzzed := []byte("A\xd4\xf77")
	for _, c := range []struct {
		name   string
		prefix []byte // fields before the count
		decode func([]byte) error
	}{
		{"fd table", nil, func(b []byte) error { _, err := decodeFDTable(b); return err }},
		{"conn table", nil, func(b []byte) error { _, err := decodeConns(b); return err }},
		{"pid table", make([]byte, 8), func(b []byte) error { _, _, err := decodePids(b); return err }},
	} {
		for i, in := range [][]byte{huge, fuzzed} {
			b := append(append([]byte(nil), c.prefix...), in...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(b)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: input %q decoded without error", c.name, in)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("%s: input %q allocated %d bytes", c.name, in, n)
				if i == 0 {
					break // uncapped: the fuzzed count would ask for gigabytes
				}
			}
		}
	}
}
