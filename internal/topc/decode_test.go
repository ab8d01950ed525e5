package topc

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecGHugeCountFailsSmall hands the TOP-C state decoder three
// fields and an in-flight count of 1<<30: it must fail without
// allocating anywhere near what that many entries would take.
func TestDecGHugeCountFailsSmall(t *testing.T) {
	in := binary.BigEndian.AppendUint32(make([]byte, 3*8), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decG(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("huge in-flight count decoded without error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("huge in-flight count allocated %d bytes", n)
	}
}
