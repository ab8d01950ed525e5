package ipython

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecCtlHugeCountFailsSmall hands the controller's state decoder
// seven fields and an engine count of 1<<30: it must fail without
// allocating anywhere near what that many engines would take.
func TestDecCtlHugeCountFailsSmall(t *testing.T) {
	in := binary.BigEndian.AppendUint32(make([]byte, 7*8), 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decCtl(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("huge engine count decoded without error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("huge engine count allocated %d bytes", n)
	}
}
