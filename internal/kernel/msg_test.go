package kernel

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// TestStringsAndEnvRoundTrip pins the frame codecs sshd decodes off a
// socket: lists and environments decode to what was encoded.
func TestStringsAndEnvRoundTrip(t *testing.T) {
	for _, ss := range [][]string{{}, {""}, {"dmtcp_restart", "2", "gen", "/ckpt/a.dmtcp"}} {
		got, err := DecodeStrings(EncodeStrings(ss))
		if err != nil || !reflect.DeepEqual(got, ss) {
			t.Errorf("strings round trip of %q = %q, %v", ss, got, err)
		}
	}
	env := map[string]string{"DMTCP_HOST": "node00", "DMTCP_PORT": "7779", "EMPTY": ""}
	got, err := DecodeEnv(EncodeEnv(env))
	if err != nil || !reflect.DeepEqual(got, env) {
		t.Errorf("env round trip = %v, %v; want %v", got, err, env)
	}
}

// TestDecodeStringsHugeCountFailsSmall hands DecodeStrings and
// DecodeEnv a count of 1<<20 over a few bytes: each must fail without
// allocating anywhere near what that many entries would take.  If they
// pass, they then get the 8-byte input a fuzzer found, whose count of
// 1.33 billion asked the uncapped decoder for 21 GB.
func TestDecodeStringsHugeCountFailsSmall(t *testing.T) {
	huge := binary.BigEndian.AppendUint32(nil, 1<<20)
	huge = append(huge, 0, 0, 0, 9, 'x')
	fuzzed := []byte("Oq\x8f\xbe\x16\xf2\x1d\x8f")
	for _, c := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"DecodeStrings", func(b []byte) error { _, err := DecodeStrings(b); return err }},
		{"DecodeEnv", func(b []byte) error { _, err := DecodeEnv(b); return err }},
	} {
		for i, in := range [][]byte{huge, fuzzed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(in)
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
