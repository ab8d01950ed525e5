package kernel

import (
	"encoding/binary"
	"fmt"
)

// Framed-message helpers shared by the simulated wire protocols (ssh,
// MPD, coordinator, MPI): 4-byte big-endian length followed by the
// payload.

// MaxFrame bounds a single frame to keep buggy peers from wedging a
// reader.
const MaxFrame = 64 << 20

// SendFrame writes one length-prefixed frame: the header and the
// payload go out as one gather send, so the payload is not copied into
// a joined frame first.
func (t *Task) SendFrame(fd int, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("kernel: frame too large (%d bytes)", len(payload))
	}
	binary.BigEndian.PutUint32(t.frameHdr[:], uint32(len(payload)))
	_, err := t.send(fd, gather{t.frameHdr[:], payload})
	return err
}

// RecvFrame reads one length-prefixed frame.
func (t *Task) RecvFrame(fd int) ([]byte, error) {
	hdr, err := t.RecvN(fd, 4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("kernel: oversized frame (%d bytes)", n)
	}
	if n == 0 {
		return nil, nil
	}
	return t.RecvN(fd, int(n))
}

// EncodeStrings flattens a string list into a frame payload.
func EncodeStrings(ss []string) []byte {
	var out []byte
	out = binary.BigEndian.AppendUint32(out, uint32(len(ss)))
	for _, s := range ss {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out
}

// DecodeStrings reverses EncodeStrings.  Each entry takes at least its
// 4-byte length, so the list is preallocated for no more entries than
// the bytes left can hold, whatever count the input claims.
func DecodeStrings(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("kernel: truncated string list")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	out := make([]string, 0, min(n, uint32(len(b)/4)))
	for i := uint32(0); i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("kernel: truncated string list")
		}
		l := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < l {
			return nil, fmt.Errorf("kernel: truncated string entry")
		}
		out = append(out, string(b[:l]))
		b = b[l:]
	}
	return out, nil
}

// EncodeEnv flattens an environment map deterministically.
func EncodeEnv(env map[string]string) []byte {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	// Insertion sort keeps this dependency-free and deterministic.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	flat := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		flat = append(flat, k, env[k])
	}
	return EncodeStrings(flat)
}

// DecodeEnv reverses EncodeEnv.
func DecodeEnv(b []byte) (map[string]string, error) {
	flat, err := DecodeStrings(b)
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("kernel: odd env list")
	}
	env := make(map[string]string, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		env[flat[i]] = flat[i+1]
	}
	return env, nil
}
