package kernel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bin"
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
	c := bin.Encoding()
	codeStrings(&c, &ss)
	return c.E.B
}

// DecodeStrings reverses EncodeStrings.  Each entry takes at least its
// 4-byte length, so a count the bytes left cannot hold fails before
// anything is allocated for it.
func DecodeStrings(b []byte) ([]string, error) {
	c := bin.Decoding(b)
	ss := []string{}
	codeStrings(&c, &ss)
	if c.D.Err != nil {
		return nil, fmt.Errorf("kernel: bad string list: %w", c.D.Err)
	}
	return ss, nil
}

func codeStrings(c *bin.Coder, ss *[]string) {
	for i := range bin.List(c, ss, 4) {
		c.Str(&(*ss)[i])
	}
}

// EncodeEnv flattens an environment map deterministically: its keys
// and values as one string list, in key order.
func EncodeEnv(env map[string]string) []byte {
	flat := make([]string, 0, 2*len(env))
	for _, k := range bin.SortedKeys(env) {
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
