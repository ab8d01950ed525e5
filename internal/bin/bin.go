// Package bin provides a tiny deterministic binary encoder/decoder
// used by the simulated wire protocols and checkpoint metadata tables
// (big-endian, length-prefixed, no reflection).
package bin

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated reports malformed input.
var ErrTruncated = errors.New("bin: truncated input")

// Encoder accumulates a byte stream.
type Encoder struct{ B []byte }

// U32 appends an unsigned 32-bit value.
func (e *Encoder) U32(v uint32) { e.B = binary.BigEndian.AppendUint32(e.B, v) }

// U64 appends an unsigned 64-bit value.
func (e *Encoder) U64(v uint64) { e.B = binary.BigEndian.AppendUint64(e.B, v) }

// I64 appends a signed 64-bit value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as 64 bits.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(v []byte) {
	e.U32(uint32(len(v)))
	e.B = append(e.B, v...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(v string) { e.Bytes([]byte(v)) }

// Decoder consumes a byte stream produced by Encoder.
type Decoder struct {
	B   []byte
	Err error
}

func (d *Decoder) need(n int) []byte {
	if d.Err != nil || len(d.B) < n {
		d.Err = ErrTruncated
		return nil
	}
	out := d.B[:n]
	d.B = d.B[n:]
	return out
}

// U32 reads an unsigned 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads an unsigned 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int stored as 64 bits.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool {
	b := d.need(1)
	return b != nil && b[0] != 0
}

// field reads a length-prefixed field without copying it.
func (d *Decoder) field() []byte {
	n := d.U32()
	if d.Err != nil || uint32(len(d.B)) < n {
		d.Err = ErrTruncated
		return nil
	}
	return d.need(int(n))
}

// Bytes reads a length-prefixed byte slice (copied).
func (d *Decoder) Bytes() []byte { return append([]byte(nil), d.field()...) }

// Str reads a length-prefixed string, copying its bytes once.
func (d *Decoder) Str() string { return string(d.field()) }
