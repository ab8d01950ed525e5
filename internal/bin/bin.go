// Package bin provides a tiny deterministic binary encoder/decoder
// used by the simulated wire protocols and checkpoint metadata tables
// (big-endian, length-prefixed, no reflection).  A record's layout is
// one function over a Coder, which encodes and decodes it alike.
package bin

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"
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

// Count reads a 32-bit count of items that each take at least min
// bytes (min >= 1), failing with ErrTruncated, and returning 0, when
// the bytes left cannot hold that many.
func (d *Decoder) Count(min int) int {
	n := d.U32()
	if uint64(n)*uint64(min) > uint64(len(d.B)) {
		d.Err = ErrTruncated
		return 0
	}
	return int(n)
}

// field reads a length-prefixed field without copying it.
func (d *Decoder) field() []byte { return d.need(d.Count(1)) }

// Bytes reads a length-prefixed byte slice (copied).
func (d *Decoder) Bytes() []byte { return append([]byte(nil), d.field()...) }

// Str reads a length-prefixed string, copying its bytes once.
func (d *Decoder) Str() string { return string(d.field()) }

// Coder codes one record in either direction through one list of its
// fields.  Each field method takes a pointer: an encoding Coder appends
// the field to E; a decoding one fills it from D, which keeps the first
// error (later fields read as zero).  The zero Coder encodes.
type Coder struct {
	E   Encoder
	D   Decoder
	dec bool
}

// Encoding returns a Coder that appends to a new buffer starting with
// prefix (a frame's opcode, a format's magic).
func Encoding(prefix ...byte) Coder { return Coder{E: Encoder{B: append([]byte(nil), prefix...)}} }

// Decoding returns a Coder that reads b.
func Decoding(b []byte) Coder { return Coder{D: Decoder{B: b}, dec: true} }

// U32 codes an unsigned 32-bit value.
func (c *Coder) U32(v *uint32) {
	if c.dec {
		*v = c.D.U32()
	} else {
		c.E.U32(*v)
	}
}

// U64 codes an unsigned 64-bit value.
func (c *Coder) U64(v *uint64) {
	if c.dec {
		*v = c.D.U64()
	} else {
		c.E.U64(*v)
	}
}

// I64 codes a signed 64-bit value.
func (c *Coder) I64(v *int64) {
	if c.dec {
		*v = c.D.I64()
	} else {
		c.E.I64(*v)
	}
}

// Int codes an int as 64 bits.
func (c *Coder) Int(v *int) {
	if c.dec {
		*v = c.D.Int()
	} else {
		c.E.Int(*v)
	}
}

// F64 codes a float64.
func (c *Coder) F64(v *float64) {
	if c.dec {
		*v = c.D.F64()
	} else {
		c.E.F64(*v)
	}
}

// Bool codes a boolean byte.
func (c *Coder) Bool(v *bool) {
	if c.dec {
		*v = c.D.Bool()
	} else {
		c.E.Bool(*v)
	}
}

// Bytes codes a length-prefixed byte slice (decoded as a copy, nil
// when empty).
func (c *Coder) Bytes(v *[]byte) {
	if c.dec {
		*v = c.D.Bytes()
	} else {
		c.E.Bytes(*v)
	}
}

// Str codes a length-prefixed string.
func (c *Coder) Str(v *string) {
	if c.dec {
		*v = c.D.Str()
	} else {
		c.E.Str(*v)
	}
}

// U32Of codes an integer of a named kind (a descriptor number, an
// enum) as its low 32 bits.
func U32Of[T ~int | ~int32](c *Coder, v *T) {
	if c.dec {
		*v = T(c.D.U32())
	} else {
		c.E.U32(uint32(*v))
	}
}

// List codes the length of *s and returns the elements to code in
// place: *s when encoding; when decoding, a new slice of the decoded
// length, stored in *s (a length of 0 leaves *s as it is).  Each
// element takes at least min bytes, so a decoded length the bytes left
// cannot hold fails at once, before anything is allocated.
func List[T any](c *Coder, s *[]T, min int) []T {
	if !c.dec {
		c.E.U32(uint32(len(*s)))
		return *s
	}
	n := c.D.Count(min)
	if n == 0 {
		return nil
	}
	*s = make([]T, n)
	return *s
}

// Opt codes whether *p is set, as a boolean byte, and returns the value
// to code in place, nil when there is none; decoding makes it.
func Opt[T any](c *Coder, p **T) *T {
	set := *p != nil
	c.Bool(&set)
	if set && *p == nil {
		*p = new(T)
	}
	return *p
}

// Map codes the length of *m and returns its keys to code in place,
// each followed by its value and a Put: m's keys in order when
// encoding; when decoding, a slice of the decoded length to fill, with
// *m made if it is nil (a length of 0 leaves *m as it is).  Each entry
// takes at least min bytes, as in List.
func Map[K cmp.Ordered, V any](c *Coder, m *map[K]V, min int) []K {
	if !c.dec {
		c.E.U32(uint32(len(*m)))
		return SortedKeys(*m)
	}
	n := c.D.Count(min)
	if n == 0 {
		return nil
	}
	if *m == nil {
		*m = make(map[K]V, n)
	}
	return make([]K, n)
}

// Put stores a decoded entry in m; encoding leaves m alone.
func Put[K comparable, V any](c *Coder, m map[K]V, k K, v V) {
	if c.dec {
		m[k] = v
	}
}

// SortedKeys returns m's keys in increasing order.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
