package bin

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundtripAllTypes(t *testing.T) {
	var e Encoder
	e.U32(7)
	e.U64(1 << 40)
	e.I64(-12345)
	e.Int(42)
	e.F64(3.25)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{1, 2, 3})
	e.Str("hello")

	d := Decoder{B: e.B}
	if d.U32() != 7 || d.U64() != 1<<40 || d.I64() != -12345 || d.Int() != 42 {
		t.Fatal("integer roundtrip failed")
	}
	if d.F64() != 3.25 || !d.Bool() || d.Bool() {
		t.Fatal("f64/bool roundtrip failed")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) || d.Str() != "hello" {
		t.Fatal("bytes/str roundtrip failed")
	}
	if d.Err != nil {
		t.Fatalf("err = %v", d.Err)
	}
}

func TestTruncationSetsErr(t *testing.T) {
	for _, want := range []string{"", "some payload"} {
		var e Encoder
		e.Str(want)
		for cut := 0; cut <= len(e.B); cut++ {
			d := Decoder{B: e.B[:cut]}
			got := d.Str()
			if cut == len(e.B) {
				if got != want || d.Err != nil {
					t.Fatalf("Str roundtrip of %q = %q, err %v", want, got, d.Err)
				}
			} else if got != "" || d.Err != ErrTruncated {
				t.Fatalf("Str of %q cut at %d = %q, err %v; want \"\", ErrTruncated", want, cut, got, d.Err)
			}
		}
	}
}

func TestDecoderErrSticky(t *testing.T) {
	d := Decoder{B: nil}
	d.U64()
	if d.Err == nil {
		t.Fatal("no error on empty input")
	}
	// Subsequent reads must not panic and keep the error.
	d.Str()
	d.F64()
	if d.Err == nil {
		t.Fatal("error cleared")
	}
}

func TestPropertyRoundtrip(t *testing.T) {
	prop := func(a uint32, b uint64, c int64, f float64, s string, raw []byte, flag bool) bool {
		var e Encoder
		e.U32(a)
		e.U64(b)
		e.I64(c)
		e.F64(f)
		e.Str(s)
		e.Bytes(raw)
		e.Bool(flag)
		d := Decoder{B: e.B}
		ok := d.U32() == a && d.U64() == b && d.I64() == c
		df := d.F64()
		ok = ok && (df == f || (df != df && f != f)) // NaN-safe
		ok = ok && d.Str() == s && bytes.Equal(d.Bytes(), raw) && d.Bool() == flag
		return ok && d.Err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rec is a record with every kind of field a Coder codes.
type rec struct {
	u   uint32
	w   uint64
	i   int64
	n   int
	f   float64
	b   bool
	raw []byte
	s   string
	k   int32
	xs  []string
	m   map[string]int
	opt *rec
}

func (r *rec) code(c *Coder) {
	c.U32(&r.u)
	c.U64(&r.w)
	c.I64(&r.i)
	c.Int(&r.n)
	c.F64(&r.f)
	c.Bool(&r.b)
	c.Bytes(&r.raw)
	c.Str(&r.s)
	U32Of(c, &r.k)
	for i := range List(c, &r.xs, 4) {
		c.Str(&r.xs[i])
	}
	for _, k := range Map(c, &r.m, 12) {
		c.Str(&k)
		v := r.m[k]
		c.Int(&v)
		Put(c, r.m, k, v)
	}
	if o := Opt(c, &r.opt); o != nil {
		o.code(c)
	}
}

// TestCoderRoundTrip codes one record both ways through its one field
// list: encoding writes what the Encoder would, map keys in order, and
// decoding gives the record back, empty lists and maps left nil.
func TestCoderRoundTrip(t *testing.T) {
	in := &rec{u: 7, w: 1 << 40, i: -3, n: 42, f: 2.5, b: true, raw: []byte{1, 2}, s: "s", k: -1,
		xs: []string{"a", ""}, m: map[string]int{"z": 1, "a": 2}, opt: &rec{s: "inner"}}
	c := Encoding()
	in.code(&c)

	var e Encoder
	e.U32(7)
	e.U64(1 << 40)
	e.I64(-3)
	e.Int(42)
	e.F64(2.5)
	e.Bool(true)
	e.Bytes([]byte{1, 2})
	e.Str("s")
	e.U32(1<<32 - 1)
	e.U32(2)
	e.Str("a")
	e.Str("")
	e.U32(2)
	e.Str("a")
	e.Int(2)
	e.Str("z")
	e.Int(1)
	e.Bool(true)
	inner := Encoding()
	(&rec{s: "inner"}).code(&inner)
	want := append(e.B, inner.E.B...)
	if !bytes.Equal(c.E.B, want) {
		t.Fatalf("encoded %x\nwant    %x", c.E.B, want)
	}

	d := Decoding(c.E.B)
	var out rec
	out.code(&d)
	if d.D.Err != nil || len(d.D.B) != 0 || !reflect.DeepEqual(&out, in) {
		t.Fatalf("decoded %+v (err %v, %d bytes left), want %+v", out, d.D.Err, len(d.D.B), in)
	}
	if out.opt.xs != nil || out.opt.m != nil || out.opt.opt != nil {
		t.Errorf("empty inner lists decoded as %v %v %v, want nil", out.opt.xs, out.opt.m, out.opt.opt)
	}
}

// TestCountRejectsWhatTheBytesCannotHold: a count fails, before any
// allocation, unless the bytes after it could hold that many items.
func TestCountRejectsWhatTheBytesCannotHold(t *testing.T) {
	for _, c := range []struct {
		n, min, left int
		ok           bool
	}{{0, 4, 0, true}, {2, 4, 8, true}, {3, 4, 8, false}, {1 << 30, 1, 16, false}} {
		b := binary.BigEndian.AppendUint32(nil, uint32(c.n))
		d := Decoder{B: append(b, make([]byte, c.left)...)}
		got := d.Count(c.min)
		if ok := d.Err == nil; ok != c.ok || (ok && got != c.n) || (!ok && got != 0) {
			t.Errorf("count %d of %d-byte items over %d bytes = %d, err %v", c.n, c.min, c.left, got, d.Err)
		}
	}
	var xs []string
	c := Decoding(binary.BigEndian.AppendUint32(nil, 1<<30))
	if got := List(&c, &xs, 4); got != nil || xs != nil || c.D.Err != ErrTruncated {
		t.Errorf("List over a huge count = %v, %v, %v", got, xs, c.D.Err)
	}
}
