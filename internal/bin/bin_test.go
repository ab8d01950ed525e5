package bin

import (
	"bytes"
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
