// Package fuzzcheck holds the checks every native fuzz target of a
// decoder makes, so each target is one call.
package fuzzcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Decoder fuzzes decode under three checks: it never panics; a value it
// decodes without error encodes back to bytes that decode to a deeply
// equal value; and decoding allocates at most 64 bytes per input byte
// plus 64 KiB of slack for what the fuzzing engine allocates meanwhile.
// A NaN never equals itself, so only a value that holds one may instead
// pass by encoding the same bytes twice.
func Decoder[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = decode(b)
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(b))+1<<16; n > budget {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(b), n, budget)
		}
		if err != nil {
			return
		}
		enc := encode(v)
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoded value fails to decode: %v", err)
		}
		if !reflect.DeepEqual(v, again) && !(hasNaN(reflect.ValueOf(v)) && bytes.Equal(enc, encode(again))) {
			t.Fatalf("round trip changed the value:\n  %+v\n  %+v", v, again)
		}
	})
}

// hasNaN reports whether v holds a NaN anywhere it can be reached.
func hasNaN(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return v.Float() != v.Float()
	case reflect.Pointer, reflect.Interface:
		return !v.IsNil() && hasNaN(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasNaN(v.Field(i)) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if hasNaN(v.Index(i)) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if hasNaN(it.Key()) || hasNaN(it.Value()) {
				return true
			}
		}
	}
	return false
}

// Seeds returns the []byte seeds of one fuzz target's corpus directory
// (testdata/fuzz/<target>), keyed by file name.
func Seeds(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s/%s: not a one-[]byte corpus file", dir, f.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s/%s: %v", dir, f.Name(), err)
		}
		out[f.Name()] = []byte(s)
	}
	return out
}
