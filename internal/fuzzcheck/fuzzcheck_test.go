package fuzzcheck

import (
	"math"
	"reflect"
	"testing"
)

func TestHasNaN(t *testing.T) {
	type inner struct{ score float64 } // unexported: the walk reads it without Interface
	type outer struct {
		Name  string
		Byx   map[string]*inner
		Vec   []float32
		Boxed any
	}
	nan := math.NaN()
	for _, c := range []struct {
		name string
		v    any
		want bool
	}{
		{"no floats", struct{ A []string }{[]string{"x"}}, false},
		{"plain floats", outer{Byx: map[string]*inner{"a": {1}}, Vec: []float32{2}}, false},
		{"nil pointer", outer{Byx: map[string]*inner{"a": nil}}, false},
		{"top level", nan, true},
		{"map value behind a pointer", outer{Byx: map[string]*inner{"a": {nan}}}, true},
		{"slice element", outer{Vec: []float32{1, float32(nan)}}, true},
		{"interface", outer{Boxed: &inner{nan}}, true},
		{"map key", map[float64]int{nan: 1}, true},
	} {
		if got := hasNaN(reflect.ValueOf(c.v)); got != c.want {
			t.Errorf("%s: hasNaN = %v, want %v", c.name, got, c.want)
		}
	}
}
