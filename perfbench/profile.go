package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// modules are the layers a CPU sample is attributed to: the module of
// the innermost repro/internal/<module> frame on its stack.  "runtime"
// takes samples with no program frame at all (garbage collection,
// scheduling); "other" takes the rest, this benchmark's own code and
// the workload programs included.
var modules = []string{
	"sim", "kernel", "mpi", "npb", "dmtcp", "mtcp", "store", "replica",
	"coordstate", "obs", "flow", "model", "bin", "retry", "runtime", "other",
}

var errProfile = errors.New("malformed CPU profile")

// moduleShares reads a gzipped pprof CPU profile and returns each
// module's share of the sampled CPU time.
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64 // leaf first
		value uint64   // CPU nanoseconds
	}
	var (
		samples []sample
		strs    []string
		names   = map[uint64]uint64{}   // function id → string index of its name
		frames  = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	top := pb{b: raw}
	for top.more() {
		field, _, data := top.next()
		msg := pb{b: data}
		switch field {
		case 2: // Sample
			var s sample
			for msg.more() {
				f, v, d := msg.next()
				switch f {
				case 1:
					s.locs = append(s.locs, uints(v, d)...)
				case 2:
					if vals := uints(v, d); len(vals) > 0 {
						s.value = vals[len(vals)-1]
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for msg.more() {
				f, v, d := msg.next()
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pb{b: d}
					for line.more() {
						if lf, lv, _ := line.next(); lf == 1 {
							fns = append(fns, lv)
						}
					}
					msg.err = errors.Join(msg.err, line.err)
				}
			}
			frames[id] = fns
		case 5: // Function
			var id, name uint64
			for msg.more() {
				switch f, v, _ := msg.next(); f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			names[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
		if top.err != nil || msg.err != nil {
			return nil, errProfile
		}
	}
	known := make(map[string]bool, len(modules))
	for _, m := range modules {
		known[m] = true
	}
	name := func(fn uint64) string {
		if i := names[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// attribute returns "" for samples of the reference workload
	// (calibrate.go), which are left out of the shares.
	attribute := func(s sample) string {
		program := false
		for _, l := range s.locs {
			for _, fn := range frames[l] {
				n := name(fn)
				if strings.HasPrefix(n, "main.reference") {
					return ""
				}
				if rest, ok := strings.CutPrefix(n, "repro/internal/"); ok {
					if m := rest[:strings.IndexAny(rest+".", "./")]; known[m] {
						return m
					}
					return "other"
				}
				program = program || strings.HasPrefix(n, "main.") || strings.HasPrefix(n, "repro.")
			}
		}
		if program {
			return "other"
		}
		return "runtime"
	}
	shares := make(map[string]float64, len(modules))
	var total float64
	for _, s := range samples {
		if m := attribute(s); m != "" {
			shares[m] += float64(s.value)
			total += float64(s.value)
		}
	}
	for m := range shares {
		if total > 0 {
			shares[m] /= total
		}
	}
	return shares, nil
}

// pb walks the fields of one protocol-buffer message.
type pb struct {
	b   []byte
	err error
}

func (p *pb) more() bool { return len(p.b) > 0 }

// next returns the next field's number with its value: v for a varint
// (wire type 0), data for a length-delimited payload (wire type 2).
func (p *pb) next() (field int, v uint64, data []byte) {
	key := p.varint()
	switch key & 7 {
	case 0:
		v = p.varint()
	case 1:
		p.take(8)
	case 2:
		data = p.take(p.varint())
	case 5:
		p.take(4)
	default:
		p.fail()
	}
	return int(key >> 3), v, data
}

func (p *pb) varint() uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *pb) take(n uint64) []byte {
	if n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	d := p.b[:n:n]
	p.b = p.b[n:]
	return d
}

func (p *pb) fail() {
	p.err = errProfile
	p.b = nil
}

// uints decodes one occurrence of a repeated integer field: a single
// varint v, or a packed run of them in data.
func uints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for p := (pb{b: data}); p.more(); {
		out = append(out, p.varint())
	}
	return out
}
