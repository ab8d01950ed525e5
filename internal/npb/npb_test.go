package npb

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/mpi"
)

func TestBenchmarkTableCoversPaper(t *testing.T) {
	want := []string{"nas-ep", "nas-is", "nas-cg", "nas-mg", "nas-lu", "nas-sp", "nas-bt", "mpi-hello", "mpi-memhog"}
	for _, name := range want {
		if _, ok := SpecFor(name); !ok {
			t.Errorf("missing benchmark %q", name)
		}
	}
	if _, ok := SpecFor("nas-ft"); ok {
		t.Error("unexpected benchmark")
	}
}

func TestClassCFootprints(t *testing.T) {
	mg, _ := SpecFor("nas-mg")
	lu, _ := SpecFor("nas-lu")
	if mg.DataTotalMB < 3000 || mg.DataTotalMB > 3600 {
		t.Errorf("MG class C footprint %d MB, want ≈3300", mg.DataTotalMB)
	}
	if mg.DataTotalMB <= lu.DataTotalMB {
		t.Error("MG must be the largest kernel, LU among the smallest")
	}
	is, _ := SpecFor("nas-is")
	if is.ExtraZeroMB == 0 || !is.Alltoall {
		t.Error("IS needs zero-heavy buckets and an all-to-all pattern (§5.4)")
	}
}

func TestPeerPatternsSymmetric(t *testing.T) {
	prop := func(rawRank, rawSize uint8) bool {
		size := int(rawSize%29) + 2
		rank := int(rawRank) % size
		for _, s := range Benchmarks {
			for _, p := range s.Peers(rank, size) {
				if p < 0 || p >= size || p == rank {
					return false
				}
				// Symmetry: if p is my peer, I am p's peer.
				found := false
				for _, q := range s.Peers(p, size) {
					if q == rank {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedChecksumDeterministic(t *testing.T) {
	k := &Kernel{Spec: Benchmarks[0]}
	a := k.ExpectedChecksum(1, 8)
	b := k.ExpectedChecksum(1, 8)
	if a != b {
		t.Fatal("checksum not deterministic")
	}
	if k.ExpectedChecksum(2, 8) == a {
		t.Fatal("checksums should differ across ranks")
	}
	if !strings.Contains(k.FormatVerify(8), "VERIFIED") {
		t.Fatal("bad verify format")
	}
}

func TestStateCodecRoundtrip(t *testing.T) {
	st := kstate{
		iter: 7, chk: 0xdeadbeefcafe, scale: 42,
		ra: mpi.RankArgs{
			Rank:     3,
			Layout:   mpi.Layout{Size: 16, PerNode: 4, BaseNode: 2, Port: 31000},
			DoneAddr: mpiAddr("node02", 8600),
			AppArgs:  []string{"55"},
		},
	}
	got, err := decK(encK(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.iter != st.iter || got.chk != st.chk || got.scale != st.scale {
		t.Fatalf("scalar mismatch: %+v", got)
	}
	if got.ra.Rank != 3 || got.ra.Layout.Size != 16 || got.ra.DoneAddr.Port != 8600 {
		t.Fatalf("rank args mismatch: %+v", got.ra)
	}
	if len(got.ra.AppArgs) != 1 || got.ra.AppArgs[0] != "55" {
		t.Fatalf("app args mismatch: %v", got.ra.AppArgs)
	}
}

// TestDecKRejectsEveryPrefix pins decK's error path: every strict
// prefix of a rank's state fails to decode, so Restore never runs a
// kernel on a state truncated anywhere.
func TestDecKRejectsEveryPrefix(t *testing.T) {
	ra, err := mpi.ParseRankArgs([]string{"3", "16", "4", "2", "31000", "node02", "8600", "55"})
	if err != nil {
		t.Fatal(err)
	}
	b := encK(kstate{iter: 37, chk: 0xdeadbeefcafe, scale: 100, ra: ra})
	if _, err := decK(b); err != nil {
		t.Fatalf("whole state: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if st, err := decK(b[:n]); err == nil {
			t.Errorf("%d of %d bytes decoded without an error: %+v", n, len(b), st)
		}
	}
}

func mpiAddr(h string, p int) (a struct {
	Host string
	Port int
}) {
	a.Host, a.Port = h, p
	return a
}

func TestMemoryScaling(t *testing.T) {
	spec, _ := SpecFor("nas-mg")
	k := &Kernel{Spec: spec}
	_ = k
	per100 := spec.DataTotalMB * model.MB / 32
	per1 := per100 / 100
	if per1 <= 0 {
		t.Fatal("1% scale must stay positive")
	}
}
