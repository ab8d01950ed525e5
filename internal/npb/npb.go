// Package npb implements the NAS Parallel Benchmarks (NPB 2.4-MPI)
// kernels the paper's evaluation checkpoints: EP, IS, CG, MG, LU, SP,
// and BT (§5.2).  Each kernel reproduces the original's communication
// pattern and per-rank memory footprint (class C by default, scalable
// through an argument), performs a real — if scaled-down — computation
// whose checksum is verified across checkpoint/restart, and charges
// calibrated CPU time per iteration.
package npb

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
)

// Spec defines one benchmark kernel.
type Spec struct {
	// Name is the registered program name ("nas-mg" etc.).
	Name string
	// DataTotalMB is the class-C aggregate data footprint, divided
	// evenly among ranks.
	DataTotalMB int64
	// ExtraZeroMB is an additional mostly-zero allocation (IS's
	// over-provisioned buckets, §5.4).
	ExtraZeroMB int64
	// Class characterizes the data arrays' compressibility.
	Class model.MemClass
	// Iters is the number of main-loop iterations.
	Iters int
	// MsgKB is the per-neighbor exchange size per iteration.
	MsgKB int
	// CPUPerIter is per-rank compute time per iteration.
	CPUPerIter time.Duration
	// Peers returns the communication partners of a rank.
	Peers func(rank, size int) []int
	// Alltoall marks kernels whose exchange is all-to-all (IS).
	Alltoall bool
}

// Benchmarks lists the kernels with class-C footprints (per the NPB
// problem-size tables) and exchange patterns.
var Benchmarks = []Spec{
	{Name: "nas-ep", DataTotalMB: 450, Class: model.ClassNumeric, Iters: 16,
		MsgKB: 1, CPUPerIter: 60 * time.Millisecond, Peers: mpi.TreePeers},
	{Name: "nas-is", DataTotalMB: 1100, ExtraZeroMB: 2100, Class: model.ClassRandom, Iters: 10,
		MsgKB: 160, CPUPerIter: 25 * time.Millisecond, Peers: mpi.AllPeers, Alltoall: true},
	{Name: "nas-cg", DataTotalMB: 900, Class: model.ClassNumeric, Iters: 18,
		MsgKB: 220, CPUPerIter: 35 * time.Millisecond, Peers: rowColPeers},
	{Name: "nas-mg", DataTotalMB: 3300, Class: model.ClassNumeric, Iters: 14,
		MsgKB: 450, CPUPerIter: 40 * time.Millisecond, Peers: mgPeers},
	{Name: "nas-lu", DataTotalMB: 600, Class: model.ClassNumeric, Iters: 24,
		MsgKB: 60, CPUPerIter: 30 * time.Millisecond, Peers: mpi.MeshPeers},
	{Name: "nas-sp", DataTotalMB: 800, Class: model.ClassNumeric, Iters: 20,
		MsgKB: 190, CPUPerIter: 35 * time.Millisecond, Peers: mpi.MeshPeers},
	{Name: "nas-bt", DataTotalMB: 1300, Class: model.ClassNumeric, Iters: 20,
		MsgKB: 190, CPUPerIter: 40 * time.Millisecond, Peers: mpi.MeshPeers},
	// mpi-memhog is the Fig. 6 synthetic OpenMPI program "allocating
	// random data": footprint scales via the percent argument
	// (100% = 64 GB across the cluster) and compression is pointless
	// by construction.
	{Name: "mpi-memhog", DataTotalMB: 65536, Class: model.ClassRandom, Iters: 100000,
		MsgKB: 4, CPUPerIter: 80 * time.Millisecond, Peers: mpi.RingPeers},
	// mpi-hello is the paper's "baseline" app: it shows the cost of
	// checkpointing the MPI machinery itself (it idles long enough
	// for a checkpoint to land mid-run).
	{Name: "mpi-hello", DataTotalMB: 16, Class: model.ClassData, Iters: 600,
		MsgKB: 1, CPUPerIter: 5 * time.Millisecond, Peers: mpi.TreePeers},
}

// SpecFor looks up a benchmark by name.
func SpecFor(name string) (Spec, bool) {
	for _, s := range Benchmarks {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// rowColPeers approximates CG's row/column group exchanges on a
// power-of-two process grid with ring neighbors at two strides.
func rowColPeers(rank, size int) []int {
	peers := mpi.RingPeers(rank, size)
	if size >= 4 {
		h := size / 2
		// Both directions keep the pattern symmetric for odd sizes.
		peers = mpi.MergePeers(peers, []int{(rank + h) % size, (rank - h + size) % size})
	}
	return peers
}

// mgPeers approximates MG's 3-D halo pattern with ring neighbors at
// strides 1 and 2 (coarser grids talk further).
func mgPeers(rank, size int) []int {
	peers := mpi.RingPeers(rank, size)
	if size > 4 {
		peers = mpi.MergePeers(peers, []int{(rank + 2) % size, (rank - 2 + size) % size})
	}
	return peers
}

// Register installs every benchmark program into the cluster.
func Register(c *kernel.Cluster) {
	for _, s := range Benchmarks {
		c.Register(s.Name, &Kernel{Spec: s})
	}
}

// Kernel is a runnable NPB benchmark (a kernel.Program).
type Kernel struct {
	Spec Spec
}

// kstate is the per-rank persistent control state.
type kstate struct {
	iter  int
	chk   uint64
	scale int // footprint scale percent (100 = class C)
	ra    mpi.RankArgs
}

func encK(s kstate) []byte {
	var e bin.Encoder
	e.Int(s.iter)
	e.U64(s.chk)
	e.Int(s.scale)
	e.Str(joinStrings(s.ra.Format()))
	return e.B
}

// decK decodes encK's bytes; a truncated state or unparsable rank
// arguments fail it, so a rank never resumes on partly zero values.
func decK(b []byte) (kstate, error) {
	d := &bin.Decoder{B: b}
	s := kstate{iter: d.Int(), chk: d.U64(), scale: d.Int()}
	args := splitStrings(d.Str())
	if d.Err != nil {
		return kstate{}, fmt.Errorf("npb: bad rank state: %w", d.Err)
	}
	ra, err := mpi.ParseRankArgs(args)
	if err != nil {
		return kstate{}, err
	}
	s.ra = ra
	return s, nil
}

func joinStrings(a []string) string {
	out := ""
	for i, s := range a {
		if i > 0 {
			out += "\x1f"
		}
		out += s
	}
	return out
}

func splitStrings(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\x1f' {
			out = append(out, cur)
			cur = ""
		} else {
			cur += string(r)
		}
	}
	return append(out, cur)
}

// Main runs a fresh rank.  AppArgs[0], when present, scales the data
// footprint in percent (the Fig. 6 memory sweep reuses this).
func (k *Kernel) Main(t *kernel.Task, args []string) {
	ra, err := mpi.ParseRankArgs(args)
	if err != nil {
		t.Printf("%s: %v\n", k.Spec.Name, err)
		t.Exit(2)
	}
	scale := 100
	if len(ra.AppArgs) > 0 {
		if v, err := strconv.Atoi(ra.AppArgs[0]); err == nil && v > 0 {
			scale = v
		}
	}
	w, err := k.initWorld(t, ra)
	if err != nil {
		t.Printf("%s: %v\n", k.Spec.Name, err)
		t.Exit(1)
	}
	k.setupMemory(t, ra, scale)
	st := kstate{scale: scale, ra: ra}
	w.Commit(encK(st))
	k.loop(t, w, st)
}

// Restore resumes a checkpointed rank.
func (k *Kernel) Restore(t *kernel.Task, state []byte) {
	w, app, err := mpi.Resume(t, state)
	if err != nil {
		t.Printf("%s: resume: %v\n", k.Spec.Name, err)
		return
	}
	st, err := decK(app)
	if err != nil {
		t.Printf("%s: restore: %v\n", k.Spec.Name, err)
		return
	}
	k.loop(t, w, st)
}

func (k *Kernel) initWorld(t *kernel.Task, ra mpi.RankArgs) (*mpi.World, error) {
	peers := k.Spec.Peers(ra.Rank, ra.Layout.Size)
	peers = mpi.MergePeers(peers, mpi.TreePeers(ra.Rank, ra.Layout.Size))
	return mpi.Init(t, ra.Rank, ra.Layout, peers)
}

func (k *Kernel) setupMemory(t *kernel.Task, ra mpi.RankArgs, scale int) {
	perRank := k.Spec.DataTotalMB * model.MB / int64(ra.Layout.Size)
	perRank = perRank * int64(scale) / 100
	t.MapLib("/usr/lib/libmpi+f77.so", 22*model.MB)
	t.MapAnon("[data]", perRank, k.Spec.Class)
	if k.Spec.ExtraZeroMB > 0 {
		zb := k.Spec.ExtraZeroMB * model.MB / int64(ra.Layout.Size) * int64(scale) / 100
		t.MapAnon("[buckets]", zb, model.ClassSparseZero)
	}
}

// loop executes the main iteration loop from st.iter.
func (k *Kernel) loop(t *kernel.Task, w *mpi.World, st kstate) {
	s := k.Spec
	size := w.Size()
	// Canonical ascending exchange order: every rank walks its peer
	// list the same way, which (with asynchronous sends) yields a
	// wavefront schedule free of cyclic waits.
	xpeers := mpi.MergePeers(s.Peers(w.Rank, size))
	msgBytes := s.MsgKB * 1024
	if s.Alltoall && size > 1 {
		// All-to-all volume is per-rank aggregate: each pairwise
		// message shrinks with the communicator (as in NPB IS).
		msgBytes = msgBytes/size + 64
	}
	msg := make([]byte, msgBytes)
	var in []byte // receive buffer, reused by every Sendrecv
	for st.iter < s.Iters {
		w.ComputeFor(s.CPUPerIter)
		// Deterministic payload so the checksum verifies transport.
		stamp(msg, uint64(st.iter)<<32|uint64(w.Rank))
		if s.Alltoall {
			got, err := w.Alltoall(func(dst int) []byte { return msg })
			if err != nil {
				return
			}
			for src := 0; src < size; src++ {
				if b, ok := got[src]; ok {
					st.chk = mix(st.chk, unstamp(b))
				}
			}
		} else {
			for _, p := range xpeers {
				var err error
				in, err = w.Sendrecv(p, st.iter, msg, in)
				if err != nil {
					return
				}
				st.chk = mix(st.chk, unstamp(in))
			}
		}
		st.iter++
		w.Commit(encK(st))
	}
	// Per-rank verification record (diagnosable at any scale).
	t.P.Node.FS.WriteFile(fmt.Sprintf("/out/%s.rank%d", s.Name, w.Rank),
		[]byte(fmt.Sprintf("%d", st.chk)), 0)
	// Final verification: gather per-rank checksums at rank 0 and
	// fold them with XOR (exact and order-independent).
	var eb bin.Encoder
	eb.U64(st.chk)
	g, err := w.Gather(eb.B)
	if err != nil {
		return
	}
	if w.Rank == 0 {
		var total uint64
		for _, b := range g {
			d := bin.Decoder{B: b}
			total ^= d.U64()
		}
		line := fmt.Sprintf("%s VERIFIED np=%d chk=%d", s.Name, size, total)
		t.Printf("%s\n", line)
		t.P.Node.FS.WriteFile("/out/"+s.Name+".verify", []byte(line), 0)
	}
	mpi.NotifyDone(t, st.ra)
	w.Finalize()
}

func stamp(b []byte, v uint64) {
	if len(b) >= 8 {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
}

func unstamp(b []byte) uint64 {
	var v uint64
	if len(b) >= 8 {
		for i := 0; i < 8; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
	}
	return v
}

func mix(chk, v uint64) uint64 {
	chk ^= v + 0x9e3779b97f4a7c15 + (chk << 6) + (chk >> 2)
	return chk
}

// ExpectedChecksum computes the checksum an uninterrupted run yields
// for a rank (used by tests to verify restart correctness).
func (k *Kernel) ExpectedChecksum(rank, size int) uint64 {
	var chk uint64
	for iter := 0; iter < k.Spec.Iters; iter++ {
		if k.Spec.Alltoall {
			for src := 0; src < size; src++ {
				if src != rank {
					chk = mix(chk, uint64(iter)<<32|uint64(src))
				}
			}
		} else {
			for _, p := range mpi.MergePeers(k.Spec.Peers(rank, size)) {
				chk = mix(chk, uint64(iter)<<32|uint64(p))
			}
		}
	}
	return chk
}

// FormatVerify renders the expected rank-0 output line for np ranks.
func (k *Kernel) FormatVerify(np int) string {
	var total uint64
	for r := 0; r < np; r++ {
		total ^= k.ExpectedChecksum(r, np)
	}
	return fmt.Sprintf("%s VERIFIED np=%d chk=%d", k.Spec.Name, np, total)
}
