package mpi

import (
	"fmt"
	"math"

	"repro/internal/bin"
)

// Reserved tag space for collective operations.
const (
	tagBarrierUp = 1 << 30
	tagBarrierDn = 1<<30 + 1
	tagReduceUp  = 1<<30 + 2
	tagBcastDn   = 1<<30 + 3
	tagGather    = 1<<30 + 4
	tagAlltoall  = 1<<30 + 5
)

// treeParent returns the binary-tree parent of rank (or -1 for root).
func treeParent(rank int) int {
	if rank == 0 {
		return -1
	}
	return (rank - 1) / 2
}

// treeChildren returns the binary-tree children of rank.
func treeChildren(rank, size int) []int {
	var out []int
	if c := 2*rank + 1; c < size {
		out = append(out, c)
	}
	if c := 2*rank + 2; c < size {
		out = append(out, c)
	}
	return out
}

// TreePeers returns the ranks a process talks to during tree-based
// collectives (parent and children); include them in the peer list
// passed to Init.
func TreePeers(rank, size int) []int {
	var out []int
	if p := treeParent(rank); p >= 0 {
		out = append(out, p)
	}
	return append(out, treeChildren(rank, size)...)
}

// RingPeers returns the ±1 neighbors on a ring.
func RingPeers(rank, size int) []int {
	if size <= 1 {
		return nil
	}
	prev := (rank - 1 + size) % size
	next := (rank + 1) % size
	if prev == next {
		return []int{prev}
	}
	return []int{prev, next}
}

// MeshPeers returns the 4-neighborhood in a √size×√size grid (SP/BT
// style).  For non-square sizes the trailing partial row is handled
// by bounds-checking every neighbor.
func MeshPeers(rank, size int) []int {
	side := int(math.Round(math.Sqrt(float64(size))))
	if side < 1 {
		side = 1
	}
	r, c := rank/side, rank%side
	var out []int
	add := func(p int) {
		if p >= 0 && p < size && p != rank {
			out = append(out, p)
		}
	}
	if r > 0 {
		add(rank - side)
	}
	add(rank + side)
	if c > 0 {
		add(rank - 1)
	}
	if c < side-1 {
		add(rank + 1)
	}
	return out
}

// AllPeers returns every other rank (alltoall patterns: NAS/IS).
func AllPeers(rank, size int) []int {
	out := make([]int, 0, size-1)
	for r := 0; r < size; r++ {
		if r != rank {
			out = append(out, r)
		}
	}
	return out
}

// MergePeers unions peer lists.
func MergePeers(lists ...[]int) []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range lists {
		for _, p := range l {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	insertionSort(out)
	return out
}

// Barrier blocks until every rank has entered it (reduce-to-root then
// broadcast over the binary tree).
func (w *World) Barrier() error {
	for _, c := range treeChildren(w.Rank, w.Size()) {
		if _, err := w.Recv(c, tagBarrierUp); err != nil {
			return err
		}
	}
	if p := treeParent(w.Rank); p >= 0 {
		w.Send(p, tagBarrierUp, nil)
		if _, err := w.Recv(p, tagBarrierDn); err != nil {
			return err
		}
	}
	for _, c := range treeChildren(w.Rank, w.Size()) {
		w.Send(c, tagBarrierDn, nil)
	}
	return nil
}

// Bcast distributes root's buffer down the tree, returning the value
// on every rank.  Only rank 0 may be root in this implementation.
func (w *World) Bcast(data []byte) ([]byte, error) {
	if p := treeParent(w.Rank); p >= 0 {
		got, err := w.Recv(p, tagBcastDn)
		if err != nil {
			return nil, err
		}
		data = got
	}
	for _, c := range treeChildren(w.Rank, w.Size()) {
		w.Send(c, tagBcastDn, data)
	}
	return data, nil
}

// ReduceOp combines two float64 vectors elementwise.
type ReduceOp func(dst, src []float64)

// OpSum adds src into dst.
func OpSum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func encodeF64s(v []float64) []byte {
	var e bin.Encoder
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
	return e.B
}

// decodeF64s reverses encodeF64s; a count the bytes cannot hold
// fails before anything is allocated for it.
func decodeF64s(b []byte) ([]float64, error) {
	d := &bin.Decoder{B: b}
	out := make([]float64, d.Count(8))
	for i := range out {
		out[i] = d.F64()
	}
	return out, d.Err
}

// Reduce combines vec across ranks onto rank 0.
func (w *World) Reduce(vec []float64, op ReduceOp) ([]float64, error) {
	acc := append([]float64(nil), vec...)
	for _, c := range treeChildren(w.Rank, w.Size()) {
		got, err := w.Recv(c, tagReduceUp)
		if err != nil {
			return nil, err
		}
		v, err := decodeF64s(got)
		if err == nil && len(v) != len(acc) {
			err = fmt.Errorf("mpi: rank %d reduced %d values into %d", c, len(v), len(acc))
		}
		if err != nil {
			return nil, err
		}
		op(acc, v)
	}
	if p := treeParent(w.Rank); p >= 0 {
		w.Send(p, tagReduceUp, encodeF64s(acc))
	}
	return acc, nil
}

// Allreduce combines vec across ranks and distributes the result.
func (w *World) Allreduce(vec []float64, op ReduceOp) ([]float64, error) {
	acc, err := w.Reduce(vec, op)
	if err != nil {
		return nil, err
	}
	out, err := w.Bcast(encodeF64s(acc))
	if err != nil {
		return nil, err
	}
	return decodeF64s(out)
}

// Gather collects each rank's buffer at rank 0 (tree-merged); returns
// rank-indexed buffers at the root, nil elsewhere.
func (w *World) Gather(data []byte) ([][]byte, error) {
	var mine bin.Encoder
	mine.U32(1)
	mine.Int(w.Rank)
	mine.Bytes(data)
	acc := mine.B
	for _, c := range treeChildren(w.Rank, w.Size()) {
		got, err := w.Recv(c, tagGather)
		if err != nil {
			return nil, err
		}
		acc = mergeGather(acc, got)
	}
	if p := treeParent(w.Rank); p >= 0 {
		w.Send(p, tagGather, acc)
		return nil, nil
	}
	return decodeGather(acc, w.Size())
}

// decodeGather reads the root's accumulated gather (a count, then rank
// and buffer pairs) into rank-indexed buffers; a rank outside the
// communicator fails.
func decodeGather(b []byte, size int) ([][]byte, error) {
	d := &bin.Decoder{B: b}
	out := make([][]byte, size)
	for i, n := 0, d.Count(8+4); i < n && d.Err == nil; i++ {
		r := d.Int()
		if r < 0 || r >= size {
			return nil, fmt.Errorf("mpi: gather names rank %d of %d", r, size)
		}
		out[r] = d.Bytes()
	}
	return out, d.Err
}

func mergeGather(a, b []byte) []byte {
	da := &bin.Decoder{B: a}
	db := &bin.Decoder{B: b}
	na, nb := da.U32(), db.U32()
	var e bin.Encoder
	e.U32(na + nb)
	e.B = append(e.B, da.B...)
	e.B = append(e.B, db.B...)
	return e.B
}

// Alltoall exchanges a distinct buffer with every other rank.  bufFor
// produces the outgoing payload per destination; the result maps
// source rank to the received payload.
func (w *World) Alltoall(bufFor func(dst int) []byte) (map[int][]byte, error) {
	out := make(map[int][]byte, w.Size()-1)
	// Deterministic pairwise exchange ordering: in each round i, rank
	// r exchanges with r XOR i (hypercube-style), skipping peers
	// beyond size.
	for i := 1; i < nextPow2(w.Size()); i++ {
		peer := w.Rank ^ i
		if peer >= w.Size() {
			continue
		}
		if w.Rank < peer {
			w.Send(peer, tagAlltoall, bufFor(peer))
			got, err := w.Recv(peer, tagAlltoall)
			if err != nil {
				return nil, err
			}
			out[peer] = got
		} else {
			got, err := w.Recv(peer, tagAlltoall)
			if err != nil {
				return nil, err
			}
			out[peer] = got
			w.Send(peer, tagAlltoall, bufFor(peer))
		}
	}
	return out, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
