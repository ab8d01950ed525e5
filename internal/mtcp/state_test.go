package mtcp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kernel"
)

// liveState is a kernel.StateSource over a plain buffer: a library
// that keeps its control state live and reports each change with
// StateChanged.
type liveState struct{ b []byte }

func (s *liveState) StateLen() int                 { return len(s.b) }
func (s *liveState) AppendState(dst []byte) []byte { return append(dst, s.b...) }

// stateOp is one step of a state sequence: a change of the state to
// size fresh bytes, one read of process memory, or a checkpoint that
// the sequence continues from in a restored copy of the process.
type stateOp struct {
	kind string // "set", "capture", "fork", "load" or "restore"
	size int
}

func set(n int) stateOp { return stateOp{kind: "set", size: n} }

var (
	capture = stateOp{kind: "capture"}
	fork    = stateOp{kind: "fork"}
	load    = stateOp{kind: "load"}
	restore = stateOp{kind: "restore"}
)

// stateReads runs ops in a process that writes "[state]" either with
// SaveState (live false) or through a StateSource and StateChanged
// (live true), and describes "[state]" as each read sees it: a
// checkpoint capture, a forked child's copy, or LoadState.
func stateReads(t *testing.T, ops []stateOp, live bool) []string {
	eng, c := testCluster(t)
	var reads []string
	describe := func(what string, bytes int64, vers []uint64, payload []byte) {
		reads = append(reads, fmt.Sprintf("%s: bytes=%d vers=%v payload=%q", what, bytes, vers, payload))
	}
	var runOps func(task *kernel.Task, src *liveState, from int)
	runOps = func(task *kernel.Task, src *liveState, from int) {
		for i := from; i < len(ops); i++ {
			switch op := ops[i]; op.kind {
			case "set":
				b := bytes.Repeat([]byte{byte('a' + i)}, op.size)
				if live {
					src.b = append(src.b[:0], b...)
					task.P.StateChanged()
				} else {
					task.P.SaveState(b)
				}
			case "capture":
				rec := AreaRecord{Bytes: -1}
				for _, r := range Capture(task.P, 1).Areas {
					if r.Name == "[state]" {
						rec = r
					}
				}
				describe("capture", rec.Bytes, rec.ChunkVers, rec.Payload)
			case "fork":
				pid := task.ForkFn("child", func(ct *kernel.Task) {
					if a := ct.P.Mem.Area("[state]"); a != nil {
						describe("fork", a.Bytes, a.ChunkVersions(), a.Payload)
					} else {
						describe("fork", -1, nil, nil)
					}
				})
				if _, err := task.WaitPid(pid); err != nil {
					t.Error(err)
				}
			case "load":
				describe("load", 0, nil, task.P.LoadState())
			case "restore":
				img := Capture(task.P, 1)
				shell := task.P.Kern.SpawnOrphan("restored", nil, nil)
				InstallMemory(shell, img, task, nil)
				var rsrc *liveState
				if live {
					// As mpi.Resume does: rebuild the live state from
					// the restored bytes, then register it.
					rsrc = &liveState{b: append([]byte(nil), shell.LoadState()...)}
					shell.SetStateSource(rsrc)
				}
				shell.StartMain(func(rt *kernel.Task) { runOps(rt, rsrc, i+1) })
				task.WatchExit(shell)
				return
			}
		}
	}
	run(t, eng, c, func(task *kernel.Task) {
		var src *liveState
		if live {
			src = &liveState{}
			task.P.SetStateSource(src)
		}
		runOps(task, src, 0)
	})
	return reads
}

// TestStateSourceMatchesSaveState pins the encode-on-read contract: a
// state sequence written through a StateSource and StateChanged reads
// back exactly as the same sequence stored with SaveState — the same
// "[state]" size, chunk versions and payload at every capture, fork
// and LoadState.
func TestStateSourceMatchesSaveState(t *testing.T) {
	const mb = int(kernel.CkptChunkBytes)
	cases := []struct {
		name string
		ops  []stateOp
	}{
		// A log spanning two tracking chunks, then Commits that discard
		// it: the area keeps its size only from the high-water mark,
		// and later writes dirty chunk 0 alone.
		{"shrinks after commit", []stateOp{set(mb + mb/2), capture, set(64), fork, set(0), load, capture, set(200), capture}},
		{"restored then checkpointed before any change", []stateOp{set(300), restore, capture, fork, load, set(40), fork, restore, capture}},
		{"no change since last read", []stateOp{set(128), capture, capture, fork, load, set(128), load, fork, capture}},
		{"several changes between reads", []stateOp{set(10), set(2 * mb), set(5), fork, set(7), set(9), load, capture}},
		{"read before any state", []stateOp{capture, fork, load, set(16), capture}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := stateReads(t, tc.ops, false)
			got := stateReads(t, tc.ops, true)
			if len(got) != len(want) {
				t.Fatalf("live path made %d reads, SaveState path %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("read %d:\n live      %.200s\n SaveState %.200s", i, got[i], want[i])
				}
			}
		})
	}
}
