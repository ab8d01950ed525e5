package mpi_test

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/mpi"
)

// TestWorldStateEncoding pins World's kernel.StateSource contract over
// worlds with empty and non-empty reassembly logs and app state:
// StateLen is the length of AppendState's encoding, and Resume rebuilds
// a World that encodes back to the same bytes and app state.
func TestWorldStateEncoding(t *testing.T) {
	type snapshot struct {
		name  string
		state []byte
		app   string
	}
	var snaps []snapshot
	record := func(w *mpi.World, name string) {
		b := w.AppendState(nil)
		if n := w.StateLen(); n != len(b) {
			t.Errorf("rank %d %s: StateLen() = %d, len(AppendState(nil)) = %d", w.Rank, name, n, len(b))
		}
		snaps = append(snaps, snapshot{fmt.Sprintf("rank %d %s", w.Rank, name), b, string(w.AppState())})
	}
	e := newEnv(t, 2, dmtcp.Config{})
	e.c.Register("enc", rankProg(func(w *mpi.World) {
		peer := 1 - w.Rank
		record(w, "fresh")
		w.Commit([]byte("app-0"))
		record(w, "committed")
		w.Send(peer, 1, []byte("first"))
		w.Send(peer, 2, bytes.Repeat([]byte{byte(w.Rank)}, 3000))
		// Let both messages land so one read moves both into the log.
		w.ComputeFor(50 * time.Millisecond)
		if _, err := w.Recv(peer, 1); err != nil {
			t.Errorf("rank %d: %v", w.Rank, err)
			return
		}
		record(w, "consumed, uncommitted")
		w.Commit([]byte("app-1, a longer state"))
		record(w, "unconsumed after commit")
		if _, err := w.Recv(peer, 2); err != nil {
			t.Errorf("rank %d: %v", w.Rank, err)
			return
		}
		w.Commit(nil)
		record(w, "drained")
	}))
	e.drive(t, func(task *kernel.Task) {
		spawnRanks(t, e, "enc", mpi.Layout{Size: 2, PerNode: 1})
		task.Compute(500 * time.Millisecond)
		for _, s := range snaps {
			w, app, err := mpi.Resume(task, s.state)
			if err != nil {
				t.Errorf("%s: resume: %v", s.name, err)
				continue
			}
			if got := w.AppendState(nil); !bytes.Equal(got, s.state) {
				t.Errorf("%s: resumed world encodes %d bytes, differing from its %d-byte state", s.name, len(got), len(s.state))
			}
			if w.StateLen() != len(s.state) {
				t.Errorf("%s: resumed StateLen() = %d, want %d", s.name, w.StateLen(), len(s.state))
			}
			if string(app) != s.app {
				t.Errorf("%s: resumed app state %q, want %q", s.name, app, s.app)
			}
		}
	})
	if len(snaps) != 10 {
		t.Fatalf("recorded %d snapshots, want 10 (5 per rank)", len(snaps))
	}
	// The logs must actually have held bytes across a Commit, or the
	// non-empty cases above prove nothing.
	byName := map[string]snapshot{}
	for _, s := range snaps {
		byName[s.name] = s
	}
	committed, unconsumed := byName["rank 0 committed"], byName["rank 0 unconsumed after commit"]
	if len(unconsumed.state) < len(committed.state)+3000 {
		t.Errorf("rank 0 state after commit is %d bytes, want the unconsumed 3000-byte message in its log", len(unconsumed.state))
	}
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// exchangeAllocs runs k Sendrecv exchanges of size bytes between two
// ranks, each passing its previous result back as the receive buffer
// and, with commit, committing after every exchange.  It returns the
// heap bytes the process allocated meanwhile, both ranks included.
func exchangeAllocs(t *testing.T, k, size int, commit bool) uint64 {
	t.Helper()
	var allocated uint64
	e := newEnv(t, 2, dmtcp.Config{})
	e.c.Register("xchg", rankProg(func(w *mpi.World) {
		peer := 1 - w.Rank
		msg := make([]byte, size)
		var in []byte
		start := heapAllocBytes()
		for i := 0; i < k; i++ {
			var err error
			if in, err = w.Sendrecv(peer, i, msg, in); err != nil {
				t.Errorf("rank %d exchange %d: %v", w.Rank, i, err)
				return
			}
			if commit {
				w.Commit([]byte{byte(i)})
			}
		}
		if w.Rank == 0 {
			allocated = heapAllocBytes() - start
		}
	}))
	e.drive(t, func(task *kernel.Task) {
		spawnRanks(t, e, "xchg", mpi.Layout{Size: 2, PerNode: 1})
		task.Compute(time.Second)
	})
	if allocated == 0 {
		t.Fatal("rank 0 did not finish its exchanges")
	}
	return allocated
}

// TestExchangeAllocationsLinear guards the encode-on-read path: k
// exchanges with no Commit between them grow the reassembly logs
// without re-encoding them, so the heap bytes they allocate stay under
// a fixed multiple of k × message size.  Per exchange the two ranks
// queue each message in the kernel and grow their logs by it (about
// 13× the message size in all); re-encoding the logs at every send and
// receive instead grows as k² (about 300× at k = 128).
func TestExchangeAllocationsLinear(t *testing.T) {
	const k, size, multiple = 128, 4 << 10, 48
	allocated := exchangeAllocs(t, k, size, false)
	t.Logf("%d exchanges of %d B allocated %.1f× k × size", k, size, float64(allocated)/float64(k*size))
	if limit := uint64(multiple * k * size); allocated > limit {
		t.Errorf("%d exchanges of %d B allocated %d B (%.0f× k × size), over the %d× bound",
			k, size, allocated, float64(allocated)/float64(k*size), multiple)
	}
}

// TestExchangeCopyBudget guards the host cost of a steady-state
// exchange in the NAS loop's pattern: a reused receive buffer and a
// Commit after every exchange.  A message's bytes are copied twice:
// the kernel copies the frame header and the caller's payload into its
// in-flight buffer (a gather send, no frame scratch), and the receiver
// copies the payload out of the reassembly log into its receive buffer.
// Once buffers circulate neither copy allocates: the kernel copies into
// a recycled window-sized buffer, the socket buffer and the log adopt
// it, and the log gives back the array it drops.  What remains is a
// window remainder of a split frame, which gets an exact-size buffer.
// A fresh kernel buffer per message allocates about 1.6× the message
// size, and copying at every hand-off about 5×.
func TestExchangeCopyBudget(t *testing.T) {
	const k, size, budget = 64, 60 << 10, 0.25
	// Both ranks run in this process: 2k messages moved.
	perMsg := float64(exchangeAllocs(t, k, size, true)) / float64(2*k*size)
	t.Logf("%d messages of %d B allocated %.2f× the message size each", 2*k, size, perMsg)
	if perMsg > budget {
		t.Errorf("%d messages of %d B allocated %.2f× the message size each, over the %.2f× budget",
			2*k, size, perMsg, budget)
	}
}
