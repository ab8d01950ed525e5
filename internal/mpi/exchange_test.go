package mpi_test

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/bin"
	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/mtcp"
)

// exchangeSizes are the payloads each rank sends every peer in a bulk
// round, back to back.  The 60 KB and 100 KB frames follow each other, so the
// 64 KB window splits them across segments and reads; the others cover
// an empty payload, tiny frames and window remainders.
var exchangeSizes = []int{0, 1, 12, 4 << 10, 60 << 10, 100 << 10, 33 << 10}

// patternByte is byte off of message k that rank sends in round iter:
// a byte that moved, or came from another message, round or rank,
// reads differently.
func patternByte(rank, iter, k, off int) byte {
	return byte(off*7 + off>>8 + rank*61 + iter*17 + k*5)
}

func patternMsg(rank, iter, k, size int) []byte {
	b := make([]byte, size)
	for off := range b {
		b[off] = patternByte(rank, iter, k, off)
	}
	return b
}

// patternProg is a resumable rank program.  Every third round is bulk:
// every rank sends each peer one message of every exchangeSizes size,
// then reads all of its peers' messages for the round.  The other
// rounds follow the NAS loop: a 60 KB Sendrecv with each peer in
// ascending order, into a reused receive buffer.  Every rank checks
// every byte it receives and commits after each round.  Rank r
// computes r × 500 µs per round, so the ranks drift apart and a fast
// peer's next message lands in a slow rank's log before that rank
// commits, leaving the log non-empty across the Commit.  The program
// records what it saw, so the test can check both the run the
// checkpoint interrupted and the replay after the restart.
type patternProg struct {
	rounds    int
	progress  map[int]int  // rank → rounds completed (live)
	resumedAt map[int]int  // rank → round its restart resumed at
	finished  map[int]bool // rank → ran every round after restarting
	bad       []string
}

func (p *patternProg) Main(t *kernel.Task, args []string) {
	ra, err := mpi.ParseRankArgs(args)
	if err != nil {
		p.bad = append(p.bad, err.Error())
		return
	}
	w, err := mpi.Init(t, ra.Rank, ra.Layout, mpi.AllPeers(ra.Rank, ra.Layout.Size))
	if err != nil {
		p.bad = append(p.bad, err.Error())
		return
	}
	p.run(w, 0)
	for {
		t.Compute(10 * time.Millisecond) // wait to be checkpointed and killed
	}
}

func (p *patternProg) Restore(t *kernel.Task, state []byte) {
	w, app, err := mpi.Resume(t, state)
	if err != nil {
		p.bad = append(p.bad, fmt.Sprintf("resume: %v", err))
		return
	}
	d := bin.Decoder{B: app}
	iter := d.Int()
	p.resumedAt[w.Rank] = iter
	if p.run(w, iter) {
		p.finished[w.Rank] = true
	}
}

// check records a received message that differs from what peer sent.
func (p *patternProg) check(w *mpi.World, iter, k, peer int, got, want []byte) {
	if bytes.Equal(got, want) {
		return
	}
	off := 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		off++
	}
	p.bad = append(p.bad, fmt.Sprintf("rank %d round %d: %d-byte message %d from rank %d read as %d bytes, first differing at offset %d",
		w.Rank, iter, len(want), k, peer, len(got), off))
}

// run executes rounds from iter on and reports whether it ran them all.
func (p *patternProg) run(w *mpi.World, iter int) bool {
	peers := mpi.AllPeers(w.Rank, w.Size())
	var in []byte
	for ; iter < p.rounds; iter++ {
		w.ComputeFor(time.Duration(w.Rank) * 500 * time.Microsecond)
		if iter%3 != 0 {
			for _, peer := range peers {
				var err error
				in, err = w.Sendrecv(peer, iter, patternMsg(w.Rank, iter, 0, 60<<10), in)
				if err != nil {
					p.bad = append(p.bad, fmt.Sprintf("rank %d round %d: %v", w.Rank, iter, err))
					return false
				}
				p.check(w, iter, 0, peer, in, patternMsg(peer, iter, 0, 60<<10))
			}
		} else {
			for _, peer := range peers {
				for k, n := range exchangeSizes {
					w.Send(peer, k, patternMsg(w.Rank, iter, k, n))
				}
			}
			for _, peer := range peers {
				for k, n := range exchangeSizes {
					got, err := w.Recv(peer, k)
					if err != nil {
						p.bad = append(p.bad, fmt.Sprintf("rank %d round %d: %v", w.Rank, iter, err))
						return false
					}
					p.check(w, iter, k, peer, got, patternMsg(peer, iter, k, n))
				}
			}
		}
		var e bin.Encoder
		e.Int(iter + 1)
		w.Commit(e.B)
		p.progress[w.Rank] = iter + 1
	}
	return true
}

// TestExchangeSplitFramesAcrossRestart guards the recycled socket
// buffers, the gather send and the restart of interrupted sends end to
// end: three ranks on two nodes exchange messages of several sizes,
// including back-to-back frames the window splits, and check every
// byte.  Once every rank has finished two rounds, a checkpoint lands
// at one of several moments a quarter millisecond apart, most of them
// while sends are in progress; the job is killed, restarted, and
// replays from its last Commit to the end, checking every byte again.
// An array given back to the kernel while the log (or anyone else)
// still held it would be overwritten by a later send, and received
// bytes held outside the log during the checkpoint would be lost:
// either shows up here as a corrupt message.  A replayed frame sent
// into the middle of an interrupted one is pinned in the kernel by
// TestResumeSendHoldsStream.
func TestExchangeSplitFramesAcrossRestart(t *testing.T) {
	inFlight := 0
	for k := 0; k < 8; k++ {
		delay := time.Duration(k) * 250 * time.Microsecond
		t.Run(fmt.Sprintf("ckpt_after_%dus", delay.Microseconds()), func(t *testing.T) {
			inFlight += exchangeAcrossRestart(t, delay)
		})
	}
	if inFlight == 0 {
		t.Error("no checkpoint captured a send in progress, so no split frame was in flight")
	}
}

// exchangeAcrossRestart runs patternProg to the end across one
// checkpoint, taken delay after every rank has finished two rounds,
// and returns the number of sends in progress the checkpoint captured.
func exchangeAcrossRestart(t *testing.T, delay time.Duration) (inFlight int) {
	const size, rounds = 3, 16
	e := newEnv(t, 2, dmtcp.Config{})
	prog := &patternProg{
		rounds:    rounds,
		progress:  map[int]int{},
		resumedAt: map[int]int{},
		finished:  map[int]bool{},
	}
	e.c.Register("pattern", prog)
	e.drive(t, func(task *kernel.Task) {
		if _, err := e.sys.Launch(0, "orterun", strconv.Itoa(size), "2", "0", strconv.Itoa(mpi.BasePort), "pattern"); err != nil {
			t.Error(err)
			return
		}
		midRun := func() bool {
			for r := 0; r < size; r++ {
				if prog.progress[r] < 2 {
					return false
				}
			}
			return true
		}
		deadline := task.Now().Add(10 * time.Second)
		for !midRun() && task.Now() < deadline {
			task.Compute(time.Millisecond)
		}
		if !midRun() {
			t.Errorf("ranks never finished two rounds (progress %v, failures %v)", prog.progress, prog.bad)
			return
		}
		task.Compute(delay)
		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		for _, info := range round.Images {
			ino, err := e.c.LookupHost(info.Host).FS.ReadFile(info.Path)
			if err != nil {
				t.Errorf("image %s: %v", info.Path, err)
				continue
			}
			img, err := mtcp.Decode(ino.Data)
			if err != nil {
				t.Errorf("image %s: %v", info.Path, err)
				continue
			}
			for _, tr := range img.Threads {
				if tr.ContFD >= 0 && len(tr.ContData) > 0 {
					inFlight++
				}
			}
		}
		e.sys.KillManaged()
		if _, err := e.sys.RestartAll(task, round, nil); err != nil {
			t.Error(err)
			return
		}
		deadline = task.Now().Add(10 * time.Second)
		for len(prog.finished) < size && len(prog.bad) == 0 && task.Now() < deadline {
			task.Compute(10 * time.Millisecond)
		}
	})
	for _, b := range prog.bad {
		t.Error(b)
	}
	for r := 0; r < size; r++ {
		at, ok := prog.resumedAt[r]
		switch {
		case !ok:
			t.Errorf("rank %d was never restored", r)
		case at < 2 || at >= rounds:
			t.Errorf("rank %d resumed at round %d, want a round in [2, %d)", r, at, rounds)
		case !prog.finished[r]:
			t.Errorf("rank %d did not finish its rounds after the restart (progress %d)", r, prog.progress[r])
		}
	}
	return inFlight
}
