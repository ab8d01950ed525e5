package kernel

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sim"
)

// readAheadMaxBlocks caps how many queued blocks the reader merges into
// one transfer.  A consumer waits for a whole merged transfer, so the
// cap bounds what a read-bound restore (gunzip faster than the disk)
// loses to merging; up to it, merging keeps the event count down.
const readAheadMaxBlocks = 8

// ReadAhead is the restore side's read-ahead stage, the way gzip -d
// reading a pipe overlaps the kernel's readahead with decompression.
// Producers queue blocks that are local (a block is an id and its
// stored bytes); one reader task transfers them off a read pipe in
// FIFO order, one transfer at a time, while consumers claim the blocks
// whose transfer has ended and decompress them.  While every consumer
// is busy the reader merges queued blocks into one transfer, up to a
// window that doubles after each transfer (1, 2, 4, … blocks, as Linux
// readahead ramps up); a consumer already waiting gets the next block
// alone.
//
// Close says nothing more will be queued: the reader finishes the
// queue, and Claim reports false once every transferred block has been
// claimed.  Stop ends the stage now (a fetch error, a corrupt chunk,
// an abort): the reader quits after the transfer in flight, and Claim
// reports false as soon as it has.  Either way the reader has exited
// by the time any Claim reports false, so no task is left parked.
type ReadAhead struct {
	pipe *flow.Pipe
	// want, when non-nil, is asked as the reader takes each block off
	// the queue; false drops the block untransferred.
	want func(id int) bool

	queue []readBlock // local, awaiting transfer
	// read holds the ids the reader took: read[next:avail] have been
	// transferred and await a consumer, read[avail:] are in flight.
	read        []int
	next, avail int

	closed, stopped, done bool

	reader *sim.WaitQueue // the reader, with nothing queued
	idle   *sim.WaitQueue // consumers, with nothing transferred
}

type readBlock struct {
	id     int
	stored int64
}

// NewReadAhead starts a read-ahead stage whose reader task runs in t's
// process and transfers off pipe.  The reader records one
// "restore.read" span when it exits.
func NewReadAhead(t *Task, pipe *flow.Pipe, want func(id int) bool) *ReadAhead {
	return startReadAhead(t, &ReadAhead{pipe: pipe, want: want})
}

// ReadAll reads blocks that are all local already, block i holding
// stored[i] bytes, through a read-ahead stage off pipe, and runs fn (a
// block's gunzip) on each block once its transfer has ended, over a
// pool of workers consumer tasks (as RunWorkers: <= 1 runs fn on t
// alone).  It returns when every block has been read and consumed.
func ReadAll(t *Task, pipe *flow.Pipe, stored []int64, workers int, fn func(wt *Task, i int)) {
	ra := &ReadAhead{
		pipe:   pipe,
		queue:  make([]readBlock, len(stored)),
		read:   make([]int, 0, len(stored)),
		closed: true,
	}
	for i, n := range stored {
		ra.queue[i] = readBlock{i, n}
	}
	startReadAhead(t, ra)
	RunWorkers(t, workers, len(stored), "gunzip-worker", func(wt *Task, _ int) error {
		if i, ok := ra.Claim(wt); ok {
			fn(wt, i)
		}
		return nil
	})
}

func startReadAhead(t *Task, ra *ReadAhead) *ReadAhead {
	eng := t.P.Node.Cluster.Eng
	ra.reader = sim.NewWaitQueue(eng, "readahead")
	ra.idle = sim.NewWaitQueue(eng, "readahead.idle")
	t.P.SpawnTask("readahead", true, ra.run)
	return ra
}

// Queue adds a local block to the reader's queue.  Blocks queued after
// Close or Stop are ignored.
func (ra *ReadAhead) Queue(id int, stored int64) {
	if ra.closed || ra.stopped {
		return
	}
	ra.queue = append(ra.queue, readBlock{id, stored})
	ra.reader.Wake(1)
}

// Close tells the stage that nothing more will be queued.
func (ra *ReadAhead) Close() {
	ra.closed = true
	ra.reader.Wake(1)
}

// Stop ends the stage without transferring what is still queued.
func (ra *ReadAhead) Stop() {
	ra.stopped = true
	ra.reader.Wake(1)
}

// Claim blocks t until a transferred block is available and returns
// its id, or reports false once the stage has ended.
func (ra *ReadAhead) Claim(t *Task) (int, bool) {
	for !ra.done && (ra.stopped || ra.next == ra.avail) {
		ra.idle.Wait(t.T)
	}
	if ra.stopped || ra.next == ra.avail {
		return 0, false
	}
	ra.next++
	return ra.read[ra.next-1], true
}

// run is the reader task.
func (ra *ReadAhead) run(t *Task) {
	start := t.Now()
	var bytes int64
	transfers := 0
	defer func() {
		ra.done = true
		ra.idle.WakeAll()
		t.Trace().Span(t.Host(), fmt.Sprintf("%s[%d] read", t.P.ProgName, t.P.Pid),
			"restore.read", "restore", start, t.Now(), obs.A("stored_bytes", bytes),
			obs.A("blocks", int64(ra.avail)), obs.A("transfers", int64(transfers)))
	}()
	window := 1
	for {
		for len(ra.queue) == 0 && !ra.closed && !ra.stopped {
			ra.reader.Wait(t.T)
		}
		if ra.stopped || len(ra.queue) == 0 {
			return
		}
		limit := window
		if ra.idle.Len() > 0 {
			limit = 1
		}
		var n int64
		for len(ra.queue) > 0 && len(ra.read)-ra.avail < limit {
			b := ra.queue[0]
			ra.queue = ra.queue[1:]
			if ra.want == nil || ra.want(b.id) {
				ra.read = append(ra.read, b.id)
				n += b.stored
			}
		}
		if len(ra.read) == ra.avail {
			continue
		}
		ra.pipe.Read(t.T, n)
		if ra.stopped {
			return
		}
		bytes += n
		transfers++
		ra.idle.Wake(len(ra.read) - ra.avail)
		ra.avail = len(ra.read)
		window = min(2*window, readAheadMaxBlocks)
	}
}
