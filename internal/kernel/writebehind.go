package kernel

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sim"
)

// WriteBehind is the checkpoint side's write-behind stage, the mirror
// of ReadAhead, the way gzip writing into a pipe hands each compressed
// block to the page cache while it deflates the next.  Producers queue
// each block's stored bytes as the compressor produces them; one
// writer task moves them onto a write pipe in FIFO order, one transfer
// at a time, merging every block that queued while the previous
// transfer ran, and lands each block (runs its land hook) when the
// transfer carrying it ends.  A write that keeps up with its
// compressor therefore costs the compression plus one block's write,
// not the compression and then the whole write.
//
// Close says nothing more will be queued and waits for the last
// landing.  If the writer task dies first (its process was killed), it
// runs every unlanded block's hook with ok false as it unwinds, so a
// hook that releases a claim never leaves another task parked on it.
type WriteBehind struct {
	pipe *flow.Pipe

	queue  []writeBlock // produced, awaiting transfer
	batch  []writeBlock // in flight
	closed bool
	done   bool

	writer *sim.WaitQueue // the writer, with nothing queued
	closer *sim.WaitQueue // Close, until the writer has exited
}

type writeBlock struct {
	stored int64
	land   func(wt *Task, ok bool)
}

// NewWriteBehind starts a write-behind stage whose writer task runs in
// t's process and transfers onto pipe.  The writer records one
// "ckpt.write.disk" span when it exits.
func NewWriteBehind(t *Task, pipe *flow.Pipe) *WriteBehind {
	eng := t.P.Node.Cluster.Eng
	wb := &WriteBehind{
		pipe:   pipe,
		writer: sim.NewWaitQueue(eng, "writebehind"),
		closer: sim.NewWaitQueue(eng, "writebehind.close"),
	}
	t.P.SpawnTask("writebehind", true, wb.run)
	return wb
}

// Queue adds a block of stored bytes to the writer's queue; it must not
// be called after Close.  land, when non-nil, runs on the writer task
// once the transfer carrying the block has ended (ok), or as the
// writer unwinds if it dies first (!ok); it must not block.
func (wb *WriteBehind) Queue(stored int64, land func(wt *Task, ok bool)) {
	wb.queue = append(wb.queue, writeBlock{stored, land})
	wb.writer.Wake(1)
}

// Close tells the stage that nothing more will be queued and blocks t
// until every queued block has landed.
func (wb *WriteBehind) Close(t *Task) {
	wb.closed = true
	wb.writer.Wake(1)
	for !wb.done {
		wb.closer.Wait(t.T)
	}
}

// run is the writer task.
func (wb *WriteBehind) run(t *Task) {
	start := t.Now()
	var bytes int64
	blocks, transfers := 0, 0
	defer func() {
		wb.done = true
		for _, b := range append(wb.batch, wb.queue...) {
			if b.land != nil {
				b.land(t, false)
			}
		}
		wb.batch, wb.queue = nil, nil
		wb.closer.WakeAll()
		t.Trace().Span(t.Host(), fmt.Sprintf("%s[%d] write", t.P.ProgName, t.P.Pid),
			"ckpt.write.disk", "ckpt", start, t.Now(), obs.A("stored_bytes", bytes),
			obs.A("blocks", int64(blocks)), obs.A("transfers", int64(transfers)))
	}()
	for {
		for len(wb.queue) == 0 && !wb.closed {
			wb.writer.Wait(t.T)
		}
		if len(wb.queue) == 0 {
			return
		}
		// Swap the buffers: the landed batch's backing array takes the
		// next blocks, so a steady stream allocates nothing.
		wb.batch, wb.queue = wb.queue, wb.batch[:0]
		var n int64
		for _, b := range wb.batch {
			n += b.stored
		}
		wb.pipe.Write(t.T, n)
		bytes += n
		blocks += len(wb.batch)
		transfers++
		for _, b := range wb.batch {
			if b.land != nil {
				b.land(t, true)
			}
		}
		clear(wb.batch) // drop the hooks
		wb.batch = wb.batch[:0]
	}
}
