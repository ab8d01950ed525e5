// Package mpi implements a message-passing library over the simulated
// kernel's TCP sockets, plus the MPICH2 (MPD ring) and OpenMPI (ORTE)
// style launchers the paper checkpoints transparently (§5.2).
//
// # Checkpoint-exact messaging
//
// Real DMTCP restores threads mid-system-call, so MPI libraries need
// no cooperation.  This reproduction cannot capture goroutine stacks
// (see the resumable-program convention on kernel.Resumable), so the
// library provides the equivalent guarantee itself: message streams
// are exactly-once across restart.  Three mechanisms combine:
//
//   - the kernel completes interrupted sends at restart (send
//     continuations) ahead of any later send on the same stream, so
//     the byte stream is exact;
//   - received bytes are appended to a per-peer reassembly log in the
//     same atomic step as the read (no scheduling point between them,
//     not even a wait for a pending checkpoint).
//     The World is its process's kernel.StateSource: the log and
//     cursors stay live in the library, and the kernel encodes them
//     into process memory only when a checkpoint or fork reads it;
//   - the application's control state commits together with the log's
//     consumption offset (Commit), and send calls replayed after a
//     rollback are suppressed by comparing the per-channel call count
//     against the committed on-wire count.
//
// The result: after any checkpoint/kill/restart, a rank re-executes
// from its last Commit, re-observes exactly the messages it had not
// yet consumed, and duplicates none of its sends.
package mpi

import (
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sim"
)

// BasePort is the first rank listener port; rank r listens on
// BasePort+r on its node.
const BasePort = 30000

// Layout describes how ranks map onto the cluster.
type Layout struct {
	Size     int // number of ranks
	PerNode  int // ranks per node (paper: 4, one per core)
	BaseNode int // first node index used
	Port     int // listener port base
}

// HostOf returns the hostname for a rank under block placement.
func (l Layout) HostOf(rank int) string {
	return fmt.Sprintf("node%02d", l.BaseNode+rank/l.PerNode)
}

// PortOf returns the listener port for a rank.
func (l Layout) PortOf(rank int) int {
	p := l.Port
	if p == 0 {
		p = BasePort
	}
	return p + rank
}

func (l Layout) encode(e *bin.Encoder) {
	e.Int(l.Size)
	e.Int(l.PerNode)
	e.Int(l.BaseNode)
	e.Int(l.Port)
}

func decodeLayout(d *bin.Decoder) Layout {
	return Layout{Size: d.Int(), PerNode: d.Int(), BaseNode: d.Int(), Port: d.Int()}
}

// chanState is the persistent per-peer channel state.
type chanState struct {
	fd int // connection descriptor (stable across restart)

	// rx is the reassembly log: every byte received from the peer
	// and not yet discarded by a Commit.  It is the rollback record,
	// so nothing outside the World ever aliases it: it adopts only
	// slices the kernel handed over, readers copy out of it, and an
	// array it drops, outgrows or empties goes back to the kernel
	// (commitRx, Commit), after which the World never references it
	// again.
	rx []byte
	// rxCommitted is the log offset the application had consumed at
	// its last Commit; live consumption runs ahead in memory only.
	rxCommitted int

	// sentWire counts messages committed to the wire (incremented
	// before each physical send, so an interrupted send — completed
	// by the restart continuation — is never duplicated).
	sentWire int
	// sentAtCommit is the send-call count at the last Commit; replayed
	// calls between sentAtCommit and sentWire are suppressed.
	sentAtCommit int

	// live (unserialized) state, rebuilt at restore:
	rxLive   int // live consumption offset
	sentLive int // live send-call count
}

// World is one rank's view of the communicator.
type World struct {
	T      *kernel.Task
	Rank   int
	Layout Layout

	chans    map[int]*chanState
	peers    []int // sorted peer ranks with established channels
	listenFD int

	app []byte // application state section, opaque to the library

	accepted map[int]int // inbound rank → fd (handshook, unclaimed)
	acceptW  *sim.WaitQueue

	// head is the scratch every Send encodes its 12-byte frame header
	// into; the payload goes out of the caller's slice.  One suffices:
	// the kernel copies the bytes TrySend queues, progressSend clears
	// the send continuation before it returns (a checkpoint captures a
	// copy of it), and a World's sends never nest, because progressSend
	// only receives while it waits.
	head [12]byte
}

// Size returns the communicator size.
func (w *World) Size() int { return w.Layout.Size }

// parseFrame reads one frame (tag, length, payload; the sender is
// known from the channel) from buf, returning the tag, payload,
// and bytes consumed (0 if incomplete).
func parseFrame(buf []byte) (tag int, data []byte, n int) {
	if len(buf) < 12 {
		return 0, nil, 0
	}
	d := &bin.Decoder{B: buf}
	tag = d.Int()
	ln := int(d.U32())
	total := 8 + 4 + ln
	if len(buf) < total {
		return 0, nil, 0
	}
	return tag, buf[12 : 12+ln : 12+ln], total
}

// Init creates the world for this rank and establishes channels to
// the given peers (deterministically: the higher rank connects, the
// lower accepts).  peers must list every rank this rank will ever
// talk to; collectives add their tree/ring neighbors automatically
// via PeersFor helpers.
func Init(t *kernel.Task, rank int, layout Layout, peers []int) (*World, error) {
	w := &World{
		T:        t,
		Rank:     rank,
		Layout:   layout,
		chans:    make(map[int]*chanState),
		accepted: make(map[int]int),
	}
	w.acceptW = sim.NewWaitQueue(t.P.Node.Cluster.Eng, fmt.Sprintf("mpi.accept.%d", rank))
	t.P.SetStateSource(w)
	lfd, err := t.ListenTCP(layout.PortOf(rank))
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen: %w", rank, err)
	}
	w.listenFD = lfd
	w.startAcceptLoop()

	sorted := append([]int(nil), peers...)
	insertionSort(sorted)
	for _, p := range sorted {
		if p == rank {
			continue
		}
		w.peers = append(w.peers, p)
	}
	// Outbound connections to lower ranks.
	for _, p := range w.peers {
		if p > rank {
			continue
		}
		fd, err := w.dial(p)
		if err != nil {
			return nil, err
		}
		w.chans[p] = &chanState{fd: fd}
	}
	// Inbound from higher ranks.
	for _, p := range w.peers {
		if p < rank {
			continue
		}
		fd := w.awaitInbound(p)
		w.chans[p] = &chanState{fd: fd}
	}
	return w, nil
}

// dial connects to a peer's listener with retry (it may not be up
// yet) and sends the identification handshake.
func (w *World) dial(p int) (int, error) {
	addr := kernel.Addr{Host: w.Layout.HostOf(p), Port: w.Layout.PortOf(p)}
	for attempt := 0; ; attempt++ {
		fd := w.T.Socket()
		err := w.T.Connect(fd, addr)
		if err == nil {
			var e bin.Encoder
			e.Int(w.Rank)
			if err := w.T.SendFrame(fd, e.B); err != nil {
				return -1, err
			}
			return fd, nil
		}
		w.T.Close(fd)
		if attempt > 2000 {
			return -1, fmt.Errorf("mpi: rank %d cannot reach rank %d at %v: %w", w.Rank, p, addr, err)
		}
		w.T.Compute(time.Millisecond)
	}
}

// startAcceptLoop launches the listener thread that handshakes
// inbound rank connections.
func (w *World) startAcceptLoop() {
	lfd := w.listenFD
	w.T.P.SpawnTask("mpi-accept", false, func(a *kernel.Task) {
		for {
			cfd, err := a.Accept(lfd)
			if err != nil {
				return
			}
			hs, err := a.RecvFrame(cfd)
			if err != nil {
				continue
			}
			d := &bin.Decoder{B: hs}
			from := d.Int()
			w.accepted[from] = cfd
			w.acceptW.WakeAll()
		}
	})
}

// awaitInbound blocks until the accept loop delivers a connection
// from rank p.
func (w *World) awaitInbound(p int) int {
	for {
		if fd, ok := w.accepted[p]; ok {
			delete(w.accepted, p)
			return fd
		}
		w.acceptW.Wait(w.T.T)
	}
}

// insertionSort keeps the package dependency-free.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// --- persistence ------------------------------------------------------

// StateLen implements kernel.StateSource: the length of AppendState's
// encoding (rank, four layout ints, listener fd, peer count; per peer
// rank, fd, length-prefixed log and three cursors; length-prefixed app
// state).
func (w *World) StateLen() int {
	n := 6*8 + 4
	for _, p := range w.peers {
		n += 5*8 + 4 + len(w.chans[p].rx)
	}
	return n + 4 + len(w.app)
}

// AppendState implements kernel.StateSource: it encodes the library
// and application state that Resume rebuilds a World from.  The
// encoded fields change only together with StateChanged, with no
// scheduling point in between (Send, commitRx, Commit).
func (w *World) AppendState(dst []byte) []byte {
	e := bin.Encoder{B: dst}
	e.Int(w.Rank)
	w.Layout.encode(&e)
	e.Int(w.listenFD)
	e.U32(uint32(len(w.peers)))
	for _, p := range w.peers {
		ch := w.chans[p]
		e.Int(p)
		e.Int(ch.fd)
		e.Bytes(ch.rx)
		e.Int(ch.rxCommitted)
		e.Int(ch.sentWire)
		e.Int(ch.sentAtCommit)
	}
	e.Bytes(w.app)
	return e.B
}

// Resume reconstructs a World inside a restored process and returns
// the application state as of its last Commit.
func Resume(t *kernel.Task, state []byte) (*World, []byte, error) {
	d := &bin.Decoder{B: state}
	w := &World{
		T:        t,
		chans:    make(map[int]*chanState),
		accepted: make(map[int]int),
	}
	w.Rank = d.Int()
	w.Layout = decodeLayout(d)
	w.listenFD = d.Int()
	n := int(d.U32())
	for i := 0; i < n; i++ {
		p := d.Int()
		ch := &chanState{
			fd:           d.Int(),
			rx:           d.Bytes(),
			rxCommitted:  d.Int(),
			sentWire:     d.Int(),
			sentAtCommit: d.Int(),
		}
		// Live cursors resume from the committed positions.
		ch.rxLive = ch.rxCommitted
		ch.sentLive = ch.sentAtCommit
		w.peers = append(w.peers, p)
		w.chans[p] = ch
	}
	w.app = d.Bytes()
	if d.Err != nil {
		return nil, nil, fmt.Errorf("mpi: corrupt state: %w", d.Err)
	}
	w.acceptW = sim.NewWaitQueue(t.P.Node.Cluster.Eng, fmt.Sprintf("mpi.accept.%d", w.Rank))
	t.P.SetStateSource(w)
	w.startAcceptLoop()
	return w, w.app, nil
}

// Commit atomically persists the application state together with the
// library's consumption cursors; this is the rollback point a restart
// returns to.
func (w *World) Commit(appState []byte) {
	w.T.BeginCritical()
	w.app = append(w.app[:0], appState...)
	for _, p := range w.peers {
		ch := w.chans[p]
		// Discard consumed log bytes in place (every reader copies out
		// of the log) and advance committed cursors.  A log this
		// empties gives its array back to the kernel while the copy
		// out of it is recent, so the next send's kernel copy writes
		// cache-warm memory.
		ch.rx = ch.rx[:copy(ch.rx, ch.rx[ch.rxLive:])]
		if len(ch.rx) == 0 {
			w.T.ReleaseBuf(ch.rx)
			ch.rx = nil
		}
		ch.rxCommitted = 0
		ch.rxLive = 0
		ch.sentAtCommit = ch.sentLive
	}
	w.T.P.StateChanged()
	w.T.EndCritical()
}

// AppState returns the state from the last Commit.
func (w *World) AppState() []byte { return w.app }

// --- messaging --------------------------------------------------------

// Send transmits a tagged message to a peer, exactly once across
// restarts: replayed calls are suppressed, and the on-wire count is
// committed before bytes move so an interrupted send (completed by
// the restart continuation) is never re-sent.
func (w *World) Send(to, tag int, data []byte) {
	ch := w.chans[to]
	if ch == nil {
		panic(fmt.Sprintf("mpi: rank %d has no channel to %d", w.Rank, to))
	}
	ch.sentLive++
	if ch.sentLive <= ch.sentWire {
		return // replay of a send already on the wire
	}
	w.T.BeginCritical()
	ch.sentWire++
	w.T.P.StateChanged()
	w.T.EndCritical()
	// Raw library framing (parseFrame delimits): the header and the
	// caller's payload go to the kernel as one gather send, so the
	// payload is copied only by the kernel.  An interrupted send is
	// completed by the restart continuation.
	e := bin.Encoder{B: w.head[:0]}
	e.Int(tag)
	e.U32(uint32(len(data)))
	w.progressSend(ch, e.B, data)
}

// progressSend pushes the frame head‖body without ever blocking on a
// full window: while the peer's receive buffer is full it services
// inbound traffic instead (the MPI progress engine), so symmetric
// exchanges larger than the kernel socket buffers cannot deadlock.
func (w *World) progressSend(ch *chanState, head, body []byte) {
	// Register the remainder as a send continuation so a checkpoint
	// taken mid-progress restores a byte-exact stream (the on-wire
	// counter was already committed by the caller).
	w.T.SetSendContinuation(ch.fd, head, body)
	defer w.T.SetSendContinuation(ch.fd, nil, nil)
	for {
		n, err := w.T.TrySend(ch.fd, head, body)
		if err != nil {
			return
		}
		if n < len(head) {
			head = head[n:]
		} else {
			body, head = body[n-len(head):], nil
		}
		w.T.SetSendContinuation(ch.fd, head, body)
		if len(head)+len(body) == 0 {
			return
		}
		w.pumpAny()
	}
}

// pumpAny makes progress on any channel with readable data, or waits
// briefly for in-flight traffic to land.
func (w *World) pumpAny() {
	moved := false
	for _, p := range w.peers {
		ch := w.chans[p]
		if avail, err := w.T.Avail(ch.fd); err == nil && avail > 0 {
			data, err := w.T.Recv(ch.fd, avail)
			if err != nil {
				continue
			}
			w.commitRx(ch, data)
			moved = true
		}
	}
	if !moved {
		w.T.Compute(300 * time.Microsecond)
	}
}

// commitRx appends received bytes to the reassembly log atomically.
// data is a slice the kernel handed over, and the caller does not
// touch it again.  The log keeps an array that already has room when
// it can: an empty log (Commit gave its array back) adopts data
// instead of copying it; a log whose array is too small for data moves
// into data's array when that one has room (the second part of a frame
// the window split lands in a recycled window-sized buffer); only when
// neither has room does the append allocate.  Every array the log
// drops or copied out of goes back to the kernel and is never
// referenced again: nothing outside the World aliases the log.
//
// commitRx takes no critical section.  The bytes it holds exist
// nowhere else, so it must not wait for a pending checkpoint, as
// BeginCritical would: a checkpoint taken during that wait would find
// them neither in the kernel (for the drain) nor in the log (for the
// state), and a restart would lose them.  No checkpoint can split the
// read from the append anyway: the caller hands data over with no
// scheduling point in between, and there is none in here.
func (w *World) commitRx(ch *chanState, data []byte) {
	old, n := ch.rx, len(ch.rx)+len(data)
	switch {
	case len(old) == 0:
		ch.rx = data
	case cap(old) >= n:
		ch.rx = append(old, data...)
		w.T.ReleaseBuf(data)
	case cap(data) >= n:
		ch.rx = data[:n]
		copy(ch.rx[len(old):], data)
		copy(ch.rx, old)
		w.T.ReleaseBuf(old)
	default:
		ch.rx = append(old, data...)
		w.T.ReleaseBuf(old)
		w.T.ReleaseBuf(data)
	}
	w.T.P.StateChanged()
}

// Message is a received tagged payload.
type Message struct {
	Tag  int
	Data []byte
}

// anyTag makes recv accept a message whatever its tag.
const anyTag = -1

// RecvAny returns the next message from a peer regardless of tag
// (TOP-C style task/stop dispatch).
func (w *World) RecvAny(from int) (Message, error) {
	return w.recv(from, anyTag, nil)
}

// Recv returns the next message from a peer, blocking as needed.  It
// verifies the tag (channels are FIFO and our kernels' exchanges are
// deterministic).
func (w *World) Recv(from, tag int) ([]byte, error) {
	m, err := w.recv(from, tag, nil)
	return m.Data, err
}

// recv is the one receive path: it waits for the next message from a
// peer and copies its payload out of the reassembly log into buf's
// backing array, or a new array when buf is too small.  Copying keeps
// the log, the rollback record, unaliased by the caller.
func (w *World) recv(from, tag int, buf []byte) (Message, error) {
	ch := w.chans[from]
	if ch == nil {
		return Message{}, fmt.Errorf("mpi: rank %d has no channel to %d", w.Rank, from)
	}
	for {
		gotTag, data, n := parseFrame(ch.rx[ch.rxLive:])
		if n > 0 {
			if tag != anyTag && gotTag != tag {
				return Message{}, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d", w.Rank, tag, from, gotTag)
			}
			ch.rxLive += n
			return Message{Tag: gotTag, Data: append(buf[:0], data...)}, nil
		}
		if err := w.pumpFor(ch); err != nil {
			return Message{}, err
		}
	}
}

// pumpFor waits for bytes on the awaited channel but keeps servicing
// the other channels while blocked, so stalled senders elsewhere can
// always make progress (no cyclic waits among ranks).  Each read goes
// into the log with no scheduling point in between, so a checkpoint
// can never split them.
func (w *World) pumpFor(ch *chanState) error {
	data, err := w.T.RecvTimeout(ch.fd, 1<<20, sim.Time(2*time.Millisecond))
	if err == nil {
		w.commitRx(ch, data)
		return nil
	}
	if err != kernel.ErrTimeout {
		return err
	}
	w.pumpAny()
	return nil
}

// Sendrecv performs the symmetric neighbor exchange common to the NAS
// kernels.  Like MPI_Sendrecv's recvbuf, in receives the message: the
// result reuses in's backing array when the message fits, so a loop
// that passes the previous result back allocates nothing.  The World
// keeps no reference to out or in, and the caller may overwrite either
// before its next Commit: a replay re-reads the logged bytes.
func (w *World) Sendrecv(peer, tag int, out, in []byte) ([]byte, error) {
	w.Send(peer, tag, out)
	m, err := w.recv(peer, tag, in)
	return m.Data, err
}

// Finalize closes rank channels (the listener stays until exit).
func (w *World) Finalize() {
	for _, p := range w.peers {
		w.T.Close(w.chans[p].fd)
	}
}

// ComputeFor charges local computation time.
func (w *World) ComputeFor(d time.Duration) { w.T.Compute(d) }

// SetupMemory maps the rank's memory footprint: code+libs plus the
// benchmark's data arrays.
func (w *World) SetupMemory(libBytes, dataBytes int64, class model.MemClass) {
	w.T.MapLib("/usr/lib/mpi-libs.so", libBytes)
	w.T.MapAnon("[heap]", dataBytes, class)
}
