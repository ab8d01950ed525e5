package kernel

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Addr is a TCP endpoint address.
type Addr struct {
	Host string
	Port int
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// ErrTimeout is returned by RecvTimeout when the deadline expires.
var ErrTimeout = errors.New("kernel: timed out")

// ListenSock is a listening socket (TCP port or UNIX path).
type ListenSock struct {
	kern    *Kernel
	kind    FileKind
	addr    Addr   // TCP
	path    string // UNIX
	backlog []*TCPEndpoint
	wq      *sim.WaitQueue
	closed  bool
}

// Addr returns the listener's address (TCP listeners).
func (ls *ListenSock) Addr() Addr { return ls.addr }

// Path returns the listener's path (UNIX listeners).
func (ls *ListenSock) Path() string { return ls.path }

func (ls *ListenSock) close() {
	if ls.closed {
		return
	}
	ls.closed = true
	switch ls.kind {
	case FKTCPListen:
		delete(ls.kern.tcpPorts, ls.addr.Port)
	case FKUnixListen:
		delete(ls.kern.unixPaths, ls.path)
	}
	for _, ep := range ls.backlog {
		ep.shutdown()
	}
	ls.backlog = nil
	ls.wq.WakeAll()
}

// TCPEndpoint is one side of an established stream connection (TCP or
// UNIX-domain; both use the same machinery, differing in latency).
// recvBuf models the kernel receive buffer that DMTCP's drain stage
// empties into user space.
type TCPEndpoint struct {
	node *Node
	kind FileKind // FKTCP or FKUnix

	peer *TCPEndpoint

	// Local and Remote are the connection's addresses as seen from
	// this side.
	Local, Remote Addr

	// ConnID identifies the kernel connection object (both ends
	// share it); it is not the DMTCP global socket ID.
	ConnID int64

	// recvBuf is owned by the kernel alone: an arrival adopts its
	// private copy of the sender's bytes as recvBuf when the buffer is
	// empty, or appends it and gives the copy's array back to the
	// cluster's free list; a read that takes every buffered byte hands
	// recvBuf itself to the reader and drops it.  No slice handed
	// across the Task API is referenced again by the side that gave it.
	recvBuf     []byte
	inflight    int64    // bytes scheduled for delivery into recvBuf
	lastArrival sim.Time // serialization point for FIFO delivery

	// parked holds frames a network partition is withholding from this
	// endpoint, in arrival order; HealFault re-injects them.  Parked
	// bytes count in inflight so senders see window backpressure.
	parked []parkedFrame

	closedLocal bool // this side shut down
	peerClosed  bool // FIN from peer delivered

	// resumer, when set, is the task completing a send that a
	// checkpoint interrupted (Task.ResumeSend).  Until it has, no other
	// user task's bytes go out on this stream, so the interrupted
	// write's tail precedes every later write, as it does when a thread
	// blocked in write() resumes mid-call.  The checkpoint manager's
	// drain (a daemon task) is exempt: its token belongs ahead of the
	// unsent tail, which a later checkpoint captures again.
	resumer *Task

	// tag carries wrapper metadata attached at connection setup (the
	// DMTCP connector→acceptor information transfer of §4.4, carried
	// with the connection rather than in-band so that peers without
	// wrappers are undisturbed).
	tag string

	readq  *sim.WaitQueue // readers waiting for data
	writeq *sim.WaitQueue // peer's writers waiting for space here
}

// Kind returns FKTCP or FKUnix.
func (ep *TCPEndpoint) Kind() FileKind { return ep.kind }

// Tag returns the wrapper metadata attached at connection setup.
func (ep *TCPEndpoint) Tag() string { return ep.tag }

// SetTag attaches wrapper metadata to this endpoint and its peer.
func (ep *TCPEndpoint) SetTag(tag string) {
	ep.tag = tag
	if ep.peer != nil {
		ep.peer.tag = tag
	}
}

// Buffered returns the bytes available in the receive buffer
// (ioctl FIONREAD).
func (ep *TCPEndpoint) Buffered() int { return len(ep.recvBuf) }

// InFlight returns bytes scheduled for delivery (on the wire).
func (ep *TCPEndpoint) InFlight() int64 { return ep.inflight }

// heldFrom reports whether a resumed send holds the stream against t.
func (ep *TCPEndpoint) heldFrom(t *Task) bool {
	return ep.resumer != nil && ep.resumer != t && !t.Daemon
}

func (c *Cluster) newEndpointPair(a, b *Node, kind FileKind, la, lb Addr) (*TCPEndpoint, *TCPEndpoint) {
	c.nextConnID++
	id := c.nextConnID
	e := c.Eng
	mk := func(n *Node, local, remote Addr, tag string) *TCPEndpoint {
		return &TCPEndpoint{
			node:   n,
			kind:   kind,
			Local:  local,
			Remote: remote,
			ConnID: id,
			readq:  sim.NewWaitQueue(e, fmt.Sprintf("conn%d.%s.rd", id, tag)),
			writeq: sim.NewWaitQueue(e, fmt.Sprintf("conn%d.%s.wr", id, tag)),
		}
	}
	epA := mk(a, la, lb, "a")
	epB := mk(b, lb, la, "b")
	epA.peer, epB.peer = epB, epA
	return epA, epB
}

// latency/bandwidth from the *sender's* node toward ep.
func (ep *TCPEndpoint) linkFrom(src *Node) (lat float64, bw float64) {
	return src.netDelayTo(ep.node)
}

// enqueue schedules delivery of g's bytes, as one segment, into ep's
// receive buffer, preserving FIFO order and modeling link
// serialization.
func (ep *TCPEndpoint) enqueue(src *Node, g gather) {
	c := ep.node.Cluster
	e := c.Eng
	if len(ep.parked) > 0 || c.linkPartitioned(src, ep.node) {
		// The link is partitioned (or earlier frames still are parked,
		// which FIFO must not let this frame overtake): hold the frame
		// until the fault heals.
		c.parkFrame(ep, src, g.appendTo(nil), false)
		return
	}
	n := g.len()
	lat, bw := ep.linkFrom(src)
	xfer := float64(n) / bw * 1e9 // ns
	if extra := c.faultExtraDelay(src, ep.node); extra > 0 {
		lat += float64(extra.Nanoseconds())
	}
	arrive := e.Now() + sim.Time(lat)
	if ep.lastArrival > arrive {
		arrive = ep.lastArrival
	}
	arrive += sim.Time(xfer)
	ep.lastArrival = arrive
	ep.inflight += int64(n)
	// The kernel's copy, into a recycled buffer when the segment is
	// large: the sender may reuse its slices once this returns.
	buf := g.appendTo(c.sockBuf(n))
	e.Schedule(arrive.Sub(e.Now()), func() {
		ep.inflight -= int64(len(buf))
		if ep.closedLocal {
			c.releaseBuf(buf)
			return // receiver gone; bytes dropped
		}
		if len(ep.recvBuf) == 0 {
			ep.recvBuf = buf
		} else {
			ep.recvBuf = append(ep.recvBuf, buf...)
			c.releaseBuf(buf)
		}
		ep.readq.WakeAll()
	})
}

// sendFIN schedules the peer-closed notification, ordered after all
// data already in flight.
func (ep *TCPEndpoint) sendFIN(src *Node) {
	c := ep.node.Cluster
	e := c.Eng
	if len(ep.parked) > 0 || c.linkPartitioned(src, ep.node) {
		// The FIN is ordered after parked data: park it too.
		c.parkFrame(ep, src, nil, true)
		return
	}
	lat, _ := ep.linkFrom(src)
	arrive := e.Now() + sim.Time(lat)
	if ep.lastArrival > arrive {
		arrive = ep.lastArrival
	}
	ep.lastArrival = arrive
	e.Schedule(arrive.Sub(e.Now()), func() {
		ep.peerClosed = true
		ep.readq.WakeAll()
		ep.writeq.WakeAll()
	})
}

// shutdown closes this side: readers see EOF once drained; the peer
// is notified in order.
func (ep *TCPEndpoint) shutdown() {
	if ep.closedLocal {
		return
	}
	ep.closedLocal = true
	ep.readq.WakeAll()
	ep.writeq.WakeAll()
	if ep.peer != nil && !ep.peer.closedLocal {
		ep.peer.sendFIN(ep.node)
	}
}

// --- Task-level socket API ------------------------------------------

// Socket creates an unconnected TCP stream socket.
func (t *Task) Socket() int {
	t.chargeSyscall()
	of := &OpenFile{Kind: FKTCP}
	fd := t.P.addFD(of, 3)
	if h := t.P.hooks; h != nil {
		h.PostSocket(t, fd, of)
	}
	return fd
}

// UnixSocket creates an unconnected UNIX-domain stream socket.
func (t *Task) UnixSocket() int {
	t.chargeSyscall()
	of := &OpenFile{Kind: FKUnix}
	fd := t.P.addFD(of, 3)
	if h := t.P.hooks; h != nil {
		h.PostSocket(t, fd, of)
	}
	return fd
}

// Bind assigns a local TCP port (0 picks an ephemeral port).
func (t *Task) Bind(fd, port int) error {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return err
	}
	if of.Kind != FKTCP {
		return ErrNotSocket
	}
	k := t.P.Kern
	if port == 0 {
		port = k.ephemeralPort()
	} else if _, used := k.tcpPorts[port]; used {
		return ErrAddrInUse
	}
	of.Listen = &ListenSock{
		kern: k,
		kind: FKTCPListen,
		addr: Addr{Host: t.P.Node.Hostname, Port: port},
		wq:   sim.NewWaitQueue(k.node.Cluster.Eng, fmt.Sprintf("listen:%d", port)),
	}
	if h := t.P.hooks; h != nil {
		h.PostBind(t, fd, of)
	}
	return nil
}

// Listen turns a bound socket into a listener.
func (t *Task) Listen(fd int) error {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return err
	}
	if of.Listen == nil {
		return ErrNotSocket
	}
	k := t.P.Kern
	switch of.Kind {
	case FKTCP:
		if _, used := k.tcpPorts[of.Listen.addr.Port]; used {
			return ErrAddrInUse
		}
		of.Kind = FKTCPListen
		k.tcpPorts[of.Listen.addr.Port] = of.Listen
	case FKUnix:
		if _, used := k.unixPaths[of.Listen.path]; used {
			return ErrAddrInUse
		}
		of.Kind = FKUnixListen
		k.unixPaths[of.Listen.path] = of.Listen
	default:
		return ErrNotSocket
	}
	if h := t.P.hooks; h != nil {
		h.PostListen(t, fd, of)
	}
	return nil
}

// ListenTCP is the bind+listen convenience used by servers.
func (t *Task) ListenTCP(port int) (int, error) {
	fd := t.Socket()
	if err := t.Bind(fd, port); err != nil {
		t.Close(fd)
		return -1, err
	}
	if err := t.Listen(fd); err != nil {
		t.Close(fd)
		return -1, err
	}
	return fd, nil
}

// BindUnix assigns a UNIX-domain path to the socket.
func (t *Task) BindUnix(fd int, path string) error {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return err
	}
	if of.Kind != FKUnix {
		return ErrNotSocket
	}
	k := t.P.Kern
	if _, used := k.unixPaths[path]; used {
		return ErrAddrInUse
	}
	of.Listen = &ListenSock{
		kern: k,
		kind: FKUnixListen,
		path: path,
		wq:   sim.NewWaitQueue(k.node.Cluster.Eng, "listen:"+path),
	}
	if h := t.P.hooks; h != nil {
		h.PostBind(t, fd, of)
	}
	return nil
}

// Connect establishes a TCP connection to addr, blocking for the
// handshake round trip.
func (t *Task) Connect(fd int, addr Addr) error {
	t.chargeSyscall()
	p := t.P
	of, err := p.FD(fd)
	if err != nil {
		return err
	}
	if of.Kind != FKTCP || of.TCP != nil {
		return ErrNotSocket
	}
	if h := p.hooks; h != nil {
		h.PreConnect(t, fd, of, addr)
	}
	c := p.Node.Cluster
	dst := c.LookupHost(addr.Host)
	lat, _ := p.Node.netDelayTo(dst)
	// SYN travels to the server.
	t.T.Sleep(sim.Time(lat).Duration())
	if dst == nil || dst.Down {
		return ErrConnRefused
	}
	if c.faultBlocksConnect(p.Node, dst) {
		// The handshake dies in the partition (SYN or SYN-ACK lost) or
		// in a refuse window: the caller sees a refused connection
		// after another round trip, same as a closed port.
		t.T.Sleep(sim.Time(lat).Duration())
		return ErrConnRefused
	}
	ls, ok := dst.Kern.tcpPorts[addr.Port]
	if !ok || ls.closed {
		t.T.Sleep(sim.Time(lat).Duration()) // RST comes back
		return ErrConnRefused
	}
	local := Addr{Host: p.Node.Hostname, Port: p.Kern.ephemeralPort()}
	epC, epS := c.newEndpointPair(p.Node, dst, FKTCP, local, addr)
	epC.tag, epS.tag = of.PendingTag, of.PendingTag
	ls.backlog = append(ls.backlog, epS)
	ls.wq.WakeAll()
	// SYN-ACK comes back.
	t.T.Sleep(sim.Time(lat).Duration())
	of.TCP = epC
	if h := p.hooks; h != nil {
		h.PostConnect(t, fd, of)
	}
	return nil
}

// ConnectUnix establishes a UNIX-domain connection to path on the
// local node.
func (t *Task) ConnectUnix(fd int, path string) error {
	t.chargeSyscall()
	p := t.P
	of, err := p.FD(fd)
	if err != nil {
		return err
	}
	if of.Kind != FKUnix || of.TCP != nil {
		return ErrNotSocket
	}
	ls, ok := p.Kern.unixPaths[path]
	if !ok || ls.closed {
		return ErrConnRefused
	}
	epC, epS := p.Node.Cluster.newEndpointPair(p.Node, p.Node, FKUnix,
		Addr{Host: p.Node.Hostname}, Addr{Host: p.Node.Hostname})
	epC.tag, epS.tag = of.PendingTag, of.PendingTag
	epC.Local.Host = path // diagnostic
	ls.backlog = append(ls.backlog, epS)
	ls.wq.WakeAll()
	t.T.Sleep(p.params().LoopbackLatency)
	of.TCP = epC
	if h := p.hooks; h != nil {
		h.PostConnect(t, fd, of)
	}
	return nil
}

// Accept blocks until a connection arrives on the listener and
// returns a new descriptor for it.
func (t *Task) Accept(fd int) (int, error) {
	t.chargeSyscall()
	p := t.P
	of, err := p.FD(fd)
	if err != nil {
		return -1, err
	}
	if !of.Kind.IsListener() || of.Listen == nil {
		return -1, ErrNotSocket
	}
	ls := of.Listen
	for len(ls.backlog) == 0 {
		if ls.closed {
			return -1, ErrClosed
		}
		if ls.wq.Wait(t.T) == sim.WakeInterrupt {
			t.T.ClearInterrupt()
			return -1, sim.ErrInterrupted
		}
	}
	ep := ls.backlog[0]
	ls.backlog = ls.backlog[1:]
	kind := FKTCP
	if of.Kind == FKUnixListen {
		kind = FKUnix
	}
	nof := &OpenFile{Kind: kind, TCP: ep}
	nfd := p.addFD(nof, 3)
	if h := p.hooks; h != nil {
		h.PostAccept(t, nfd, nof)
	}
	return nfd, nil
}

// SocketPair creates a connected pair of UNIX-domain sockets.
func (t *Task) SocketPair() (int, int) {
	t.chargeSyscall()
	p := t.P
	epA, epB := p.Node.Cluster.newEndpointPair(p.Node, p.Node, FKUnix,
		Addr{Host: p.Node.Hostname}, Addr{Host: p.Node.Hostname})
	ofA := &OpenFile{Kind: FKUnix, TCP: epA}
	ofB := &OpenFile{Kind: FKUnix, TCP: epB}
	a := p.addFD(ofA, 3)
	b := p.addFD(ofB, 3)
	if h := p.hooks; h != nil {
		h.PostSocketpair(t, a, b, ofA, ofB)
	}
	return a, b
}

// streamFor resolves fd to a connected endpoint.
func (t *Task) streamFor(fd int) (*TCPEndpoint, error) {
	of, err := t.P.FD(fd)
	if err != nil {
		return nil, err
	}
	switch of.Kind {
	case FKTCP, FKUnix, FKPtyMaster, FKPtySlave:
		if of.Kind == FKPtyMaster || of.Kind == FKPtySlave {
			return of.Pty.ep, nil
		}
		if of.TCP == nil {
			return nil, ErrNotConn
		}
		return of.TCP, nil
	default:
		return nil, ErrNotSocket
	}
}

// Send writes all of data to the stream, blocking as the receive
// window fills.
func (t *Task) Send(fd int, data []byte) (int, error) {
	return t.send(fd, gather{body: data})
}

// send is the blocking gather write behind Send and SendFrame: it
// queues g's bytes, head then body, in the same segments one
// contiguous slice would take.  The unsent remainder is the task's
// send continuation from before the first scheduling point, so a
// checkpoint can complete the stream exactly even if it lands before
// any byte has moved.
func (t *Task) send(fd int, g gather) (int, error) {
	t.sendFD, t.sendRest = fd, g
	defer t.clearSendContinuation()
	t.chargeSyscall()
	ep, err := t.streamFor(fd)
	if err != nil {
		return 0, err
	}
	bufCap := int(t.P.params().SocketBufBytes)
	sent := 0
	for t.sendRest.len() > 0 {
		peer := ep.peer
		if ep.closedLocal || peer == nil || peer.closedLocal {
			return sent, ErrClosed
		}
		space := bufCap - (len(peer.recvBuf) + int(peer.inflight))
		if space <= 0 || ep.heldFrom(t) {
			peer.writeq.Wait(t.T)
			continue
		}
		front, rest := t.sendRest.split(min(space, t.sendRest.len()))
		peer.enqueue(t.P.Node, front)
		sent += front.len()
		t.sendRest = rest
	}
	return sent, nil
}

// TrySend queues as much of head followed by body as the peer's
// receive window allows, as one segment, without blocking, and returns
// the byte count (possibly zero).  The drain stage uses it to
// interleave token sends across many sockets without deadlocking on
// full buffers (real DMTCP drains with non-blocking I/O under a poll
// loop); the MPI library sends a frame header and its payload with it,
// so neither is copied into a joined frame first.
func (t *Task) TrySend(fd int, head, body []byte) (int, error) {
	t.chargeSyscall()
	ep, err := t.streamFor(fd)
	if err != nil {
		return 0, err
	}
	peer := ep.peer
	if ep.closedLocal || peer == nil || peer.closedLocal {
		return 0, ErrClosed
	}
	space := int(t.P.params().SocketBufBytes) - (len(peer.recvBuf) + int(peer.inflight))
	if space <= 0 || ep.heldFrom(t) {
		return 0, nil
	}
	g := gather{head, body}
	front, _ := g.split(min(space, g.len()))
	peer.enqueue(t.P.Node, front)
	return front.len(), nil
}

// ResumeSend completes a send that a checkpoint interrupted (a
// SendCont restored from an image): a new task of t's process sends
// data on fd.  The stream is held for that task from this call on,
// before any scheduling point, so whatever the process's other tasks
// send on fd afterwards goes out after data: a library that replays
// from its last commit cannot slip a later frame into the middle of
// the interrupted one.
func (t *Task) ResumeSend(fd int, data []byte) {
	ep, err := t.streamFor(fd)
	sc := t.P.SpawnTask("send-cont", false, func(st *Task) {
		st.Send(fd, data)
		if err == nil && ep.resumer == st {
			ep.resumer = nil
			if ep.peer != nil {
				ep.peer.writeq.WakeAll()
			}
		}
	})
	if err == nil {
		ep.resumer = sc
	}
}

// Recv reads up to max buffered bytes, blocking until data arrives or
// the peer closes (io.EOF).  The result belongs to the caller, who may
// write into it or append to it; it may have spare capacity.  A caller
// done with its bytes may give it back with ReleaseBuf.
func (t *Task) Recv(fd int, max int) ([]byte, error) {
	return t.recv(fd, max, -1)
}

// RecvTimeout is Recv with a deadline; it returns ErrTimeout if no
// data arrives in time.
func (t *Task) RecvTimeout(fd int, max int, d sim.Time) ([]byte, error) {
	return t.recv(fd, max, d)
}

func (t *Task) recv(fd int, max int, timeout sim.Time) ([]byte, error) {
	t.chargeSyscall()
	ep, err := t.streamFor(fd)
	if err != nil {
		return nil, err
	}
	for {
		if len(ep.recvBuf) > 0 {
			n := max
			if n < 0 || n > len(ep.recvBuf) {
				n = len(ep.recvBuf)
			}
			var out []byte
			if n == len(ep.recvBuf) {
				// A full read hands the buffer itself over.
				out, ep.recvBuf = ep.recvBuf, nil
			} else {
				out = append([]byte(nil), ep.recvBuf[:n]...)
				ep.recvBuf = ep.recvBuf[n:]
			}
			// Space freed: wake senders blocked on our window.
			ep.writeq.WakeAll()
			return out, nil
		}
		if ep.peerClosed && ep.inflight == 0 {
			return nil, io.EOF
		}
		if ep.closedLocal {
			return nil, ErrClosed
		}
		var reason sim.WakeReason
		if timeout >= 0 {
			reason = ep.readq.WaitTimeout(t.T, timeout.Duration())
		} else {
			reason = ep.readq.Wait(t.T)
		}
		switch reason {
		case sim.WakeTimeout:
			return nil, ErrTimeout
		case sim.WakeInterrupt:
			t.T.ClearInterrupt()
			return nil, sim.ErrInterrupted
		}
	}
}

// RecvN blocks until exactly n bytes have been read (or an error).
// It gives each slice a read handed over back to the kernel once it
// has appended its bytes to the result.
func (t *Task) RecvN(fd, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		chunk, err := t.Recv(fd, n-len(out))
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
		t.ReleaseBuf(chunk)
	}
	return out, nil
}

// Avail returns the bytes immediately readable on fd (FIONREAD).
func (t *Task) Avail(fd int) (int, error) {
	ep, err := t.streamFor(fd)
	if err != nil {
		return 0, err
	}
	return len(ep.recvBuf), nil
}

// Unread pushes data back to the front of the endpoint's receive
// buffer.  The DMTCP refill stage uses it to return drained bytes to
// the kernel: the paper's protocol sends the data back to the sender,
// who re-sends it (§4.3 step 6); the state outcome is identical and
// the two network crossings are charged by the caller.
func (ep *TCPEndpoint) Unread(data []byte) {
	if len(data) == 0 {
		return
	}
	ep.recvBuf = append(append([]byte(nil), data...), ep.recvBuf...)
	ep.readq.WakeAll()
}

// RefillCost returns the modeled time for the paper's drain-data
// round trip: receiver sends the drained bytes back, sender re-sends
// them.
func (ep *TCPEndpoint) RefillCost(n int64) sim.Time {
	lat, bw := ep.linkFrom(ep.node)
	if ep.peer != nil {
		lat, bw = ep.linkFrom(ep.peer.node)
	}
	per := sim.Time(lat) + sim.Time(float64(n)/bw*1e9)
	return 2 * per
}
