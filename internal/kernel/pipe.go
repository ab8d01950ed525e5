package kernel

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// PipeBuf is a classic unidirectional pipe buffer.
type PipeBuf struct {
	node        *Node
	buf         []byte
	cap         int
	readClosed  bool
	writeClosed bool
	rq, wq      *sim.WaitQueue
}

// PipeEnd is one half of a pipe.
type PipeEnd struct {
	Pipe    *PipeBuf
	ReadEnd bool
}

func (pb *PipeBuf) closeRead() {
	pb.readClosed = true
	pb.wq.WakeAll()
}

func (pb *PipeBuf) closeWrite() {
	pb.writeClosed = true
	pb.rq.WakeAll()
}

// Pipe creates a unidirectional pipe, unless a hook (DMTCP's pipe
// wrapper, §4.5) promotes it to a socketpair.
func (t *Task) Pipe() (r, w int) {
	if h := t.P.hooks; h != nil {
		if hr, hw, handled := h.PipeOverride(t); handled {
			return hr, hw
		}
	}
	return t.RawPipe()
}

// RawPipe always creates a real kernel pipe.
func (t *Task) RawPipe() (r, w int) {
	t.chargeSyscall()
	p := t.P
	e := p.Node.Cluster.Eng
	pb := &PipeBuf{
		node: p.Node,
		cap:  int(p.params().SocketBufBytes),
		rq:   sim.NewWaitQueue(e, "pipe.rq"),
		wq:   sim.NewWaitQueue(e, "pipe.wq"),
	}
	ofR := &OpenFile{Kind: FKPipeR, Pipe: &PipeEnd{Pipe: pb, ReadEnd: true}}
	ofW := &OpenFile{Kind: FKPipeW, Pipe: &PipeEnd{Pipe: pb}}
	r = p.addFD(ofR, 3)
	w = p.addFD(ofW, 3)
	return r, w
}

// PipeWrite writes data into a pipe write end.
func (t *Task) PipeWrite(fd int, data []byte) (int, error) {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return 0, err
	}
	if of.Kind != FKPipeW {
		return 0, ErrBadFD
	}
	pb := of.Pipe.Pipe
	sent := 0
	for sent < len(data) {
		if pb.readClosed {
			return sent, ErrClosed // EPIPE
		}
		space := pb.cap - len(pb.buf)
		if space <= 0 {
			pb.wq.Wait(t.T)
			continue
		}
		chunk := len(data) - sent
		if chunk > space {
			chunk = space
		}
		pb.buf = append(pb.buf, data[sent:sent+chunk]...)
		sent += chunk
		pb.rq.WakeAll()
	}
	return sent, nil
}

// PipeRead reads up to max bytes from a pipe read end.
func (t *Task) PipeRead(fd, max int) ([]byte, error) {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return nil, err
	}
	if of.Kind != FKPipeR {
		return nil, ErrBadFD
	}
	pb := of.Pipe.Pipe
	for {
		if len(pb.buf) > 0 {
			n := max
			if n > len(pb.buf) {
				n = len(pb.buf)
			}
			out := append([]byte(nil), pb.buf[:n]...)
			pb.buf = pb.buf[n:]
			pb.wq.WakeAll()
			return out, nil
		}
		if pb.writeClosed {
			return nil, io.EOF
		}
		pb.rq.Wait(t.T)
	}
}

// --- Pseudo-terminals ------------------------------------------------

// Termios is the subset of terminal modes DMTCP saves and restores.
type Termios struct {
	Echo   bool
	Canon  bool
	Rows   int
	Cols   int
	ISpeed int
	OSpeed int
}

// DefaultTermios matches a sane interactive terminal.
func DefaultTermios() Termios {
	return Termios{Echo: true, Canon: true, Rows: 24, Cols: 80, ISpeed: 38400, OSpeed: 38400}
}

// Pty is a pseudo-terminal pair.  The two directions are modeled with
// the same stream-endpoint machinery as sockets (loopback latency),
// so draining and refilling pty buffers works the same way.
type Pty struct {
	Num    int
	Name   string // slave path, e.g. /dev/pts/3
	Modes  Termios
	master *TCPEndpoint
	slave  *TCPEndpoint
	// CtrlOwner is the pid owning the controlling terminal.
	CtrlOwner Pid
	closed    bool
}

// PtyEnd is a descriptor's view of a pty.
type PtyEnd struct {
	Pty    *Pty
	Master bool
	ep     *TCPEndpoint
}

func (pe *PtyEnd) close() {
	if pe.ep != nil {
		pe.ep.shutdown()
	}
}

// Endpoint exposes the stream endpoint behind a pty end, letting the
// checkpointer drain and refill pty buffers like sockets.
func (pe *PtyEnd) Endpoint() *TCPEndpoint { return pe.ep }

// Openpt allocates a new pty and returns the master descriptor plus
// the slave name (posix_openpt + ptsname).
func (t *Task) Openpt() (int, string) {
	t.chargeSyscall()
	p := t.P
	k := p.Kern
	k.nextPtyNum++
	num := k.nextPtyNum
	epM, epS := p.Node.Cluster.newEndpointPair(p.Node, p.Node, FKUnix,
		Addr{Host: p.Node.Hostname}, Addr{Host: p.Node.Hostname})
	pty := &Pty{
		Num:    num,
		Name:   fmt.Sprintf("/dev/pts/%d", num),
		Modes:  DefaultTermios(),
		master: epM,
		slave:  epS,
	}
	k.ptys()[pty.Name] = pty
	of := &OpenFile{Kind: FKPtyMaster, Pty: &PtyEnd{Pty: pty, Master: true, ep: epM}}
	fd := p.addFD(of, 3)
	name := pty.Name
	if h := p.hooks; h != nil {
		name = h.PtsName(t, fd, name)
	}
	return fd, name
}

// OpenPts opens the slave side of a pty by name.
func (t *Task) OpenPts(name string) (int, error) {
	t.chargeSyscall()
	p := t.P
	pty, ok := p.Kern.ptys()[name]
	if !ok || pty.closed {
		return -1, ErrNoEnt
	}
	of := &OpenFile{Kind: FKPtySlave, Pty: &PtyEnd{Pty: pty, ep: pty.slave}}
	return p.addFD(of, 3), nil
}

// TcSetAttr sets terminal modes on a pty descriptor.
func (t *Task) TcSetAttr(fd int, modes Termios) error {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return err
	}
	if of.Pty == nil {
		return ErrNotPty
	}
	of.Pty.Pty.Modes = modes
	return nil
}

// TcGetAttr reads terminal modes from a pty descriptor.
func (t *Task) TcGetAttr(fd int) (Termios, error) {
	of, err := t.P.FD(fd)
	if err != nil {
		return Termios{}, err
	}
	if of.Pty == nil {
		return Termios{}, ErrNotPty
	}
	return of.Pty.Pty.Modes, nil
}

// SetCtrlTerminal records ownership of the controlling terminal.
func (t *Task) SetCtrlTerminal(fd int) error {
	of, err := t.P.FD(fd)
	if err != nil {
		return err
	}
	if of.Pty == nil {
		return ErrNotPty
	}
	of.Pty.Pty.CtrlOwner = t.P.Pid
	return nil
}

// --- Console ----------------------------------------------------------

// Console is the stdio sink attached to descriptors 0–2.
type Console struct {
	proc *Process
}

// NewConsole returns a fresh console open-file for p (restart-time
// stdio reconstruction).
func NewConsole(p *Process) *OpenFile {
	return &OpenFile{Kind: FKConsole, Cons: &Console{proc: p}}
}
