package kernel

import (
	"errors"
	"fmt"

	"repro/internal/bin"
)

// Errors returned by descriptor operations.
var (
	ErrBadFD       = errors.New("kernel: bad file descriptor")
	ErrNotSocket   = errors.New("kernel: not a socket")
	ErrConnRefused = errors.New("kernel: connection refused")
	ErrAddrInUse   = errors.New("kernel: address already in use")
	ErrNotConn     = errors.New("kernel: not connected")
	ErrClosed      = errors.New("kernel: closed")
	ErrNotPty      = errors.New("kernel: not a pty")
)

// FileKind identifies what an open file description refers to.
type FileKind int

const (
	// FKFile is a regular file.
	FKFile FileKind = iota
	// FKConsole is the stdio console sink/source.
	FKConsole
	// FKTCP is a connected TCP stream endpoint.
	FKTCP
	// FKTCPListen is a TCP listener.
	FKTCPListen
	// FKUnix is a connected UNIX-domain stream endpoint.
	FKUnix
	// FKUnixListen is a UNIX-domain listener.
	FKUnixListen
	// FKPipeR and FKPipeW are the read/write ends of a real pipe.
	FKPipeR
	FKPipeW
	// FKPtyMaster and FKPtySlave are pseudo-terminal ends.
	FKPtyMaster
	FKPtySlave
)

func (k FileKind) String() string {
	switch k {
	case FKFile:
		return "file"
	case FKConsole:
		return "console"
	case FKTCP:
		return "tcp"
	case FKTCPListen:
		return "tcp-listen"
	case FKUnix:
		return "unix"
	case FKUnixListen:
		return "unix-listen"
	case FKPipeR:
		return "pipe-r"
	case FKPipeW:
		return "pipe-w"
	case FKPtyMaster:
		return "pty-master"
	case FKPtySlave:
		return "pty-slave"
	default:
		return "unknown"
	}
}

// IsListener reports whether the kind is a listening socket.
func (k FileKind) IsListener() bool { return k == FKTCPListen || k == FKUnixListen }

// OpenFile is an open file description — the kernel object that fd
// numbers point at.  fork() and dup2() share OpenFiles (reference
// counted), which is exactly the sharing DMTCP's FD-leader election
// exists to handle.
type OpenFile struct {
	Kind FileKind
	refs int

	// Owner holds the fcntl F_SETOWN owner pid.  DMTCP's election
	// misuses it for last-writer-wins leader election (§4.3 step 3).
	Owner Pid

	// Protected marks DMTCP-internal descriptors (the manager's
	// coordinator connection) that are excluded from checkpointing.
	Protected bool

	// CkptID is stamped by the DMTCP layer during checkpoint so that
	// descriptors sharing one description (dup/fork) are restored to
	// a single shared object at restart.
	CkptID int64

	// PendingTag is wrapper metadata staged by a PreConnect hook and
	// copied onto the endpoints when the connection is created.
	PendingTag string

	// Exactly one of the following is set, per Kind.
	File   *FileHandle
	TCP    *TCPEndpoint
	Listen *ListenSock
	Pipe   *PipeEnd
	Pty    *PtyEnd
	Cons   *Console
}

func (of *OpenFile) String() string {
	return fmt.Sprintf("openfile(%s refs=%d)", of.Kind, of.refs)
}

// Refs returns the current reference count.
func (of *OpenFile) Refs() int { return of.refs }

func (of *OpenFile) incref() *OpenFile { of.refs++; return of }

// decref releases one reference; at zero the underlying object is
// closed.
func (of *OpenFile) decref() {
	of.refs--
	if of.refs > 0 {
		return
	}
	switch of.Kind {
	case FKTCP, FKUnix:
		if of.TCP != nil {
			of.TCP.shutdown()
		}
	case FKTCPListen, FKUnixListen:
		if of.Listen != nil {
			of.Listen.close()
		}
	case FKPipeR:
		of.Pipe.Pipe.closeRead()
	case FKPipeW:
		of.Pipe.Pipe.closeWrite()
	case FKPtyMaster, FKPtySlave:
		of.Pty.close()
	}
}

// FileHandle is a per-description cursor over a Store file.
type FileHandle struct {
	Store  *Store
	Path   string
	Offset int64
}

// fdTable methods on Process.

// addFD installs of at the lowest free descriptor number ≥ min.
func (p *Process) addFD(of *OpenFile, min int) int {
	fd := min
	for {
		if _, used := p.fds[fd]; !used {
			break
		}
		fd++
	}
	p.fds[fd] = of.incref()
	return fd
}

// FD returns the open file at fd.
func (p *Process) FD(fd int) (*OpenFile, error) {
	of, ok := p.fds[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return of, nil
}

// FDs returns a copy of the descriptor table (fd → open file), the
// /proc/<pid>/fd view DMTCP probes.
func (p *Process) FDs() map[int]*OpenFile {
	out := make(map[int]*OpenFile, len(p.fds))
	for fd, of := range p.fds {
		out[fd] = of
	}
	return out
}

// SortedFDs returns descriptor numbers in ascending order.
func (p *Process) SortedFDs() []int { return bin.SortedKeys(p.fds) }

// InstallFD force-installs an open file at a specific descriptor
// number, closing whatever was there (restart-time plumbing).
func (p *Process) InstallFD(fd int, of *OpenFile) {
	if old, ok := p.fds[fd]; ok {
		old.decref()
	}
	p.fds[fd] = of.incref()
}

// fcntl commands.
const (
	FGetOwn = iota
	FSetOwn
)

// Fcntl implements the owner-pid subset of fcntl used by the election.
func (t *Task) Fcntl(fd, cmd int, arg Pid) (Pid, error) {
	t.charge(t.P.params().FcntlCost)
	of, err := t.P.FD(fd)
	if err != nil {
		return 0, err
	}
	switch cmd {
	case FSetOwn:
		of.Owner = arg
		return arg, nil
	case FGetOwn:
		return of.Owner, nil
	default:
		return 0, fmt.Errorf("kernel: unsupported fcntl cmd %d", cmd)
	}
}

// Close releases fd.
func (t *Task) Close(fd int) error {
	t.chargeSyscall()
	p := t.P
	of, ok := p.fds[fd]
	if !ok {
		return ErrBadFD
	}
	delete(p.fds, fd)
	of.decref()
	if p.hooks != nil {
		p.hooks.PostClose(t, fd)
	}
	return nil
}

// Dup2 duplicates oldfd onto newfd, closing newfd first if open.
func (t *Task) Dup2(oldfd, newfd int) error {
	t.chargeSyscall()
	p := t.P
	of, ok := p.fds[oldfd]
	if !ok {
		return ErrBadFD
	}
	if oldfd == newfd {
		return nil
	}
	if old, ok := p.fds[newfd]; ok {
		old.decref()
	}
	p.fds[newfd] = of.incref()
	if p.hooks != nil {
		p.hooks.PostDup2(t, oldfd, newfd)
	}
	return nil
}
