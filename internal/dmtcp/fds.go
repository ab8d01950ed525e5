package dmtcp

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/mtcp"
)

// The descriptor module decides, per kind of descriptor, how a
// checkpoint records it (§4.3 stage 5), whether it is elected and
// drained (stages 3–4), how dmtcp_restart reopens it (§4.4 step 1) and
// points a restored process at it (step 4), and how drained bytes go
// back into the kernel (stage 6 and step 6).  Connections reconnect
// through the discovery service in restart step 2.  It also owns the
// image sections that carry the tables.

// FDKind classifies descriptor-table records in checkpoint images.
type FDKind int32

const (
	// FDConsole is a stdio descriptor.
	FDConsole FDKind = iota
	// FDFile is a regular file with a restore offset.
	FDFile
	// FDListener is a TCP listen socket.
	FDListener
	// FDUnixListener is a UNIX-domain listen socket.
	FDUnixListener
	// FDConn is a connected stream socket (TCP, UNIX, or promoted
	// pipe).
	FDConn
	// FDPtyMaster and FDPtySlave are pseudo-terminal ends.
	FDPtyMaster
	FDPtySlave
)

// FDRec is one descriptor-table entry stored in a checkpoint image
// (the connection information table of §4.4 plus file/pty records).
type FDRec struct {
	FD     int
	Kind   FDKind
	OFID   int64 // shared-description id: equal OFIDs restore to one object
	Owner  int64 // saved fcntl F_SETOWN value
	Path   string
	Offset int64
	Port   int
	GUID   string
	Accept bool
	Pty    string
	Modes  kernel.Termios
}

// ConnRec carries the bytes drained from one description's receive
// buffer for refill at restart, keyed by the description's OFID: both
// ends of a socketpair, a promoted pipe or a loopback connection share
// one GUID, but never one OFID.
type ConnRec struct {
	OFID    int64
	Drained []byte
}

// drainToken is the flush cookie sent through every socket at drain
// time (§4.3 step 4).
var drainToken = []byte("\x00\x01DMTCP-EOB\x01\x00")

// stampFDs stamps each checkpointed descriptor's description with its
// shared-description id (OFID), once, and saves its owner for stage 6
// to restore.
func (m *Manager) stampFDs(t *kernel.Task) map[int]kernel.Pid {
	owners := make(map[int]kernel.Pid)
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		if of := fds[fd]; !of.Protected {
			if of.CkptID == 0 {
				of.CkptID = m.sys.nextOFID()
			}
			owners[fd] = of.Owner
		}
	}
	return owners
}

// drainableFDs returns the descriptors participating in election and
// drain: connected stream sockets (incl. promoted pipes) and ptys.
func (m *Manager) drainableFDs(t *kernel.Task) []int {
	var out []int
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		of := fds[fd]
		if of.Protected {
			continue
		}
		switch of.Kind {
		case kernel.FKTCP, kernel.FKUnix:
			if of.TCP != nil && m.socks[of] != nil {
				out = append(out, fd)
			}
		case kernel.FKPtyMaster, kernel.FKPtySlave:
			out = append(out, fd)
		}
	}
	return out
}

// drainJob tracks one socket's drain progress.
type drainJob struct {
	fd       int
	tokenOut []byte
	buf      []byte
	done     bool
}

// drainAll flushes and drains the given descriptors concurrently:
// tokens are pushed with non-blocking sends and data is consumed as
// it arrives, so full buffers in either direction cannot deadlock the
// stage (§4.3 step 4).  It returns one record per descriptor, in
// order, and the descriptions they were drained from by OFID.
func (m *Manager) drainAll(t *kernel.Task, fds []int) ([]ConnRec, map[int64]*kernel.OpenFile) {
	jobs := make([]*drainJob, 0, len(fds))
	for _, fd := range fds {
		jobs = append(jobs, &drainJob{fd: fd, tokenOut: drainToken})
	}
	deadline := t.Now().Add(500 * time.Millisecond)
	for {
		alive := false
		progress := false
		for _, j := range jobs {
			if len(j.tokenOut) > 0 {
				n, err := t.TrySend(j.fd, nil, j.tokenOut)
				if err != nil {
					j.tokenOut = nil // peer gone; nothing to flush
				} else {
					j.tokenOut = j.tokenOut[n:]
					if n > 0 {
						progress = true
					}
				}
				if len(j.tokenOut) > 0 {
					alive = true
				}
			}
			if j.done {
				continue
			}
			avail, err := t.Avail(j.fd)
			if err != nil {
				j.done = true
				continue
			}
			if avail > 0 {
				data, err := t.Recv(j.fd, avail)
				if err == nil {
					j.buf = append(j.buf, data...)
					progress = true
				}
			}
			if bytes.HasSuffix(j.buf, drainToken) {
				j.buf = j.buf[:len(j.buf)-len(drainToken)]
				j.done = true
			} else {
				alive = true
			}
		}
		if !alive {
			break
		}
		if t.Now() > deadline {
			// Poll timeout: peers without a draining leader (e.g. a
			// pty with no process on the other end) give up here.
			break
		}
		if !progress {
			t.Idle(200 * time.Microsecond) // let in-flight data land
		}
	}
	conns := make([]ConnRec, len(jobs))
	objects := make(map[int64]*kernel.OpenFile, len(jobs))
	fdmap := t.P.FDs()
	for i, j := range jobs {
		of := fdmap[j.fd]
		conns[i] = ConnRec{OFID: of.CkptID, Drained: j.buf}
		objects[of.CkptID] = of
	}
	return conns, objects
}

// refill pushes drained bytes back into the receive buffers of the
// descriptions they were drained from, charging the paper's two
// network crossings (the receiver returns the data to the sender, who
// re-sends it): checkpoint stage 6 (§4.3) and restart step 6 (§4.4).
func refill(t *kernel.Task, conns []ConnRec, objects map[int64]*kernel.OpenFile) {
	for _, cr := range conns {
		of := objects[cr.OFID]
		if len(cr.Drained) == 0 || of == nil {
			continue
		}
		ep := of.TCP
		if of.Pty != nil {
			ep = of.Pty.Endpoint()
		}
		if ep != nil {
			t.Compute(ep.RefillCost(int64(len(cr.Drained))).Duration())
			ep.Unread(cr.Drained)
		}
	}
}

// fdTable builds the descriptor-table records stored in the image.
func (m *Manager) fdTable(t *kernel.Task, owners map[int]kernel.Pid) []FDRec {
	var out []FDRec
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		of := fds[fd]
		if of.Protected {
			continue
		}
		rec := FDRec{FD: fd, OFID: of.CkptID, Owner: int64(owners[fd])}
		switch of.Kind {
		case kernel.FKConsole:
			rec.Kind = FDConsole
		case kernel.FKFile:
			rec.Kind, rec.Path, rec.Offset = FDFile, of.File.Path, of.File.Offset
		case kernel.FKTCPListen:
			rec.Kind, rec.Port = FDListener, of.Listen.Addr().Port
		case kernel.FKUnixListen:
			rec.Kind, rec.Path = FDUnixListener, of.Listen.Path()
		case kernel.FKTCP, kernel.FKUnix:
			meta := m.socks[of]
			if meta == nil {
				continue // unmanaged socket: not restorable
			}
			rec.Kind, rec.GUID, rec.Accept = FDConn, string(meta.GUID), meta.Acceptor
		case kernel.FKPtyMaster, kernel.FKPtySlave:
			rec.Kind, rec.Pty, rec.Modes = FDPtySlave, of.Pty.Pty.Name, of.Pty.Pty.Modes
			if of.Kind == kernel.FKPtyMaster {
				rec.Kind = FDPtyMaster
			}
		default:
			continue
		}
		out = append(out, rec)
	}
	return out
}

// reopen recreates rec's object in the restart program (§4.4 step 1):
// a file at its offset, a listener on its port or path, or a pty under
// a new name, both ends of one old pty sharing a pair in ptys.  It
// returns nil for what this step does not reopen (connections wait for
// step 2; each process gets consoles of its own in step 4) and for what
// it cannot.
func reopen(t *kernel.Task, rec FDRec, ptys map[string][2]*kernel.OpenFile) *kernel.OpenFile {
	var fd int
	var err error
	switch rec.Kind {
	case FDFile:
		if !t.P.Node.FS.Exists(rec.Path) {
			t.P.Node.FS.WriteFile(rec.Path, nil, 0)
		}
		fd, err = t.Open(rec.Path)
	case FDListener:
		if fd, err = t.ListenTCP(rec.Port); err != nil {
			t.Printf("dmtcp_restart: rebind %d: %v\n", rec.Port, err)
		}
	case FDUnixListener:
		fd = t.UnixSocket()
		if t.BindUnix(fd, rec.Path) == nil {
			t.Listen(fd)
		}
	case FDPtyMaster, FDPtySlave:
		pair, ok := ptys[rec.Pty]
		if !ok {
			mfd, name := t.Openpt()
			sfd, err := t.OpenPts(name)
			if err != nil {
				return nil
			}
			t.TcSetAttr(mfd, rec.Modes)
			pair[0], _ = t.P.FD(mfd)
			pair[1], _ = t.P.FD(sfd)
			ptys[rec.Pty] = pair
		}
		if rec.Kind == FDPtyMaster {
			return pair[0]
		}
		return pair[1]
	default:
		return nil
	}
	if err != nil {
		return nil
	}
	of, _ := t.P.FD(fd)
	if rec.Kind == FDFile {
		of.File.Offset = rec.Offset
	}
	return of
}

// install points rec's descriptor in the manager's restored process at
// its object (§4.4 step 4): a console of its own, or what steps 1 and 2
// reopened.  A connection is the manager's again, under its GUID.
func (m *Manager) install(rec FDRec, objects map[int64]*kernel.OpenFile) {
	of := objects[rec.OFID]
	if rec.Kind == FDConsole {
		of = kernel.NewConsole(m.p)
	}
	if of == nil {
		return
	}
	of.Owner = kernel.Pid(rec.Owner)
	m.p.InstallFD(rec.FD, of)
	if rec.Kind == FDConn {
		m.socks[of] = &SockMeta{GUID: GUID(rec.GUID), Acceptor: rec.Accept}
	}
}

// Image Ext section keys.
const (
	extFDTable = "dmtcp.fdtable"
	extConns   = "dmtcp.conns"
	extPids    = "dmtcp.pids"
)

// writeSections stores the manager's tables in its image: the
// descriptor table, the drained buffers and the pid table.
func (m *Manager) writeSections(img *mtcp.Image, fds []FDRec, conns []ConnRec) {
	img.Ext[extFDTable] = encodeFDTable(fds)
	img.Ext[extConns] = encodeConns(conns)
	img.Ext[extPids] = encodePids(m.virtPid, m.pidTable)
}

// readSections decodes the loaded image's tables.
func (pi *procImage) readSections() error {
	var err error
	if b, ok := pi.img.Ext[extFDTable]; ok {
		if pi.fds, err = decodeFDTable(b); err != nil {
			return fmt.Errorf("%s: bad fd table: %w", pi.path, err)
		}
	}
	if b, ok := pi.img.Ext[extConns]; ok {
		if pi.conns, err = decodeConns(b); err != nil {
			return fmt.Errorf("%s: bad conn table: %w", pi.path, err)
		}
	}
	if b, ok := pi.img.Ext[extPids]; ok {
		if pi.vpid, pi.table, err = decodePids(b); err != nil {
			return fmt.Errorf("%s: bad pid table: %w", pi.path, err)
		}
	}
	return nil
}

// The least bytes one record of each table encodes to: a decoder
// fails a count the bytes left could not hold.
const (
	fdRecBytes   = 8 + 4 + 8 + 8 + 4 + 8 + 8 + 4 + 1 + 4 + 1 + 1 + 8 + 8
	connRecBytes = 8 + 4
	pidRecBytes  = 8 + 8
)

// Each table lists its fields once, in a code function over a
// bin.Coder; the encode and decode functions run it either way.

func encodeFDTable(recs []FDRec) []byte {
	c := bin.Encoding()
	codeFDTable(&c, &recs)
	return c.E.B
}

func decodeFDTable(b []byte) (recs []FDRec, err error) {
	c := bin.Decoding(b)
	codeFDTable(&c, &recs)
	return recs, c.D.Err
}

func codeFDTable(c *bin.Coder, recs *[]FDRec) {
	for i := range bin.List(c, recs, fdRecBytes) {
		r := &(*recs)[i]
		c.Int(&r.FD)
		bin.U32Of(c, &r.Kind)
		c.I64(&r.OFID)
		c.I64(&r.Owner)
		c.Str(&r.Path)
		c.I64(&r.Offset)
		c.Int(&r.Port)
		c.Str(&r.GUID)
		c.Bool(&r.Accept)
		c.Str(&r.Pty)
		c.Bool(&r.Modes.Echo)
		c.Bool(&r.Modes.Canon)
		c.Int(&r.Modes.Rows)
		c.Int(&r.Modes.Cols)
	}
}

func encodeConns(recs []ConnRec) []byte {
	c := bin.Encoding()
	codeConns(&c, &recs)
	return c.E.B
}

func decodeConns(b []byte) (recs []ConnRec, err error) {
	c := bin.Decoding(b)
	codeConns(&c, &recs)
	return recs, c.D.Err
}

func codeConns(c *bin.Coder, recs *[]ConnRec) {
	for i := range bin.List(c, recs, connRecBytes) {
		c.I64(&(*recs)[i].OFID)
		c.Bytes(&(*recs)[i].Drained)
	}
}

func encodePids(virt kernel.Pid, table map[kernel.Pid]kernel.Pid) []byte {
	c := bin.Encoding()
	codePids(&c, &virt, &table)
	return c.E.B
}

func decodePids(b []byte) (virt kernel.Pid, table map[kernel.Pid]kernel.Pid, err error) {
	c := bin.Decoding(b)
	table = make(map[kernel.Pid]kernel.Pid)
	codePids(&c, &virt, &table)
	return virt, table, c.D.Err
}

func codePids(c *bin.Coder, virt *kernel.Pid, table *map[kernel.Pid]kernel.Pid) {
	c.Int((*int)(virt))
	for _, k := range bin.Map(c, table, pidRecBytes) {
		c.Int((*int)(&k))
		v := (*table)[k]
		c.Int((*int)(&v))
		bin.Put(c, *table, k, v)
	}
}
