package kernel

import (
	"io"

	"repro/internal/model"
)

// Open opens an existing file for reading/writing.
func (t *Task) Open(path string) (int, error) {
	t.chargeSyscall()
	p := t.P
	if !p.Node.FS.Exists(path) {
		return -1, ErrNoEnt
	}
	of := &OpenFile{Kind: FKFile, File: &FileHandle{Store: p.Node.FS, Path: path}}
	return p.addFD(of, 3), nil
}

// Create creates (or truncates) a file and opens it.
func (t *Task) Create(path string) (int, error) {
	t.chargeSyscall()
	p := t.P
	p.Node.FS.WriteFile(path, nil, 0)
	of := &OpenFile{Kind: FKFile, File: &FileHandle{Store: p.Node.FS, Path: path}}
	return p.addFD(of, 3), nil
}

// Write appends data at the descriptor's offset, charging disk time
// through the node's write path for the mount.
func (t *Task) Write(fd int, data []byte) (int, error) {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return 0, err
	}
	switch of.Kind {
	case FKFile:
		fh := of.File
		ino, err := fh.Store.ReadFile(fh.Path)
		if err != nil {
			return 0, err
		}
		t.P.Node.WritePipeFor(fh.Path).Write(t.T, int64(len(data)))
		ino.WriteAt(fh.Offset, data)
		fh.Offset += int64(len(data))
		return len(data), nil
	case FKConsole:
		t.P.Stdout.Write(data)
		return len(data), nil
	case FKTCP, FKUnix, FKPtyMaster, FKPtySlave:
		return t.Send(fd, data)
	case FKPipeW:
		return t.PipeWrite(fd, data)
	default:
		return 0, ErrBadFD
	}
}

// Read reads up to max bytes from the descriptor.
func (t *Task) Read(fd, max int) ([]byte, error) {
	t.chargeSyscall()
	of, err := t.P.FD(fd)
	if err != nil {
		return nil, err
	}
	switch of.Kind {
	case FKFile:
		fh := of.File
		ino, err := fh.Store.ReadFile(fh.Path)
		if err != nil {
			return nil, err
		}
		if fh.Offset >= int64(len(ino.Data)) {
			return nil, io.EOF
		}
		end := fh.Offset + int64(max)
		if end > int64(len(ino.Data)) {
			end = int64(len(ino.Data))
		}
		t.P.Node.ReadPipeFor(fh.Path).Read(t.T, end-fh.Offset)
		out := append([]byte(nil), ino.Data[fh.Offset:end]...)
		fh.Offset = end
		return out, nil
	case FKTCP, FKUnix, FKPtyMaster, FKPtySlave:
		return t.Recv(fd, max)
	case FKPipeR:
		return t.PipeRead(fd, max)
	case FKConsole:
		return nil, io.EOF
	default:
		return nil, ErrBadFD
	}
}

// WriteFileAll writes a whole file charging disk time (shell-style
// convenience used by programs and the DMTCP script writer).
func (t *Task) WriteFileAll(path string, data []byte, logical int64) {
	n := logical
	if n == 0 {
		n = int64(len(data))
	}
	t.P.Node.WritePipeFor(path).Write(t.T, n)
	t.P.Node.FS.WriteFile(path, data, logical)
}

// --- Shared memory (mmap MAP_SHARED, §4.5) ---------------------------

// NewShmSegment creates a shared segment (with its backing file) on a
// node without attaching it to any process.  The DMTCP restart path
// uses it to re-create missing backing files per the §4.5 rules.
func (c *Cluster) NewShmSegment(node *Node, backing string, bytes int64, class model.MemClass) *ShmSegment {
	c.nextShmID++
	seg := &ShmSegment{
		ID:      c.nextShmID,
		Node:    node,
		Backing: backing,
		Bytes:   bytes,
		Class:   class,
	}
	if !node.FS.Exists(backing) {
		node.FS.WriteFile(backing, nil, bytes)
	}
	return seg
}

// ShmCreate creates a shared segment backed by a file, maps it, and
// returns the segment.
func (t *Task) ShmCreate(backing string, bytes int64, class model.MemClass) *ShmSegment {
	t.chargeSyscall()
	p := t.P
	seg := p.Node.Cluster.NewShmSegment(p.Node, backing, bytes, class)
	seg.Attach(p.Mem, backing)
	return seg
}

// MapAnon maps anonymous memory into the process.
func (t *Task) MapAnon(name string, bytes int64, class model.MemClass) *VMArea {
	t.chargeSyscall()
	return t.P.Mem.MapAnon(name, bytes, class)
}

// MapLib maps a shared-library area (text) into the process; it
// contributes to checkpoint image size like any other area.
func (t *Task) MapLib(name string, bytes int64) *VMArea {
	return t.P.Mem.Map(&VMArea{Name: name, Kind: AreaText, Bytes: bytes, Class: model.ClassText})
}
