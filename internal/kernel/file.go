package kernel

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
)

// ErrNoEnt is returned for operations on missing files.
var ErrNoEnt = errors.New("kernel: no such file")

// Inode is a file in a node-local Store.  Data carries real bytes
// (checkpoint images, scripts, small app files); LogicalSize is the
// modeled on-disk size used for time and capacity accounting, which
// may far exceed len(Data) for synthetic large files.  Data changes in
// place only through WriteAt and Corrupt; Store.WriteFile replaces the
// whole inode.
type Inode struct {
	Path        string
	Data        []byte
	LogicalSize int64

	// memo is a decoding of Data cached by a layer above: see Memo.
	memo any
}

// Memo returns the decoding of Data that a layer above cached with
// SetMemo, or nil.  The chunk store caches each decoded manifest here
// (store.ManifestOf), so every reader of one manifest file shares one
// decoding.  WriteAt and Corrupt, the only in-place changes to Data,
// drop the memo, so it always decodes the current bytes; a file
// replaced by Store.WriteFile is a new inode with no memo, and the
// memo dies with its inode.  The value is shared by every reader and
// must be treated as read-only.
func (ino *Inode) Memo() any { return ino.memo }

// SetMemo caches v as the decoding of Data's current bytes.
func (ino *Inode) SetMemo(v any) { ino.memo = v }

// WriteAt writes p into Data at offset off, growing Data as needed,
// and drops the memo.
func (ino *Inode) WriteAt(off int64, p []byte) {
	end := off + int64(len(p))
	if int64(len(ino.Data)) < end {
		grown := make([]byte, end)
		copy(grown, ino.Data)
		ino.Data = grown
	}
	copy(ino.Data[off:end], p)
	ino.memo = nil
}

// Corrupt is the disk-fault injector: it flips one random bit of Data
// in place (or plants a garbage byte in an empty file), using the
// caller's seeded RNG, and drops the memo.
func (ino *Inode) Corrupt(rng *rand.Rand) {
	if len(ino.Data) == 0 {
		ino.WriteAt(0, []byte{0xff})
		return
	}
	i := rng.Intn(len(ino.Data))
	ino.WriteAt(int64(i), []byte{ino.Data[i] ^ 1<<uint(rng.Intn(8))})
}

// Size returns the accounted size: LogicalSize if set, else len(Data).
func (ino *Inode) Size() int64 {
	if ino.LogicalSize > 0 {
		return ino.LogicalSize
	}
	return int64(len(ino.Data))
}

// Store is a node-local filesystem: a flat path→inode map.  Paths
// under /san live on the cluster's central storage (shared namespace);
// the Store transparently routes them there so every node sees the
// same /san tree, like the paper's SAN+NFS arrangement.
type Store struct {
	node  *Node
	files map[string]*Inode
}

// NewStore returns an empty filesystem for node n.
func NewStore(n *Node) *Store {
	return &Store{node: n, files: make(map[string]*Inode)}
}

// sanStore returns the shared central-storage namespace, lazily
// anchored on node 0's store map.
func (s *Store) target(path string) map[string]*Inode {
	if strings.HasPrefix(path, "/san") && s.node != nil {
		return s.node.Cluster.nodes[0].FS.files
	}
	return s.files
}

// WriteFile creates or replaces a file.  logical may be 0 to account
// len(data) bytes.  Time is charged by the caller (see Task.WriteFile
// and the mtcp image writer), keeping policy out of the store.
func (s *Store) WriteFile(path string, data []byte, logical int64) *Inode {
	ino := &Inode{Path: path, Data: append([]byte(nil), data...), LogicalSize: logical}
	s.target(path)[path] = ino
	return ino
}

// ReadFile returns the inode at path.
func (s *Store) ReadFile(path string) (*Inode, error) {
	ino, ok := s.target(path)[path]
	if !ok {
		return nil, ErrNoEnt
	}
	return ino, nil
}

// Exists reports whether path exists.
func (s *Store) Exists(path string) bool {
	_, ok := s.target(path)[path]
	return ok
}

// ExistsIn reports whether the path dir+name exists; dir routes the
// lookup to central storage as a whole path's prefix would.  It builds
// the path in a stack buffer (indexing a map with string(b) does not
// allocate), so a caller probing many names in one directory builds
// no string per probe.
func (s *Store) ExistsIn(dir, name string) bool {
	var buf [128]byte
	path := append(append(buf[:0], dir...), name...)
	_, ok := s.target(dir)[string(path)]
	return ok
}

// Unlink removes path; missing files are ignored (like rm -f).
func (s *Store) Unlink(path string) {
	delete(s.target(path), path)
}

// List returns the paths under prefix, sorted.
func (s *Store) List(prefix string) []string {
	var out []string
	for p := range s.target(prefix) {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the accounted size of all local files.
func (s *Store) TotalBytes() int64 {
	var n int64
	for _, ino := range s.files {
		n += ino.Size()
	}
	return n
}
