package kernel

import (
	"errors"
	"math/rand"
	"slices"
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

// Store is a node-local filesystem: a flat path→inode map.  Paths on
// central storage (IsSANPath) live in one namespace the cluster owns;
// every node's Store routes them there, so all nodes see the same /san
// tree, like the paper's SAN+NFS arrangement.  Each namespace keeps
// its paths sorted, so List costs only what it returns.
type Store struct {
	node  *Node // nil for the central namespace
	files map[string]*Inode
	paths []string // the keys of files, sorted
}

// NewStore returns an empty filesystem for node n, or the central
// namespace when n is nil.
func NewStore(n *Node) *Store {
	return &Store{node: n, files: make(map[string]*Inode)}
}

// IsSANPath reports whether path lives on the cluster's central
// storage: /san itself or anything under /san/.  Central files are
// visible from every node and survive any node's death; everything
// else is local to the node that wrote it.
func IsSANPath(path string) bool {
	return strings.HasPrefix(path, "/san") && (len(path) == 4 || path[4] == '/')
}

// target returns the namespace holding path: the cluster's central one
// for SAN paths, else s itself.
func (s *Store) target(path string) *Store {
	if s.node != nil && IsSANPath(path) {
		return s.node.Cluster.san
	}
	return s
}

// WriteFile creates or replaces a file.  logical may be 0 to account
// len(data) bytes.  Time is charged by the caller (see Task.WriteFile
// and the mtcp image writer), keeping policy out of the store.
func (s *Store) WriteFile(path string, data []byte, logical int64) *Inode {
	ino := &Inode{Path: path, Data: append([]byte(nil), data...), LogicalSize: logical}
	ns := s.target(path)
	if _, ok := ns.files[path]; !ok {
		i, _ := slices.BinarySearch(ns.paths, path)
		ns.paths = slices.Insert(ns.paths, i, path)
	}
	ns.files[path] = ino
	return ino
}

// ReadFile returns the inode at path.
func (s *Store) ReadFile(path string) (*Inode, error) {
	ino, ok := s.target(path).files[path]
	if !ok {
		return nil, ErrNoEnt
	}
	return ino, nil
}

// Exists reports whether path exists.
func (s *Store) Exists(path string) bool {
	_, ok := s.target(path).files[path]
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
	_, ok := s.target(dir).files[string(path)]
	return ok
}

// Unlink removes path; missing files are ignored (like rm -f).
func (s *Store) Unlink(path string) {
	ns := s.target(path)
	if _, ok := ns.files[path]; !ok {
		return
	}
	delete(ns.files, path)
	i, _ := slices.BinarySearch(ns.paths, path)
	ns.paths = slices.Delete(ns.paths, i, i+1)
}

// List returns the paths that begin with prefix, sorted.  The prefix
// may be a directory ("/ckpt/store/chunks/"), part of a name
// ("<root>/manifests/<name>.g") or any root, which lists recursively;
// it routes to central storage as a path would.  The matching paths
// are one run of the namespace's sorted index, found by binary search
// and copied, so a call costs only what it returns.  The slice is the
// caller's: unlinking the listed paths while iterating over it is
// safe.
func (s *Store) List(prefix string) []string {
	return append([]string(nil), s.run(prefix)...)
}

// Count returns how many paths begin with prefix: len(List(prefix))
// without the copy.
func (s *Store) Count(prefix string) int { return len(s.run(prefix)) }

// run returns the sorted index's run of paths that begin with prefix.
// The slice aliases the index.
func (s *Store) run(prefix string) []string {
	paths := s.target(prefix).paths
	i, _ := slices.BinarySearch(paths, prefix)
	n := sort.Search(len(paths)-i, func(k int) bool {
		return !strings.HasPrefix(paths[i+k], prefix)
	})
	return paths[i : i+n]
}

// wipe drops every file: the local disk dying with its machine.
func (s *Store) wipe() {
	clear(s.files)
	clear(s.paths)
	s.paths = s.paths[:0]
}
