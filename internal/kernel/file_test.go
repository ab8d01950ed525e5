package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestListMatchesSortedScan drives random WriteFile, Unlink and
// KillNode steps over local and central paths on three nodes and
// checks every namespace after each step against a model: the files
// must be exactly the model's, and List must return what a scan of the
// model and a sort would, for directory, name, recursive and absent
// prefixes, each routed as a path would be (a central prefix lists
// central files only).  Unlinking every listed path while iterating
// over the listing must leave none behind.
func TestListMatchesSortedScan(t *testing.T) {
	roots := []string{"/san/ckpt/", "/san/", "/ckpt/", "/sandbox/", "/san-x/", "/tmp/"}
	dirs := []string{"", "chunks/", "manifests/"}
	names := []string{"a", "ab", "b", "img.g000001", "img.g000002", "img2.g000001", "zz"}
	prefixes := []string{
		"", "/", "/s", "/sa", "/san", "/san/", "/san/ckpt/chunks/", "/san/ckpt/manifests/img.g",
		"/ckpt", "/ckpt/chunks/", "/ckpt/manifests/img.g", "/ckpt/manifests/img2",
		"/sandbox/", "/san-x/manifests/", "/tmp/a", "/absent/", "/ckpt/chunks/zzz", "/~",
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		c := NewCluster(eng, model.Default(), 3)
		// The model: each node's local paths, and the central ones.
		local := []map[string]bool{{}, {}, {}}
		central := map[string]bool{}
		held := func(n NodeID, path string) map[string]bool {
			if IsSANPath(path) {
				return central
			}
			return local[n]
		}
		scan := func(n NodeID, prefix string) []string {
			var out []string
			for p := range held(n, prefix) {
				if strings.HasPrefix(p, prefix) {
					out = append(out, p)
				}
			}
			sort.Strings(out)
			return out
		}
		randPath := func() string {
			if rng.Intn(20) == 0 {
				return "/san" // central storage's own root
			}
			return roots[rng.Intn(len(roots))] + dirs[rng.Intn(len(dirs))] + names[rng.Intn(len(names))]
		}
		for step := 0; step < 400; step++ {
			n := NodeID(rng.Intn(3))
			fs := c.Node(n).FS
			var op string
			switch r := rng.Intn(20); {
			case r < 11:
				path := randPath()
				op = "write " + path
				fs.WriteFile(path, []byte(op), 0)
				held(n, path)[path] = true
			case r < 18:
				path := randPath()
				op = "unlink " + path
				fs.Unlink(path)
				delete(held(n, path), path)
			case r < 19:
				op = "kill"
				c.KillNode(n)
				c.Node(n).Down = false // revive it, empty, for later steps
				local[n] = map[string]bool{}
			default:
				prefix := prefixes[rng.Intn(len(prefixes))]
				op = "unlink every path listed under " + prefix
				for _, path := range fs.List(prefix) {
					fs.Unlink(path)
					delete(held(n, path), path)
				}
				if got := fs.List(prefix); len(got) != 0 {
					t.Fatalf("seed %d step %d node%02d: %s left %v", seed, step, n, op, got)
				}
			}
			for m := NodeID(0); m < 3; m++ {
				where := fmt.Sprintf("seed %d step %d (node%02d: %s): node%02d", seed, step, n, op, m)
				fs := c.Node(m).FS
				for _, ns := range []struct {
					store *Store
					model map[string]bool
				}{{fs, local[m]}, {c.san, central}} {
					if len(ns.store.files) != len(ns.model) || len(ns.store.paths) != len(ns.model) {
						t.Fatalf("%s: %d files, %d indexed, want %d", where, len(ns.store.files), len(ns.store.paths), len(ns.model))
					}
					for p := range ns.model {
						if ns.store.files[p] == nil {
							t.Fatalf("%s: %s missing", where, p)
						}
					}
				}
				for _, prefix := range prefixes {
					if got, want := fs.List(prefix), scan(m, prefix); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: List(%q) = %v, want %v", where, prefix, got, want)
					}
					if got, want := fs.Count(prefix), len(scan(m, prefix)); got != want {
						t.Fatalf("%s: Count(%q) = %d, want %d", where, prefix, got, want)
					}
				}
			}
		}
		eng.Shutdown()
	}
}

// TestSANPathIsCentralOnly pins the one central-storage predicate:
// only /san and paths under /san/ are shared cluster-wide, survive
// their writer's death and are charged to the SAN; a local path that
// merely begins with the same four bytes is an ordinary local file.
func TestSANPathIsCentralOnly(t *testing.T) {
	for path, want := range map[string]bool{
		"/san": true, "/san/": true, "/san/x": true, "/san/ckpt/chunks/ab": true,
		"/sandbox/x": false, "/san-x": false, "/sanx": false, "/sa": false, "san/x": false, "": false, "/ckpt/san/x": false,
	} {
		if got := IsSANPath(path); got != want {
			t.Errorf("IsSANPath(%q) = %v, want %v", path, got, want)
		}
	}

	eng := sim.NewEngine(1)
	defer eng.Shutdown()
	c := NewCluster(eng, model.Default(), 3)
	writer, peer := c.Node(1), c.Node(2)
	writer.FS.WriteFile("/sandbox/x", []byte("local"), 0)
	writer.FS.WriteFile("/san/x", []byte("central"), 0)
	if peer.FS.Exists("/sandbox/x") {
		t.Error("/sandbox/x written on node01 is visible on node02")
	}
	if !peer.FS.Exists("/san/x") {
		t.Error("/san/x written on node01 is not visible on node02")
	}
	if got := peer.FS.List("/san"); !reflect.DeepEqual(got, []string{"/san/x"}) {
		t.Errorf("node02 lists %v under /san, want [/san/x]", got)
	}
	if got := writer.WritePipeFor("/sandbox/x"); got != writer.DiskW {
		t.Errorf("a /sandbox write is charged to %v, want node01's disk", got)
	}
	if got := writer.WritePipeFor("/san/x"); got != c.NFS {
		t.Errorf("a /san write from an NFS node is charged to %v, want the NFS volume", got)
	}
	if got := writer.ReadPipeFor("/sandbox/x"); got != writer.DiskR {
		t.Errorf("a /sandbox read is charged to %v, want node01's disk", got)
	}
	c.KillNode(1)
	if writer.FS.Exists("/sandbox/x") || len(writer.FS.List("/")) != 0 {
		t.Errorf("node01's local files survived its death: %v", writer.FS.List("/"))
	}
	if !peer.FS.Exists("/san/x") || !writer.FS.Exists("/san/x") {
		t.Error("/san/x did not survive node01's death")
	}
}
