package dmtcp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
)

// fdKindsProg holds bytes in flight in one kind of descriptor across a
// checkpoint.  Main (args: case [host port]) sets the descriptors up,
// writes into them without reading, and saves what each reader must
// see; Restore reads it all back and logs each read to
// /out/fdk-<case>, one line per reader: the bytes read, in order, and
// how many more were left over.
type fdKindsProg struct{}

// fdRead is one reader Restore serves.  An accept reader is a listener:
// Restore accepts one connection on it and reads from that.
type fdRead struct {
	fd     int
	accept bool
	want   string
}

const fdkPort = 9400

func (fdKindsProg) Main(t *kernel.Task, args []string) {
	t.MapAnon("[heap]", 2*model.MB, model.ClassData)
	out := "/out/fdk-" + args[0]
	send := func(fd int, s string) { t.Write(fd, []byte(s)) }
	var reads []fdRead
	switch args[0] {
	case "tcp-server":
		lfd, _ := t.ListenTCP(fdkPort)
		fd, err := t.Accept(lfd)
		if err != nil {
			return
		}
		send(fd, "server>")
		send(fd, "client|")
		reads = []fdRead{{fd: fd, want: "client>server|"}}
	case "tcp-client":
		fd := t.Socket()
		if err := t.Connect(fd, kernel.Addr{Host: args[1], Port: fdkPort}); err != nil {
			return
		}
		send(fd, "client>")
		send(fd, "server|")
		reads = []fdRead{{fd: fd, want: "server>client|"}}
	case "socketpair":
		// Several pairs: a restart that confuses a pair's two ends is
		// caught by one of them.
		for i := 0; i < 4; i++ {
			a, b := t.SocketPair()
			send(a, fmt.Sprintf("a%d>b%d|", i, i))
			send(b, fmt.Sprintf("b%d>a%d|", i, i))
			reads = append(reads, fdRead{fd: b, want: fmt.Sprintf("a%d>b%d|", i, i)},
				fdRead{fd: a, want: fmt.Sprintf("b%d>a%d|", i, i)})
		}
	case "pipe":
		down, downW := t.Pipe() // parent → child
		upR, up := t.Pipe()     // child → parent
		t.ForkFn("fdkinds", func(c *kernel.Task) {
			c.Close(downW)
			c.Close(upR)
			c.Write(up, []byte("child>parent|"))
			fdkHold(c, out+"-child", []fdRead{{fd: down, want: "parent>child|"}})
		})
		t.Close(down)
		t.Close(up)
		send(downW, "parent>child|")
		reads = []fdRead{{fd: upR, want: "child>parent|"}}
	case "pty":
		m, name := t.Openpt()
		s, err := t.OpenPts(name)
		if err != nil {
			return
		}
		send(m, "master>slave|")
		send(s, "slave>master|")
		reads = []fdRead{{fd: s, want: "master>slave|"}, {fd: m, want: "slave>master|"}}
	case "file":
		t.P.Node.FS.WriteFile("/data/fdk", []byte("0123456789"), 0)
		fd, err := t.Open("/data/fdk")
		if err != nil {
			return
		}
		t.Read(fd, 4)
		reads = []fdRead{{fd: fd, want: "456789"}}
	case "listeners":
		lfd, _ := t.ListenTCP(fdkPort)
		ufd := t.UnixSocket()
		t.BindUnix(ufd, "/tmp/fdk.sock")
		t.Listen(ufd)
		reads = []fdRead{{fd: lfd, accept: true, want: "tcp hello|"},
			{fd: ufd, accept: true, want: "unix hello|"}}
	}
	fdkHold(t, out, reads)
}

// fdkHold saves the readers and computes until the checkpoint kills
// the process.
func fdkHold(t *kernel.Task, out string, reads []fdRead) {
	var e bin.Encoder
	e.Str(out)
	e.Int(len(reads))
	for _, r := range reads {
		e.Int(r.fd)
		e.Bool(r.accept)
		e.Str(r.want)
	}
	t.P.SaveState(e.B)
	for {
		t.Compute(5 * time.Millisecond)
	}
}

func (fdKindsProg) Restore(t *kernel.Task, state []byte) {
	d := &bin.Decoder{B: state}
	out := d.Str()
	for i, n := 0, d.Int(); i < n; i++ {
		fd, accept, want := d.Int(), d.Bool(), d.Str()
		if accept {
			var err error
			if fd, err = t.Accept(fd); err != nil {
				appendLine(t, out, "accept: "+err.Error())
				continue
			}
		}
		var got []byte
		for len(got) < len(want) {
			b, err := t.Read(fd, len(want)-len(got))
			if err != nil {
				break
			}
			got = append(got, b...)
		}
		left, err := t.Avail(fd)
		if err != nil { // a file: whatever a further read returns
			b, _ := t.Read(fd, 64)
			left = len(b)
		}
		appendLine(t, out, fmt.Sprintf("%s +%d", got, left))
	}
}

// TestDrainedBytesSurviveRestart is the round trip of every descriptor
// kind: bytes in flight at checkpoint are read once, in order, after an
// in-place restart, and restored listeners accept new connections.  The
// socketpair case holds both ends of each pair in one process, where
// both ends share one GUID; it fails when a refill finds its endpoint
// by GUID.
func TestDrainedBytesSurviveRestart(t *testing.T) {
	for _, tc := range []struct {
		name   string
		launch [][]string // node, then program arguments
		logs   map[string][]string
	}{
		{"tcp across nodes", [][]string{{"1", "tcp-server"}, {"0", "tcp-client", "node01"}},
			map[string][]string{"1:tcp-server": {"client>server| +0"}, "0:tcp-client": {"server>client| +0"}}},
		{"socketpair in one process", [][]string{{"0", "socketpair"}},
			map[string][]string{"0:socketpair": {"a0>b0| +0", "b0>a0| +0", "a1>b1| +0", "b1>a1| +0",
				"a2>b2| +0", "b2>a2| +0", "a3>b3| +0", "b3>a3| +0"}}},
		{"promoted pipe between parent and child", [][]string{{"0", "pipe"}},
			map[string][]string{"0:pipe": {"child>parent| +0"}, "0:pipe-child": {"parent>child| +0"}}},
		{"pty buffered both ways", [][]string{{"0", "pty"}},
			map[string][]string{"0:pty": {"master>slave| +0", "slave>master| +0"}}},
		{"file at an offset", [][]string{{"0", "file"}},
			map[string][]string{"0:file": {"456789 +0"}}},
		{"tcp and unix listeners", [][]string{{"0", "listeners"}},
			map[string][]string{"0:listeners": {"tcp hello| +0", "unix hello| +0"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 2, Config{})
			e.c.Register("fdkinds", fdKindsProg{})
			e.c.RegisterFunc("fdkclient", func(c *kernel.Task, _ []string) {
				if fd := c.Socket(); c.Connect(fd, kernel.Addr{Host: "node00", Port: fdkPort}) == nil {
					c.Write(fd, []byte("tcp hello|"))
				}
				if fd := c.UnixSocket(); c.ConnectUnix(fd, "/tmp/fdk.sock") == nil {
					c.Write(fd, []byte("unix hello|"))
				}
				c.Compute(time.Second)
			})
			e.drive(t, func(task *kernel.Task) {
				for _, l := range tc.launch {
					node, _ := strconv.Atoi(l[0])
					e.sys.Launch(kernel.NodeID(node), "fdkinds", l[1:]...)
					task.Compute(5 * time.Millisecond)
				}
				task.Compute(50 * time.Millisecond)
				round, err := e.sys.Checkpoint(task)
				if err != nil {
					t.Error(err)
					return
				}
				e.sys.KillManaged()
				if err := restartWithin(t, e, task, round, nil, 30*time.Second, nil); err != nil {
					t.Error(err)
					return
				}
				e.c.Node(0).Kern.Spawn("fdkclient", nil, nil)
				task.Compute(500 * time.Millisecond)
			})
			for key, want := range tc.logs {
				node, _ := strconv.Atoi(key[:1])
				got := readLog(e.c.Node(kernel.NodeID(node)), "/out/fdk-"+key[2:])
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("node%02d %s read back %q, want %q", node, key[2:], got, want)
				}
			}
		})
	}
}

// readLog returns path's lines on n, nil when it does not exist.
func readLog(n *kernel.Node, path string) []string {
	ino, err := n.FS.ReadFile(path)
	if err != nil {
		return nil
	}
	return strings.Split(strings.TrimSpace(string(ino.Data)), "\n")
}
