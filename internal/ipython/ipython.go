// Package ipython models the iPython parallel-computing workload of
// §5.2: a controller process and per-core engine processes that
// communicate over raw TCP sockets — the paper's example of a
// distributed computation that uses "a custom sockets package" rather
// than MPI.  Two variants match Figure 4's rows: the idle interactive
// shell (ipython-shell) and the parallel-computing demo
// (ipython-demo).
//
// The task protocol is restart-exact without stack capture: frames
// are fixed-size task ids, each side appends received bytes to a
// reassembly buffer persisted in process state (committed atomically
// with the read), the controller re-sends the in-flight task after a
// restart, and duplicate requests/replies are filtered by id — the
// at-least-once + dedup discipline appropriate for idempotent map
// tasks.
package ipython

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
)

// ControllerPort is where the controller listens for engines.
const ControllerPort = 10100

// frameLen is the fixed wire frame: an 8-byte big-endian task id.
const frameLen = 8

// Register installs the ipython programs.
func Register(c *kernel.Cluster) {
	c.Register("ipython-shell", shellProg{})
	c.Register("ipython-controller", controllerProg{})
	c.Register("ipython-engine", engineProg{})
}

// LaunchDemo spawns the controller on baseNode and engines across
// nodes (perNode each), all under the given environment.  It returns
// the controller process.
func LaunchDemo(k *kernel.Kernel, c *kernel.Cluster, env map[string]string,
	baseNode kernel.NodeID, nodes, perNode, tasks int) (*kernel.Process, error) {
	nEngines := nodes * perNode
	ctl, err := c.Node(baseNode).Kern.Spawn("ipython-controller",
		[]string{strconv.Itoa(nEngines), strconv.Itoa(tasks)}, env)
	if err != nil {
		return nil, err
	}
	host := c.Node(baseNode).Hostname
	id := 0
	for n := 0; n < nodes; n++ {
		for e := 0; e < perNode; e++ {
			_, err := c.Node(baseNode+kernel.NodeID(n)).Kern.Spawn("ipython-engine",
				[]string{host, strconv.Itoa(id)}, env)
			if err != nil {
				return nil, err
			}
			id++
		}
	}
	return ctl, nil
}

// shellProg is the interactive iPython shell, idle at checkpoint time
// (Figure 4 "iPython/Shell").
type shellProg struct{}

func (shellProg) Main(t *kernel.Task, args []string) {
	t.MapLib("/usr/lib/python2.5.so", 9*model.MB)
	t.MapLib("/usr/lib/ipython-pkgs.so", 14*model.MB)
	t.MapAnon("[heap]", 18*model.MB, model.ClassData)
	t.P.SaveState([]byte{0})
	shellIdle(t)
}

func (shellProg) Restore(t *kernel.Task, _ []byte) { shellIdle(t) }

func shellIdle(t *kernel.Task) {
	for {
		t.Compute(50 * time.Millisecond) // waiting at the prompt
	}
}

// --- controller --------------------------------------------------------

type controllerProg struct{}

type ctlState struct {
	engines  int
	tasks    int
	assigned int
	done     int
	inflight int // task id in flight, -1 when none
	inflEng  int // engine handling it
	listenFD int
	fds      []int    // engine connections by engine id
	rx       [][]byte // per-engine reply reassembly buffers
}

func encCtl(s *ctlState) []byte {
	var e bin.Encoder
	e.Int(s.engines)
	e.Int(s.tasks)
	e.Int(s.assigned)
	e.Int(s.done)
	e.Int(s.inflight)
	e.Int(s.inflEng)
	e.Int(s.listenFD)
	e.U32(uint32(len(s.fds)))
	for i := range s.fds {
		e.Int(s.fds[i])
		e.Bytes(s.rx[i])
	}
	return e.B
}

func decCtl(b []byte) (*ctlState, error) {
	d := &bin.Decoder{B: b}
	s := &ctlState{
		engines: d.Int(), tasks: d.Int(), assigned: d.Int(), done: d.Int(),
		inflight: d.Int(), inflEng: d.Int(), listenFD: d.Int(),
	}
	n := d.Count(8 + 4)
	s.fds, s.rx = make([]int, n), make([][]byte, n)
	for i := range s.fds {
		s.fds[i], s.rx[i] = d.Int(), d.Bytes()
	}
	return s, d.Err
}

func frame(id int) []byte {
	var b [frameLen]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

func (controllerProg) Main(t *kernel.Task, args []string) {
	engines, _ := strconv.Atoi(args[0])
	tasks, _ := strconv.Atoi(args[1])
	t.MapLib("/usr/lib/python2.5.so", 9*model.MB)
	t.MapAnon("[heap]", 25*model.MB, model.ClassData)
	lfd, err := t.ListenTCP(ControllerPort)
	if err != nil {
		t.Printf("controller: %v\n", err)
		return
	}
	st := &ctlState{
		engines: engines, tasks: tasks, inflight: -1, listenFD: lfd,
		fds: make([]int, engines), rx: make([][]byte, engines),
	}
	for i := range st.fds {
		st.fds[i] = -1
	}
	// Engines register with their id (one 8-byte frame each).
	for n := 0; n < engines; n++ {
		cfd, err := t.Accept(lfd)
		if err != nil {
			return
		}
		hello, err := t.RecvN(cfd, frameLen)
		if err != nil {
			continue
		}
		st.fds[int(binary.BigEndian.Uint64(hello))] = cfd
	}
	t.P.SaveState(encCtl(st))
	controllerLoop(t, st)
}

func (controllerProg) Restore(t *kernel.Task, state []byte) {
	st, err := decCtl(state)
	if err != nil {
		t.Printf("controller: restore: %v\n", err)
		return
	}
	controllerLoop(t, st)
}

// controllerLoop farms tasks to engines; when tasks == 0 it idles
// like a quiet cluster session.
func controllerLoop(t *kernel.Task, st *ctlState) {
	if st.tasks == 0 {
		for {
			t.Compute(50 * time.Millisecond)
		}
	}
	resumed := st.inflight >= 0
	for st.done < st.tasks {
		var id, eng int
		if resumed {
			// Re-send the in-flight task; the engine filters
			// duplicates by id (idempotent map tasks).
			id, eng = st.inflight, st.inflEng
			resumed = false
		} else {
			eng = st.assigned % st.engines
			id = st.assigned
			t.BeginCritical()
			st.inflight, st.inflEng = id, eng
			st.assigned++
			t.P.SaveState(encCtl(st))
			t.EndCritical()
		}
		if st.fds[eng] < 0 {
			return
		}
		if _, err := t.Send(st.fds[eng], frame(id)); err != nil {
			return
		}
		if !awaitReply(t, st, eng, id) {
			return
		}
		t.BeginCritical()
		st.done++
		st.inflight = -1
		t.P.SaveState(encCtl(st))
		t.EndCritical()
	}
	t.P.Node.FS.WriteFile("/out/ipython-demo.done",
		[]byte(fmt.Sprintf("done=%d", st.done)), 0)
	for {
		t.Compute(100 * time.Millisecond) // back at the prompt
	}
}

// awaitReply consumes reply frames from the engine until one matches
// id, skipping stale duplicates from before a rollback.
func awaitReply(t *kernel.Task, st *ctlState, eng, id int) bool {
	fd := st.fds[eng]
	for {
		for len(st.rx[eng]) >= frameLen {
			got := int(binary.BigEndian.Uint64(st.rx[eng]))
			t.BeginCritical()
			st.rx[eng] = st.rx[eng][frameLen:]
			t.P.SaveState(encCtl(st))
			t.EndCritical()
			if got == id {
				return true
			}
		}
		data, err := t.Recv(fd, 1<<16)
		if err != nil {
			return false
		}
		t.BeginCritical()
		st.rx[eng] = append(st.rx[eng], data...)
		t.P.SaveState(encCtl(st))
		t.EndCritical()
	}
}

// --- engine ------------------------------------------------------------

type engineProg struct{}

type engState struct {
	fd   int
	id   int
	last int // last task id processed (duplicate filter)
	rx   []byte
}

func encEng(s *engState) []byte {
	var e bin.Encoder
	e.Int(s.fd)
	e.Int(s.id)
	e.Int(s.last)
	e.Bytes(s.rx)
	return e.B
}

func decEng(b []byte) *engState {
	d := &bin.Decoder{B: b}
	return &engState{fd: d.Int(), id: d.Int(), last: d.Int(), rx: d.Bytes()}
}

func (engineProg) Main(t *kernel.Task, args []string) {
	host := args[0]
	id, _ := strconv.Atoi(args[1])
	t.MapLib("/usr/lib/python2.5.so", 9*model.MB)
	t.MapAnon("[heap]", 30*model.MB, model.ClassNumeric)
	fd := t.Socket()
	for attempt := 0; ; attempt++ {
		if err := t.Connect(fd, kernel.Addr{Host: host, Port: ControllerPort}); err == nil {
			break
		}
		t.Close(fd)
		if attempt > 2000 {
			return
		}
		t.Compute(time.Millisecond)
		fd = t.Socket()
	}
	t.Send(fd, frame(id))
	st := &engState{fd: fd, id: id, last: -1}
	t.P.SaveState(encEng(st))
	engineLoop(t, st)
}

func (engineProg) Restore(t *kernel.Task, state []byte) {
	engineLoop(t, decEng(state))
}

func engineLoop(t *kernel.Task, st *engState) {
	for {
		for len(st.rx) >= frameLen {
			task := int(binary.BigEndian.Uint64(st.rx))
			t.BeginCritical()
			st.rx = st.rx[frameLen:]
			t.P.SaveState(encEng(st))
			t.EndCritical()
			if task <= st.last {
				// Duplicate after a rollback: the reply may have been
				// lost with the rollback, so re-ack without recomputing.
				if _, err := t.Send(st.fd, frame(task)); err != nil {
					return
				}
				continue
			}
			t.Compute(8 * time.Millisecond) // evaluate the mapped function
			t.BeginCritical()
			st.last = task
			t.P.SaveState(encEng(st))
			t.EndCritical()
			if _, err := t.Send(st.fd, frame(task)); err != nil {
				return
			}
		}
		data, err := t.Recv(st.fd, 1<<16)
		if err != nil {
			return
		}
		t.BeginCritical()
		st.rx = append(st.rx, data...)
		t.P.SaveState(encEng(st))
		t.EndCritical()
	}
}
