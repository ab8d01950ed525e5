package mpi

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
)

// Well-known ports for the resource managers.
const (
	MPDRingPort = 8500 // every node's mpd daemon
	DonePort    = 8600 // mpiexec/orterun completion listener
	ORTEPort    = 8700 // orterun's daemon callback listener
)

// RankArgs is the command-line contract between launchers and MPI
// programs: every rank is exec'd as `<prog> <rank> <size> <ppn>
// <baseNode> <port> <doneHost> <donePort> [appArgs...]`.
type RankArgs struct {
	Rank     int
	Layout   Layout
	DoneAddr kernel.Addr
	AppArgs  []string
}

// Format renders the rank argument vector.
func (ra RankArgs) Format() []string {
	out := []string{
		strconv.Itoa(ra.Rank),
		strconv.Itoa(ra.Layout.Size),
		strconv.Itoa(ra.Layout.PerNode),
		strconv.Itoa(ra.Layout.BaseNode),
		strconv.Itoa(ra.Layout.Port),
		ra.DoneAddr.Host,
		strconv.Itoa(ra.DoneAddr.Port),
	}
	return append(out, ra.AppArgs...)
}

// ParseRankArgs decodes the rank argument vector.
func ParseRankArgs(args []string) (RankArgs, error) {
	if len(args) < 7 {
		return RankArgs{}, fmt.Errorf("mpi: short rank args: %v", args)
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	return RankArgs{
		Rank: atoi(args[0]),
		Layout: Layout{
			Size:     atoi(args[1]),
			PerNode:  atoi(args[2]),
			BaseNode: atoi(args[3]),
			Port:     atoi(args[4]),
		},
		DoneAddr: kernel.Addr{Host: args[5], Port: atoi(args[6])},
		AppArgs:  args[7:],
	}, nil
}

// NotifyDone reports rank completion to the launcher.
func NotifyDone(t *kernel.Task, ra RankArgs) {
	fd := t.Socket()
	if err := t.Connect(fd, ra.DoneAddr); err != nil {
		return
	}
	var e bin.Encoder
	e.Int(ra.Rank)
	t.SendFrame(fd, e.B)
	t.Close(fd)
}

// RegisterPrograms registers the launcher programs with the cluster.
func RegisterPrograms(c *kernel.Cluster) {
	c.Register("mpd", mpdProg{})
	c.RegisterFunc("mpdboot", mpdbootMain)
	c.Register("mpiexec", mpiexecProg{})
	c.Register("pmi_proxy", proxyProg{})
	c.Register("orterun", orterunProg{})
	c.Register("orted", ortedProg{})
}

// --- MPICH2: mpd ring, mpdboot, mpiexec, pmi_proxy --------------------

// mpdbootMain spawns the mpd ring over ssh: `mpdboot <n> [baseNode]`
// (§3: "dmtcp_checkpoint mpdboot -n 32"; the ssh calls are wrapped by
// DMTCP so the remote daemons are checkpointed too).
func mpdbootMain(t *kernel.Task, args []string) {
	if len(args) < 1 {
		t.Printf("usage: mpdboot n [baseNode]\n")
		t.Exit(2)
	}
	n, _ := strconv.Atoi(args[0])
	base := 0
	if len(args) > 1 {
		base, _ = strconv.Atoi(args[1])
	}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("node%02d", base+i)
		if err := t.SSHSpawn(host, "mpd",
			strconv.Itoa(i), strconv.Itoa(n), strconv.Itoa(base)); err != nil {
			t.Printf("mpdboot: %s: %v\n", host, err)
			t.Exit(1)
		}
	}
}

// mpdProg is one MPD daemon: it joins the ring and spawns pmi_proxy
// processes for SPAWN requests that circulate around it.
type mpdProg struct{}

type mpdState struct {
	idx, n, base     int
	listenFD, ringFD int
	conns            []int // live session fds (ring predecessor, consoles)
}

func encMPD(s *mpdState) []byte {
	var e bin.Encoder
	e.Int(s.idx)
	e.Int(s.n)
	e.Int(s.base)
	e.Int(s.listenFD)
	e.Int(s.ringFD)
	e.U32(uint32(len(s.conns)))
	for _, fd := range s.conns {
		e.Int(fd)
	}
	return e.B
}

func decMPD(b []byte) (*mpdState, error) {
	d := &bin.Decoder{B: b}
	s := &mpdState{idx: d.Int(), n: d.Int(), base: d.Int(), listenFD: d.Int(), ringFD: d.Int()}
	s.conns = make([]int, d.Count(8))
	for i := range s.conns {
		s.conns[i] = d.Int()
	}
	return s, d.Err
}

func (mpdProg) Main(t *kernel.Task, args []string) {
	idx, _ := strconv.Atoi(args[0])
	n, _ := strconv.Atoi(args[1])
	base, _ := strconv.Atoi(args[2])
	t.MapLib("/usr/lib/mpd-python.so", 5*model.MB)
	t.MapAnon("[heap]", 3*model.MB, model.ClassData)
	st := &mpdState{idx: idx, n: n, base: base}
	lfd, err := t.ListenTCP(MPDRingPort)
	if err != nil {
		t.Printf("mpd: %v\n", err)
		return
	}
	st.listenFD = lfd
	// Connect to the next daemon to close the ring.
	next := fmt.Sprintf("node%02d", base+(idx+1)%n)
	for attempt := 0; ; attempt++ {
		fd := t.Socket()
		if err := t.Connect(fd, kernel.Addr{Host: next, Port: MPDRingPort}); err == nil {
			st.ringFD = fd
			break
		} else {
			t.Close(fd)
			if attempt > 5000 {
				t.Printf("mpd: ring to %s: %v\n", next, err)
				return
			}
			t.Compute(time.Millisecond)
		}
	}
	t.P.SaveState(encMPD(st))
	mpdServe(t, st)
}

func (mpdProg) Restore(t *kernel.Task, state []byte) {
	st, err := decMPD(state)
	if err != nil {
		t.Printf("mpd: restore: %v\n", err)
		return
	}
	// Re-create the handler threads for sessions that were live at
	// checkpoint time (their sockets were restored at the same fds).
	for _, fd := range st.conns {
		fd := fd
		t.P.SpawnTask("mpd-conn", false, func(h *kernel.Task) {
			mpdHandle(h, st, fd)
		})
	}
	mpdServe(t, st)
}

// mpdServe accepts ring/client connections and handles messages.
func mpdServe(t *kernel.Task, st *mpdState) {
	for {
		cfd, err := t.Accept(st.listenFD)
		if err != nil {
			return
		}
		fd := cfd
		t.BeginCritical()
		st.conns = append(st.conns, fd)
		t.P.SaveState(encMPD(st))
		t.EndCritical()
		t.P.SpawnTask("mpd-conn", false, func(h *kernel.Task) {
			mpdHandle(h, st, fd)
		})
	}
}

// mpdHandle processes one inbound connection (a ring predecessor or a
// console client such as mpiexec).
func mpdHandle(t *kernel.Task, st *mpdState, fd int) {
	for {
		frame, err := t.RecvFrame(fd)
		if err != nil {
			t.Close(fd)
			return
		}
		d := &bin.Decoder{B: frame}
		kind := d.Str()
		if kind != "SPAWN" {
			continue
		}
		origin := d.Int()
		ra, err := ParseRankArgs(splitArgs(d.Str()))
		prog := d.Str()
		if err != nil {
			continue
		}
		// Spawn the local ranks: proxies fork+exec the application.
		for r := 0; r < ra.Layout.Size; r++ {
			if ra.Layout.BaseNode+r/ra.Layout.PerNode != st.base+st.idx {
				continue
			}
			rr := ra
			rr.Rank = r
			argv := append([]string{prog}, rr.Format()...)
			t.ForkFn("pmi_proxy-launch", func(c *kernel.Task) {
				if err := c.Exec("pmi_proxy", argv); err != nil {
					c.Exit(127)
				}
			})
		}
		// Forward around the ring until it reaches the origin's
		// neighbor.
		if (st.idx+1)%st.n != origin {
			t.SendFrame(st.ringFD, frame)
		}
	}
}

// splitArgs/joinArgs flatten arg vectors for ring messages.
func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\x1f")
}

func joinArgs(a []string) string { return strings.Join(a, "\x1f") }

// proxyProg is the per-rank PMI proxy: it forks the application rank
// and waits for it (the "additional resource management processes"
// the paper's Figure 5 caption counts).
type proxyProg struct{}

type proxyState struct {
	childVirt kernel.Pid
}

func (proxyProg) Main(t *kernel.Task, args []string) {
	prog := args[0]
	rankArgs := args[1:]
	t.MapLib("/usr/lib/pmi.so", 2*model.MB)
	t.MapAnon("[heap]", 2*model.MB, model.ClassData)
	child := t.ForkFn(prog, func(c *kernel.Task) {
		if err := c.Exec(prog, rankArgs); err != nil {
			c.Exit(127)
		}
	})
	var e bin.Encoder
	e.I64(int64(child))
	t.P.SaveState(e.B)
	t.WaitPid(child)
}

func (proxyProg) Restore(t *kernel.Task, state []byte) {
	d := &bin.Decoder{B: state}
	child := kernel.Pid(d.I64())
	t.WaitPid(child)
}

// mpiexecProg submits a job to the MPD ring and waits for every rank
// to report completion: `mpiexec <np> <ppn> <baseNode> <portBase>
// <prog> [appArgs...]`.
type mpiexecProg struct{}

type mpiexecState struct {
	np       int
	got      int
	listenFD int
}

func encMPIExec(s mpiexecState) []byte {
	var e bin.Encoder
	e.Int(s.np)
	e.Int(s.got)
	e.Int(s.listenFD)
	return e.B
}

func (mpiexecProg) Main(t *kernel.Task, args []string) {
	if len(args) < 5 {
		t.Printf("usage: mpiexec np ppn baseNode portBase prog args...\n")
		t.Exit(2)
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	np, ppn, base, port := atoi(args[0]), atoi(args[1]), atoi(args[2]), atoi(args[3])
	prog := args[4]
	appArgs := args[5:]
	t.MapLib("/usr/lib/mpiexec.so", 4*model.MB)
	t.MapAnon("[heap]", 2*model.MB, model.ClassData)

	lfd, err := t.ListenTCP(DonePort)
	if err != nil {
		t.Printf("mpiexec: %v\n", err)
		t.Exit(1)
	}
	ra := RankArgs{
		Layout:   Layout{Size: np, PerNode: ppn, BaseNode: base, Port: port},
		DoneAddr: kernel.Addr{Host: t.P.Node.Hostname, Port: DonePort},
		AppArgs:  appArgs,
	}
	// Submit to the local mpd; the request circulates the ring.
	mfd := t.Socket()
	if err := t.Connect(mfd, kernel.Addr{Host: t.P.Node.Hostname, Port: MPDRingPort}); err != nil {
		t.Printf("mpiexec: no local mpd: %v\n", err)
		t.Exit(1)
	}
	// The ring stops forwarding when the request reaches the origin
	// daemon again; our local mpd is the origin.
	myIdx := int(t.P.Node.ID) - base
	var e bin.Encoder
	e.Str("SPAWN")
	e.Int(myIdx)
	e.Str(joinArgs(ra.Format()))
	e.Str(prog)
	t.SendFrame(mfd, e.B)
	t.Close(mfd)

	st := mpiexecState{np: np, listenFD: lfd}
	t.P.SaveState(encMPIExec(st))
	mpiexecWait(t, st)
}

func (mpiexecProg) Restore(t *kernel.Task, state []byte) {
	d := &bin.Decoder{B: state}
	st := mpiexecState{np: d.Int(), got: d.Int(), listenFD: d.Int()}
	mpiexecWait(t, st)
}

func mpiexecWait(t *kernel.Task, st mpiexecState) {
	for st.got < st.np {
		cfd, err := t.Accept(st.listenFD)
		if err != nil {
			return
		}
		if _, err := t.RecvFrame(cfd); err == nil {
			t.BeginCritical()
			st.got++
			t.P.SaveState(encMPIExec(st))
			t.EndCritical()
		}
		t.Close(cfd)
	}
}

// --- OpenMPI: orterun + orted ------------------------------------------

// orterunProg is mpirun: it ssh-spawns an orted on every job node,
// hands each its rank list, and waits for completions: `orterun <np>
// <ppn> <baseNode> <portBase> <prog> [appArgs...]`.
type orterunProg struct{}

func (orterunProg) Main(t *kernel.Task, args []string) {
	if len(args) < 5 {
		t.Printf("usage: orterun np ppn baseNode portBase prog args...\n")
		t.Exit(2)
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	np, ppn, base, port := atoi(args[0]), atoi(args[1]), atoi(args[2]), atoi(args[3])
	prog := args[4]
	appArgs := args[5:]
	t.MapLib("/usr/lib/orte.so", 5*model.MB)
	t.MapAnon("[heap]", 2*model.MB, model.ClassData)

	lfd, err := t.ListenTCP(DonePort)
	if err != nil {
		t.Printf("orterun: %v\n", err)
		t.Exit(1)
	}
	nodes := (np + ppn - 1) / ppn
	ra := RankArgs{
		Layout:   Layout{Size: np, PerNode: ppn, BaseNode: base, Port: port},
		DoneAddr: kernel.Addr{Host: t.P.Node.Hostname, Port: DonePort},
		AppArgs:  appArgs,
	}
	for i := 0; i < nodes; i++ {
		host := fmt.Sprintf("node%02d", base+i)
		if err := t.SSHSpawn(host, "orted",
			strconv.Itoa(i), joinArgs(ra.Format()), prog); err != nil {
			t.Printf("orterun: %s: %v\n", host, err)
			t.Exit(1)
		}
	}
	st := mpiexecState{np: np, listenFD: lfd}
	t.P.SaveState(encMPIExec(st))
	mpiexecWait(t, st)
}

func (orterunProg) Restore(t *kernel.Task, state []byte) {
	d := &bin.Decoder{B: state}
	st := mpiexecState{np: d.Int(), got: d.Int(), listenFD: d.Int()}
	mpiexecWait(t, st)
}

// ortedProg is the per-node OpenRTE daemon: it forks+execs its local
// ranks directly (no per-rank proxies) and stays resident.
type ortedProg struct{}

type ortedState struct {
	children []kernel.Pid
}

func encORTED(s ortedState) []byte {
	var e bin.Encoder
	e.U32(uint32(len(s.children)))
	for _, c := range s.children {
		e.I64(int64(c))
	}
	return e.B
}

func (ortedProg) Main(t *kernel.Task, args []string) {
	nodeIdx, _ := strconv.Atoi(args[0])
	ra, err := ParseRankArgs(splitArgs(args[1]))
	if err != nil {
		t.Exit(2)
	}
	prog := args[2]
	t.MapLib("/usr/lib/orted.so", 4*model.MB)
	t.MapAnon("[heap]", 2*model.MB, model.ClassData)
	var st ortedState
	for r := 0; r < ra.Layout.Size; r++ {
		if r/ra.Layout.PerNode != nodeIdx {
			continue
		}
		rr := ra
		rr.Rank = r
		argv := rr.Format()
		pid := t.ForkFn(prog, func(c *kernel.Task) {
			if err := c.Exec(prog, argv); err != nil {
				c.Exit(127)
			}
		})
		st.children = append(st.children, pid)
	}
	t.P.SaveState(encORTED(st))
	ortedWait(t, st)
}

func (ortedProg) Restore(t *kernel.Task, state []byte) {
	st, err := decORTED(state)
	if err != nil {
		t.Printf("orted: restore: %v\n", err)
		return
	}
	ortedWait(t, st)
}

func decORTED(b []byte) (ortedState, error) {
	d := &bin.Decoder{B: b}
	st := ortedState{children: make([]kernel.Pid, d.Count(8))}
	for i := range st.children {
		st.children[i] = kernel.Pid(d.I64())
	}
	return st, d.Err
}

func ortedWait(t *kernel.Task, st ortedState) {
	for _, c := range st.children {
		t.WaitPid(c)
	}
}
