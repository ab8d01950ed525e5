package kernel

import (
	"fmt"

	"repro/internal/bin"
	"repro/internal/sim"
)

// Kernel is the per-node operating system: process table, port
// tables, and pty allocation.
type Kernel struct {
	node *Node

	procs   map[Pid]*Process
	nextPid Pid

	tcpPorts   map[int]*ListenSock
	unixPaths  map[string]*ListenSock
	ptyTable   map[string]*Pty
	nextEphem  int
	nextPtyNum int
}

func newKernel(n *Node) *Kernel {
	return &Kernel{
		node:      n,
		procs:     make(map[Pid]*Process),
		nextPid:   1,
		tcpPorts:  make(map[int]*ListenSock),
		unixPaths: make(map[string]*ListenSock),
		ptyTable:  make(map[string]*Pty),
		nextEphem: 32768,
	}
}

// ptys returns the node's pty table.
func (k *Kernel) ptys() map[string]*Pty { return k.ptyTable }

// Node returns the node this kernel runs.
func (k *Kernel) Node() *Node { return k.node }

// allocProcess creates a process shell (no tasks yet).
func (k *Kernel) allocProcess(parent *Process, name string, args []string) *Process {
	k.nextPid++
	pid := k.nextPid
	e := k.node.Cluster.Eng
	p := &Process{
		Kern:      k,
		Node:      k.node,
		Pid:       pid,
		ProgName:  name,
		Args:      args,
		Env:       map[string]string{},
		Mem:       NewAddressSpace(),
		fds:       make(map[int]*OpenFile),
		children:  make(map[Pid]*Process),
		StartedAt: e.Now(),
	}
	p.childW = sim.NewWaitQueue(e, fmt.Sprintf("pid%d.wait", pid))
	p.CritW = sim.NewWaitQueue(e, fmt.Sprintf("pid%d.crit", pid))
	p.ResumeW = sim.NewWaitQueue(e, fmt.Sprintf("pid%d.resume", pid))
	p.ExitW = sim.NewWaitQueue(e, fmt.Sprintf("pid%d.exitw", pid))
	if parent != nil {
		p.PPid = parent.Pid
	} else {
		p.PPid = 1
	}
	// Standard descriptors 0,1,2 → console.
	cons := &OpenFile{Kind: FKConsole, Cons: &Console{proc: p}}
	for fd := 0; fd < 3; fd++ {
		p.fds[fd] = cons.incref()
	}
	k.procs[pid] = p
	return p
}

// Spawn creates and starts a process running the registered program,
// as if launched by init/a shell on this node.  env is copied.
func (k *Kernel) Spawn(prog string, args []string, env map[string]string) (*Process, error) {
	if k.node.Down {
		return nil, fmt.Errorf("kernel: spawn %q: node %s is down", prog, k.node.Hostname)
	}
	pr, ok := k.node.Cluster.Program(prog)
	if !ok {
		return nil, fmt.Errorf("kernel: spawn %q: program not found", prog)
	}
	p := k.allocProcess(nil, prog, args)
	p.Env = copyEnv(env)
	p.installHooks()
	p.startMain(func(t *Task) {
		t.charge(p.params().ExecCost)
		pr.Main(t, args)
	})
	return p, nil
}

// SpawnOrphan creates a process shell owned by init without starting
// any task; the DMTCP restart program uses it to rebuild processes
// from images.
func (k *Kernel) SpawnOrphan(prog string, args []string, env map[string]string) *Process {
	p := k.allocProcess(nil, prog, args)
	p.Env = copyEnv(env)
	return p
}

// Process returns the live process with the given pid.
func (k *Kernel) Process(pid Pid) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns the node's live processes in pid order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, pid := range bin.SortedKeys(k.procs) {
		p := k.procs[pid]
		if !p.Dead {
			out = append(out, p)
		}
	}
	return out
}

// Kill forcibly terminates a process (SIGKILL semantics).
func (k *Kernel) Kill(pid Pid) error {
	p, ok := k.procs[pid]
	if !ok || p.Dead {
		return fmt.Errorf("kernel: kill %d: no such process", pid)
	}
	p.terminate(9)
	return nil
}

// KillTree forcibly terminates a process and every live descendant,
// children first (kill -9 on a process group).  The DMTCP layer uses
// it to tear down a partially completed restart — the restart program
// plus whatever half-restored processes it had already forked.
func (k *Kernel) KillTree(pid Pid) {
	p, ok := k.procs[pid]
	if !ok || p.Dead {
		return
	}
	for _, cpid := range bin.SortedKeys(p.children) {
		k.KillTree(cpid)
	}
	p.terminate(9)
}

// Reparent makes child a kernel child of newParent.  The DMTCP
// restart program uses it to reconstruct the checkpointed parent-child
// relationships after forking every process from the restart program
// (§4.4 step 3; the paper lists parent-child relationships among the
// artifacts restored).
func (k *Kernel) Reparent(child, newParent *Process) {
	if old, ok := k.procs[child.PPid]; ok {
		delete(old.children, child.Pid)
	}
	child.PPid = newParent.Pid
	newParent.children[child.Pid] = child
}

// reap removes a zombie from the process table.
func (k *Kernel) reap(p *Process) {
	p.Dead = true
	delete(k.procs, p.Pid)
}

// ephemeralPort allocates a client-side port number.
func (k *Kernel) ephemeralPort() int {
	k.nextEphem++
	return k.nextEphem
}
