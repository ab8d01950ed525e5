// Package kernel implements the simulated operating-system substrate:
// a cluster of nodes, each running a virtual Linux-like kernel with
// processes, threads, file descriptors, TCP and UNIX-domain sockets,
// pipes, pseudo-terminals, shared memory, and a local filesystem
// backed by modeled disks.
//
// User programs are written against the syscall surface exposed by
// Task (the calling thread); every call can be interposed on by an
// installed Hooks implementation, which is how the DMTCP layer wraps
// libc functions in the paper.  Programs are registered with the
// Cluster by name and spawned with exec()-like semantics, including
// over a simulated sshd for remote process creation.
package kernel

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies a node within a cluster.
type NodeID int

// Cluster is a collection of simulated nodes joined by a network.
type Cluster struct {
	Eng    *sim.Engine
	Params *model.Params

	nodes    []*Node
	programs map[string]Program

	// HookFactory, when set, builds the syscall interposition object
	// for each process whose environment carries LDPreloadVar (the
	// simulation's LD_PRELOAD).  The DMTCP layer installs this.
	HookFactory func(p *Process) Hooks

	// nodeDownHooks are called in registration order after KillNode
	// has torn a node down, so upper layers can clear per-node
	// bookkeeping that would otherwise wedge on the dead node — and,
	// with coordinator HA, so standby coordinators learn the active
	// coordinator's node died and can run the takeover election.
	nodeDownHooks []func(n *Node)

	nextConnID int64
	nextShmID  int64

	// faults are the active network fault rules (see faults.go);
	// parkedEps lists endpoints holding partition-parked frames, in
	// park order so heal-time re-injection stays deterministic.
	faults      []*activeFault
	nextFaultID int
	parkedEps   []*TCPEndpoint

	// freeBufs is the free list of in-flight socket buffers given back
	// for reuse (see sockbuf.go): at most poolMaxBufs arrays of one to
	// poolMaxCapMul windows each, none referenced anywhere else.
	freeBufs [][]byte

	// SAN and NFS are the shared central-storage write paths used by
	// the Fig. 5b experiment; nodes route paths under /san to one of
	// them according to their mount table.
	SAN *flow.Pipe
	NFS *flow.Pipe
	// san is the central storage's namespace, which every node's
	// Store routes SAN paths (IsSANPath) to.
	san *Store

	// Trace, when non-nil, records virtual-time spans and counters
	// from every layer running on this cluster.  It may be attached at
	// any point before the simulation runs; a nil tracer disables all
	// recording (every obs method is nil-safe).
	Trace *obs.Tracer
}

// LDPreloadVar is the environment variable that triggers hook
// installation at process creation, mirroring LD_PRELOAD injection.
const LDPreloadVar = "LD_PRELOAD"

// HijackLib is the value dmtcp_checkpoint sets LDPreloadVar to.
const HijackLib = "dmtcphijack.so"

// NewCluster creates n nodes named node00..node(n-1) with local disks
// and a shared SAN/NFS back end, all parameterized by p.
func NewCluster(e *sim.Engine, p *model.Params, n int) *Cluster {
	c := &Cluster{
		Eng:      e,
		Params:   p,
		programs: make(map[string]Program),
	}
	c.SAN = flow.NewPipe(e, "san", p.SANBandwidth, p.SANBandwidth, 0)
	c.NFS = flow.NewPipe(e, "nfs", p.NFSBandwidth, p.NFSBandwidth, 0)
	c.san = NewStore(nil)
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, newNode(c, NodeID(i)))
	}
	return c
}

// Nodes returns the cluster's nodes in ID order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// LookupHost resolves a hostname to a node, or nil if unknown.
func (c *Cluster) LookupHost(host string) *Node {
	for _, n := range c.nodes {
		if n.Hostname == host {
			return n
		}
	}
	return nil
}

// Register adds a program to the cluster-wide "filesystem" under its
// name; Exec and Spawn resolve programs here.
func (c *Cluster) Register(name string, p Program) {
	if _, dup := c.programs[name]; dup {
		panic(fmt.Sprintf("kernel: program %q registered twice", name))
	}
	c.programs[name] = p
}

// RegisterFunc registers a plain function as a program.
func (c *Cluster) RegisterFunc(name string, fn func(t *Task, args []string)) {
	c.Register(name, ProgramFunc(fn))
}

// Program looks up a registered program.
func (c *Cluster) Program(name string) (Program, bool) {
	p, ok := c.programs[name]
	return p, ok
}

// Processes returns every live process in the cluster, ordered by
// (node, pid), for diagnostics and tests.
func (c *Cluster) Processes() []*Process {
	var out []*Process
	for _, n := range c.nodes {
		out = append(out, n.Kern.Processes()...)
	}
	return out
}

// KillNode is the fault injection a replicated checkpoint store must
// survive: it models a machine losing power.  Every process on the
// node is terminated (peers observe connection resets exactly as they
// would for a crashed host), the node's local filesystem contents are
// lost (files under /san live on central storage and survive), and the
// node is marked Down so that new spawns and connections fail.  It
// returns the number of processes that were killed.
func (c *Cluster) KillNode(id NodeID) int {
	n := c.nodes[id]
	if n.Down {
		return 0
	}
	n.Down = true
	killed := 0
	for _, p := range n.Kern.Processes() {
		p.terminate(9)
		killed++
	}
	// Local storage dies with the machine; central storage, the
	// cluster's own namespace, survives.
	n.FS.wipe()
	for _, hook := range c.nodeDownHooks {
		hook(n)
	}
	return killed
}

// AddNodeDownHook subscribes fn to node-death notifications; multiple
// layers (storage bookkeeping, replica service, coordinator standbys)
// each register their own.
func (c *Cluster) AddNodeDownHook(fn func(n *Node)) {
	c.nodeDownHooks = append(c.nodeDownHooks, fn)
}

// SlowNode is straggler fault injection: it dilates the named node's
// core rate by factor (2 means every compute charge takes twice as
// long), modeling a machine running slow rather than dead — thermal
// throttling, a failing disk controller eating CPU in retries, an
// unaccounted co-tenant.  In-flight compute charges slow down from the
// current instant; work already done is kept.  A factor <= 1 restores
// nominal speed.  It returns false if the host is unknown.
func (c *Cluster) SlowNode(host string, factor float64) bool {
	n := c.LookupHost(host)
	if n == nil {
		return false
	}
	speed := 1.0
	if factor > 1 {
		speed = 1 / factor
	}
	n.cpu.SetSpeed(speed)
	return true
}

// Node is a single machine: a kernel, local disks, and a filesystem.
type Node struct {
	ID       NodeID
	Hostname string
	Cluster  *Cluster
	Kern     *Kernel

	// Down marks a node killed by Cluster.KillNode: its processes are
	// gone, its local files lost, and spawns/connections to it fail.
	Down bool

	// Cores is the number of CPU cores the node models
	// (model.Params.CoresPerNode; the paper's nodes are dual-socket
	// dual-core Xeon 5130s, §5.2).  Concurrent Task.Compute charges
	// contend for them through the core scheduler; 0 disables
	// accounting (every charge gets a free dedicated processor).
	Cores int
	cpu   *CPUSched

	// DiskW is the local-disk write path (page-cache absorb then
	// physical drain); DiskR the streaming read path.
	DiskW *flow.Pipe
	DiskR *flow.Pipe

	// FS is the node-local filesystem.
	FS *Store

	// SANDirect marks the node as directly attached to the SAN (the
	// paper's cluster had 8 such nodes; the rest reached the central
	// volume over NFS).
	SANDirect bool
}

func newNode(c *Cluster, id NodeID) *Node {
	p := c.Params
	n := &Node{
		ID:       id,
		Hostname: fmt.Sprintf("node%02d", id),
		Cluster:  c,
		Cores:    p.CoresPerNode,
	}
	n.cpu = newCPUSched(n, n.Cores)
	n.DiskW = flow.NewWriteBack(c.Eng, n.Hostname+".diskw", p.DiskAbsorbBW, p.DiskPhysicalBW,
		float64(p.PageCacheBytes), float64(p.DirtyBackgroundBytes()))
	n.DiskR = flow.NewPipe(c.Eng, n.Hostname+".diskr",
		p.DiskReadBW, p.DiskReadBW, 0)
	n.FS = NewStore(n)
	n.Kern = newKernel(n)
	return n
}

// CPU returns the node's core scheduler.
func (n *Node) CPU() *CPUSched { return n.cpu }

// WritePipeFor returns the bandwidth server charged for writing at
// path: the shared SAN volume for central paths (IsSANPath; direct or
// via NFS depending on attachment), the local disk otherwise.
func (n *Node) WritePipeFor(path string) *flow.Pipe {
	if IsSANPath(path) {
		if n.SANDirect {
			return n.Cluster.SAN
		}
		return n.Cluster.NFS
	}
	return n.DiskW
}

// ReadPipeFor is the read-side analogue of WritePipeFor.
func (n *Node) ReadPipeFor(path string) *flow.Pipe {
	if IsSANPath(path) {
		if n.SANDirect {
			return n.Cluster.SAN
		}
		return n.Cluster.NFS
	}
	return n.DiskR
}

// netDelayTo returns latency and bandwidth for a flow from n to dst.
func (n *Node) netDelayTo(dst *Node) (lat float64, bw float64) {
	p := n.Cluster.Params
	if n == dst {
		return float64(p.LoopbackLatency), p.LoopbackBandwidth
	}
	return float64(p.NetLatency), p.NetBandwidth
}
