// Package dmtcpsim is the public API of the DMTCP reproduction: a
// deterministic simulation of transparent distributed checkpointing
// for cluster computations and the desktop, after Ansel, Arya &
// Cooperman, "DMTCP: Transparent Checkpointing for Cluster
// Computations and the Desktop" (IPDPS 2009).
//
// A Sim wires together a virtual cluster (nodes, kernels, TCP
// network, disks), a DMTCP session (coordinator, per-process
// checkpoint managers injected via the simulated LD_PRELOAD), and the
// paper's workloads (21 desktop applications, MPICH2/OpenMPI resource
// managers, the NAS Parallel Benchmarks, ParGeant4, iPython).  The
// three shipped commands mirror the paper's user interface:
//
//	sim.Launch(node, prog, args...)   // dmtcp_checkpoint prog args
//	sim.Checkpoint(task)              // dmtcp_command --checkpoint
//	sim.Restart(task, round, place)   // dmtcp_restart script
//
// Custom applications implement Program (and Resumable to survive
// restarts); see examples/ for complete scenarios, including the
// paper's cluster-to-laptop migration and deadlock-revert use cases.
package dmtcpsim

import (
	"time"

	"repro/internal/dmtcp"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sim"
)

// Re-exported core types: these aliases are the supported public
// surface over the internal packages.
type (
	// Task is the calling thread inside a simulated process; programs
	// receive one and make all "system calls" through it.
	Task = kernel.Task
	// Process is a simulated OS process.
	Process = kernel.Process
	// Program is an executable registered with the cluster.
	Program = kernel.Program
	// Resumable is a Program that can continue from a restored
	// checkpoint (see kernel.Resumable for the resumable-program
	// convention: control state lives in the "[state]" memory area).
	Resumable = kernel.Resumable
	// ProgramFunc adapts a function to Program.
	ProgramFunc = kernel.ProgramFunc
	// Addr is a host:port address in the simulated network.
	Addr = kernel.Addr
	// NodeID identifies a cluster node.
	NodeID = kernel.NodeID
	// Cluster is the simulated machine room.
	Cluster = kernel.Cluster
	// Node is one simulated machine.
	Node = kernel.Node
	// FaultRule describes one injected network fault (partition, loss,
	// latency, connection refusal) between host sets; see
	// Cluster.InjectFault, HealFault, IsolateHost and PartitionHosts.
	FaultRule = kernel.FaultRule

	// Config selects checkpointing behavior (compression, fsync,
	// forked checkpointing, interval, checkpoint directory).
	Config = dmtcp.Config
	// CkptRound reports a completed cluster-wide checkpoint.
	CkptRound = dmtcp.CkptRound
	// RestartStages breaks a restart into Table-1b stages.
	RestartStages = dmtcp.RestartStages
	// Recovery reports one node-failure recovery drive.
	Recovery = dmtcp.Recovery
	// Placement maps original hostnames to restart nodes.
	Placement = dmtcp.Placement
	// StageTimes breaks a checkpoint into Table-1a stages.
	StageTimes = dmtcp.StageTimes
	// AwareAPI is the dmtcpaware programming interface (§3.1).
	AwareAPI = dmtcp.AwareAPI

	// Params is the calibrated performance model.
	Params = model.Params
	// MemClass characterizes memory compressibility.
	MemClass = model.MemClass

	// Engine is the discrete-event simulator.
	Engine = sim.Engine

	// Table is a rendered experiment result.
	Table = experiments.Table
	// Opts controls experiment scale.
	Opts = experiments.Opts

	// Tracer records virtual-time spans and per-node counters across
	// every layer; export with ChromeTrace (Perfetto) or Report.
	Tracer = obs.Tracer

	// CriticalPath is the analyzer's blocking-chain summary over a
	// trace: per checkpoint round and per restart, which node's which
	// stage bounded each barrier, per-node breakdowns, straggler
	// scores, and pipeline overlap efficiency.
	CriticalPath = analyze.Summary
)

// NewTracer returns an empty tracer; attach it via Options.Tracer (one
// tracer may observe several Sims — each New call starts a new run).
func NewTracer() *Tracer { return obs.NewTracer() }

// AnalyzeTrace runs the deterministic critical-path pass over
// everything the tracer has recorded.
func AnalyzeTrace(tr *Tracer) *CriticalPath { return analyze.Analyze(tr) }

// AttachAnalyzer appends the critical-path section to every subsequent
// tr.Report().
func AttachAnalyzer(tr *Tracer) { analyze.Attach(tr) }

// AnnotateFlows appends Perfetto flow arrows linking each round's (and
// restart's) consecutive blocking stage spans; call it after the
// simulation, before ChromeTrace.
func AnnotateFlows(tr *Tracer) { analyze.AnnotateFlows(tr) }

// Aware returns the dmtcpaware handle for a process (nil when the
// process does not run under DMTCP).
func Aware(p *Process) *AwareAPI { return dmtcp.Aware(p) }

// DirtyAppName is the registered synthetic workload that maps a large
// heap and idles; pair it with TouchHeap to drive controlled
// dirty-page rates against the incremental checkpoint store.
const DirtyAppName = experiments.DirtyAppName

// LazyAppName is the registered synthetic workload for post-copy
// restores: like DirtyAppName, but its Restore performs strided
// first-touch heap accesses that demand-fault against a lazy restart's
// background prefetch.
const LazyAppName = experiments.LazyAppName

// StragglerThreshold is the straggler score (node stage time over the
// round median) above which reports call a node out and the
// coordinator's response path boosts its next-round worker pool.
const StragglerThreshold = analyze.StragglerThreshold

// TouchHeap dirties frac of a process's heap chunks (salt rotates the
// working set deterministically between calls).
func TouchHeap(p *Process, frac float64, salt uint64) { experiments.TouchHeap(p, frac, salt) }

// Sim is a simulated cluster with a DMTCP session installed and every
// paper workload registered.
type Sim struct {
	Eng *Engine
	C   *Cluster
	Sys *dmtcp.System
}

// Options configures a new simulation.
type Options struct {
	// Seed drives the deterministic engine (default 1).
	Seed int64
	// Nodes is the cluster size (default 4).
	Nodes int
	// Checkpoint selects session-wide checkpointing behavior.
	Checkpoint Config
	// Jitter adds run-to-run variance (fraction, e.g. 0.06); zero
	// keeps runs bit-identical.
	Jitter float64
	// Tracer, when non-nil, records spans/counters from every layer of
	// this simulation in deterministic virtual time.
	Tracer *Tracer
}

// New builds a simulation ready to run scenarios.
func New(o Options) *Sim {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	env := experiments.NewEnv(o.Seed, o.Nodes, o.Checkpoint)
	env.C.Params.JitterPct = o.Jitter
	if o.Tracer != nil {
		o.Tracer.BeginRun()
		env.C.Trace = o.Tracer
	}
	return &Sim{Eng: env.Eng, C: env.C, Sys: env.Sys}
}

// Register adds a custom program to the cluster; implement Resumable
// so it survives restarts.
func (s *Sim) Register(name string, p Program) { s.C.Register(name, p) }

// Launch starts `dmtcp_checkpoint prog args...` on the given node.
func (s *Sim) Launch(node NodeID, prog string, args ...string) (*Process, error) {
	return s.Sys.Launch(node, prog, args...)
}

// Checkpoint requests a cluster-wide checkpoint from the calling task
// and blocks until it completes.
func (s *Sim) Checkpoint(t *Task) (*CkptRound, error) { return s.Sys.Checkpoint(t) }

// KillAll terminates every checkpointed process (the failure a
// restart recovers from); it returns how many were killed.
func (s *Sim) KillAll() int { return s.Sys.KillManaged() }

// Restart restores every process of a round, optionally on different
// nodes, and blocks until the computation is running again.
func (s *Sim) Restart(t *Task, round *CkptRound, place Placement) (*RestartStages, error) {
	return s.Sys.RestartAll(t, round, place)
}

// KillNode models a machine losing power: every process on the node
// dies and its local files (checkpoints included) are lost.  It
// returns the number of processes killed.
func (s *Sim) KillNode(id NodeID) int { return s.C.KillNode(id) }

// SlowNode dilates a node's per-core compute rate by factor (2 = half
// speed), modeling a straggler — thermal throttling, a failing disk,
// or a noisy neighbor.  It reports whether the host exists.
func (s *Sim) SlowNode(host string, factor float64) bool { return s.C.SlowNode(host, factor) }

// Recover drives node-failure recovery: the coordinator rolls the
// computation back to the newest fully-replicated checkpoint round and
// restarts the lost processes on a surviving replica holder.  Requires
// Config.Store and Config.ReplicaFactor.
func (s *Sim) Recover(t *Task) (*Recovery, error) { return s.Sys.Recover(t) }

// RestartScript renders the generated dmtcp_restart_script.sh for a
// round (§3).
func RestartScript(round *CkptRound) string { return dmtcp.RestartScript(round) }

// Run drives a scenario: fn runs as an orchestration task on node 0,
// with the whole cluster live; the simulation ends when fn returns.
func (s *Sim) Run(fn func(*Task)) {
	s.C.RegisterFunc("scenario", func(task *Task, _ []string) {
		task.Compute(2 * time.Millisecond) // let daemons come up
		fn(task)
		s.Eng.Stop()
	})
	if _, err := s.C.Node(0).Kern.Spawn("scenario", nil, nil); err != nil {
		panic(err)
	}
	if err := s.Eng.Run(); err != nil {
		panic(err)
	}
	s.Eng.Shutdown()
}

// Experiments: regenerate the paper's tables and figures.  Each
// returns a Table whose Render method prints the series.
var (
	RunFig3          = experiments.RunFig3
	RunFig4          = experiments.RunFig4
	RunFig5          = experiments.RunFig5
	RunFig6          = experiments.RunFig6
	RunTable1        = experiments.RunTable1
	RunRunCMS        = experiments.RunRunCMS
	RunSyncCost      = experiments.RunSyncCost
	RunForked        = experiments.RunForked
	RunBarrier       = experiments.RunBarrier
	RunDejaVu        = experiments.RunDejaVu
	RunStore         = experiments.RunStore
	RunFailover      = experiments.RunFailover
	RunCoordFailover = experiments.RunCoordFailover
	RunChaos         = experiments.RunChaos
	RunPipeline      = experiments.RunPipeline
	RunRestore       = experiments.RunRestore
	RunRestoreLazy   = experiments.RunRestoreLazy

	// Experiments lists every experiment in dmtcp-bench's order.
	Experiments = experiments.Catalog
	// Regenerate runs the listed experiments ("all" selects every one)
	// and returns their tables; with a tracer, each table embeds the
	// critical path of its own trials.
	Regenerate = experiments.Regenerate
	// DefaultOpts is dmtcp-bench's default scale (5 trials, seed
	// 1), at which every committed BENCH_*.json is generated.
	DefaultOpts = experiments.DefaultOpts
	// WriteTables encodes tables as dmtcp-bench's -json output,
	// the format of every committed BENCH_*.json.
	WriteTables = experiments.WriteTables
)
