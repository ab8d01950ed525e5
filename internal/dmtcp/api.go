package dmtcp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/replica"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config selects session-wide checkpointing behavior.
type Config struct {
	// CoordNode and CoordPort locate the checkpoint coordinator.
	CoordNode kernel.NodeID
	CoordPort int
	// CkptDir is where checkpoint images are written; paths under
	// /san go to central storage (Fig. 5b).
	CkptDir string
	// Compress enables the gzip pipeline (the DMTCP default).
	Compress bool
	// Fsync issues a sync after each checkpoint (§5.2).
	Fsync bool
	// Forked enables forked checkpointing (§5.3).
	Forked bool
	// Interval enables periodic checkpoints (--interval).
	Interval time.Duration

	// CkptWorkers is the number of parallel writer tasks each process
	// partitions its checkpoint across (hashing, compression, chunk
	// writes), and symmetrically the restore/fetch pool at restart,
	// including a lazy restore's post-copy installers.  The kernel's
	// per-node core accounting keeps the speedup honest: workers
	// beyond Node.Cores buy nothing.
	//
	// 0 means AUTO for the store pipeline: each pool sizes itself from
	// the node's observed idle cores at the moment it starts (the core
	// scheduler's Runnable count), so a checkpoint beside a busy
	// co-tenant sizes down instead of oversubscribing, and a restore
	// on an idle node uses the whole machine.  The monolithic
	// (non-store) paper paths keep 0 == serial, so the Table 1 / Fig. 4
	// anchors stay paper-faithful.
	CkptWorkers int

	// LazyRestore flips store-mode restarts from pre-copy to
	// post-copy: dmtcp_restart installs only a minimal skeleton (the
	// manifest header, files, conns, and the hottest few chunks) and
	// resumes the processes immediately; a first-touch access to a
	// not-yet-installed chunk blocks just that thread while the chunk
	// is pulled on demand, and a background prefetcher drains the
	// remainder hottest-first, striped across every placement-verified
	// complete holder, into a pool of installers sized as the
	// skeleton's install pool (CkptWorkers, or the idle cores when it
	// is 0).  RestartStages then reports ResumePause (the
	// user-visible pause) separately from the PrefetchDrain tail;
	// Total covers both.  Needs the replica service (ReplicaFactor);
	// without it restarts stay eager.
	LazyRestore bool
	// LazyHolders caps how many holders the lazy prefetcher stripes
	// across (0 = all placement-verified complete holders); holders
	// past the cap are failover spares.  The restore benchmark's
	// single-holder column sets 1.
	LazyHolders int

	// Store routes checkpoint images through the content-addressed
	// chunk store under CkptDir/store: each generation writes only
	// chunks not already present (incremental checkpointing), and the
	// coordinator garbage-collects unreferenced chunks after every
	// committed round.
	Store bool
	// StoreKeep is the retention policy applied at coordinator GC
	// time: generations to keep per process image (0 keeps all).
	StoreKeep int

	// ReplicaFactor, when > 0 (and Store is enabled), runs the
	// replicated checkpoint storage service: a dmtcp_replicad daemon
	// on every node, with each committed generation asynchronously
	// copied to this many peer nodes so checkpoints survive the loss
	// of the machine that wrote them.  Replication is dedup-aware:
	// only chunks a peer lacks travel.
	ReplicaFactor int
	// AutoRecover makes the coordinator drive failure recovery on its
	// own: when it observes a client die because its node went down,
	// it rolls the computation back to the newest fully-replicated
	// checkpoint round and restarts the lost processes on a surviving
	// replica holder.  Without it, recovery runs when the harness
	// calls System.Recover.
	AutoRecover bool

	// CoordStandbys, when > 0, runs coordinator HA: that many standby
	// coordinator processes on ring peers of CoordNode, each replaying
	// the leader's journaled state machine (shipped through the
	// replica daemons).  When the coordinator's node dies, the
	// surviving standby with the lowest node id takes over; live
	// managers reconnect and resync with it mid-computation, and
	// System.Recover tolerates the coordinator node being among the
	// dead.
	CoordStandbys int
}

func (c *Config) fillDefaults() {
	if c.CoordPort == 0 {
		c.CoordPort = DefaultCoordPort
	}
	if c.CkptDir == "" {
		c.CkptDir = "/ckpt"
	}
}

// System is one DMTCP session over a simulated cluster: the installed
// wrappers, the coordinator, and the registry of managed processes.
type System struct {
	C   *kernel.Cluster
	Cfg Config

	// Coord is the ACTIVE coordinator instance; after a takeover it
	// points at the promoted standby.
	Coord *Coordinator
	// coords is every coordinator instance: the initial leader first,
	// then the Config.CoordStandbys standbys in ring order.
	coords []*Coordinator
	// doneW wakes harness tasks waiting for round/restart/takeover
	// completion, across coordinator instances.
	doneW *sim.WaitQueue
	// pendingEv buffers journal events raised while the leader is dead
	// and a takeover is pending (replication completions, mostly);
	// promote drains them into the new leader's journal.
	pendingEv []coordstate.Event

	// Replica is the replicated checkpoint storage service (nil unless
	// Config.Store and Config.ReplicaFactor — or Config.CoordStandbys,
	// whose journal replication rides the same daemons — enable it).
	Replica *replica.Service

	ofid       int64
	restartGen int64
	// restart collects the reports of the RestartAll in flight.
	restart *restartRun
	// reports holds the in-process checkpoint reports not yet joined
	// into a record (round tag → manager identity → report); records
	// holds each completed round's record by tag (see roundRecords).
	reports map[int64]map[string]*ckptReport
	records map[int64]*CkptRound

	// byVirt maps "host/virtpid" to the live managed process.
	byVirt   map[string]*Manager
	managers map[*kernel.Process]*Manager

	// shm registry: "host/backing" → restored segment (shared among
	// processes restored on the same host, §4.5).
	shm map[string]*kernel.ShmSegment

	// storeNodes records every node whose chunk store received a
	// write this session: GC must keep revisiting nodes processes
	// have migrated away from, which round image lists alone miss.
	storeNodes map[*kernel.Node]bool
	// storeBusy counts in-flight background (forked) store writers
	// per node; GC defers on stores with uncommitted writers so it
	// can never sweep chunks a child is about to reference.
	storeBusy map[*kernel.Node]int
}

// Install wires a DMTCP session into the cluster: registers the
// dmtcp_* programs and installs the hook factory that injects a
// Manager into every process whose environment carries LD_PRELOAD.
func Install(c *kernel.Cluster, cfg Config) *System {
	cfg.fillDefaults()
	sys := &System{
		C:          c,
		Cfg:        cfg,
		byVirt:     make(map[string]*Manager),
		managers:   make(map[*kernel.Process]*Manager),
		shm:        make(map[string]*kernel.ShmSegment),
		storeNodes: make(map[*kernel.Node]bool),
		storeBusy:  make(map[*kernel.Node]int),
		reports:    make(map[int64]map[string]*ckptReport),
		records:    make(map[int64]*CkptRound),
	}
	coordNode := c.Node(cfg.CoordNode)
	sys.doneW = sim.NewWaitQueue(c.Eng, "coord.done")
	sys.coords = []*Coordinator{newCoordinator(sys, coordNode, cfg.CoordPort, false)}
	for _, n := range standbyNodes(c, coordNode, cfg.CoordStandbys) {
		sys.coords = append(sys.coords, newCoordinator(sys, n, cfg.CoordPort, true))
	}
	sys.Coord = sys.coords[0]
	c.HookFactory = func(p *kernel.Process) kernel.Hooks { return newManager(sys, p) }
	c.AddNodeDownHook(func(n *kernel.Node) {
		// The node's forked writers and chunk store died with it:
		// clear the bookkeeping so GC neither waits on nor sweeps a
		// dead machine.
		delete(sys.storeBusy, n)
		delete(sys.storeNodes, n)
	})
	if cfg.Store && cfg.ReplicaFactor > 0 {
		c.AddNodeDownHook(func(n *kernel.Node) {
			// The dead node's replica copies are gone: re-scan the
			// placement map for degraded generations and restore
			// redundancy in the background.  A dead coordinator node is
			// the takeover path's problem — promote() re-arms repair.
			if sys.Coord != nil && !sys.Coord.Node.Down {
				sys.Coord.spawnRepair()
			}
		})
	}
	if len(sys.coords) > 1 {
		c.AddNodeDownHook(sys.onCoordNodeDown)
	}
	if (cfg.Store && cfg.ReplicaFactor > 0) || cfg.CoordStandbys > 0 {
		sys.Replica = replica.Install(c, replica.Config{
			Factor: cfg.ReplicaFactor,
			Root:   sys.StoreRoot(),
		})
		sys.Replica.OnReplicated = func(name string, gen int64, holder string) {
			sys.applyCoordEvent(coordstate.Event{Kind: coordstate.EvReplicated,
				Name: name, Gen: gen, Holder: holder})
		}
		sys.Replica.OnWatermark = func(name string, gen int64, _ string) {
			sys.applyCoordEvent(coordstate.Event{Kind: coordstate.EvWatermark,
				Name: name, Gen: gen})
		}
		sys.Replica.OnCorrupt = func(_ *kernel.Task, host string, ref store.ChunkRef) {
			// A scrubbed-out (quarantined) chunk leaves its holder
			// incomplete; the repair scan sees the hole and re-sources
			// the generation from a clean holder.
			if sys.Coord != nil && !sys.Coord.Node.Down {
				sys.Coord.spawnRepair()
			}
		}
	}

	c.RegisterFunc("dmtcp_coordinator", sys.coordinatorMain)
	c.RegisterFunc("dmtcp_checkpoint", sys.checkpointMain)
	c.RegisterFunc("dmtcp_command", sys.commandMain)
	c.RegisterFunc("dmtcp_restart", sys.restartMain)
	return sys
}

// standbyNodes picks the standby coordinator placements: the next
// `want` live ring peers after the coordinator's node.
func standbyNodes(c *kernel.Cluster, coordNode *kernel.Node, want int) []*kernel.Node {
	nodes := c.Nodes()
	var out []*kernel.Node
	for i := 1; i < len(nodes) && len(out) < want; i++ {
		n := nodes[(int(coordNode.ID)+i)%len(nodes)]
		if n == coordNode {
			continue
		}
		out = append(out, n)
	}
	return out
}

// coordinatorMain dispatches the dmtcp_coordinator program to the
// instance bound to the node it was spawned on (leader or standby).
func (s *System) coordinatorMain(t *kernel.Task, args []string) {
	for _, co := range s.coords {
		if co.Node == t.P.Node {
			co.main(t, args)
			return
		}
	}
	t.Printf("dmtcp_coordinator: no coordinator instance bound to %s\n", t.P.Node.Hostname)
	t.Exit(1)
}

// applyCoordEvent journals a side-effect-free event (placement and
// watermark updates raised by the replica service) against the active
// coordinator.  While the leader is dead and a takeover pending, the
// event is buffered and drained into the new leader's journal at
// promotion, so the standby's placement map misses nothing.
func (s *System) applyCoordEvent(ev coordstate.Event) {
	if s.Coord.Node.Down && s.nextCoordinator() != nil {
		s.pendingEv = append(s.pendingEv, ev)
		return
	}
	s.Coord.Mach.Apply(ev)
	s.Coord.shipW.WakeAll()
}

// SpawnCoordinator starts the coordinator process (and the standby
// coordinators), plus the per-node replica daemons when the
// replicated storage service or coordinator HA is enabled.
func (s *System) SpawnCoordinator() error {
	for _, co := range s.coords {
		p, err := co.Node.Kern.Spawn("dmtcp_coordinator", nil, nil)
		if err != nil {
			return err
		}
		co.proc = p
		if co.Standby && s.Replica != nil {
			// The standby's replica daemon feeds pushed journal
			// records straight into its state machine.
			s.Replica.SetJournalSink(co.Node, co.Mach)
		}
	}
	if s.Replica != nil {
		if err := s.Replica.StartAll(); err != nil {
			return err
		}
	}
	return nil
}

// coordAddr returns the ACTIVE coordinator's address; after a
// takeover it points at the promoted standby, which is how manager
// reconnect loops find the new leader.
func (s *System) coordAddr() kernel.Addr { return s.Coord.Addr() }

// haEnabled reports whether standby coordinators exist for takeover.
func (s *System) haEnabled() bool { return len(s.coords) > 1 }

// StoreRoot returns the configured chunk-store root under the
// checkpoint directory.
func (s *System) StoreRoot() string { return s.Cfg.CkptDir + "/store" }

// StoreOn returns a handle to the session's chunk store on the given
// node (stores under /san are one shared namespace; local checkpoint
// directories get one store per node).
func (s *System) StoreOn(n *kernel.Node) *store.Store {
	return store.Open(n, store.Config{
		Root:     s.StoreRoot(),
		Compress: s.Cfg.Compress,
	})
}

// noteStoreWrite registers n as hosting session checkpoint data.
func (s *System) noteStoreWrite(n *kernel.Node) { s.storeNodes[n] = true }

// storeNodesSorted returns every registered store node in node-ID
// order (deterministic GC sweeps).
func (s *System) storeNodesSorted() []*kernel.Node {
	out := make([]*kernel.Node, 0, len(s.storeNodes))
	for n := range s.storeNodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *System) storeWriterInc(n *kernel.Node) { s.storeBusy[n]++ }

func (s *System) storeWriterDec(n *kernel.Node) {
	if s.storeBusy[n] > 0 {
		s.storeBusy[n]--
	}
}

func (s *System) storeBusyTotal() int {
	total := 0
	for _, v := range s.storeBusy {
		total += v
	}
	return total
}

// fetchHostFor picks the replica daemon a restart on target should
// pull manifestPath from: the original writer when it is alive, else
// any live replica holder that has the generation.
func (s *System) fetchHostFor(manifestPath string, src, target *kernel.Node) string {
	if src != nil && !src.Down && src != target {
		return src.Hostname
	}
	name, gen, ok := store.NameForManifest(manifestPath)
	if !ok {
		return ""
	}
	pi := s.Coord.st().Placement[name]
	if pi == nil {
		return ""
	}
	for _, h := range s.Coord.candidateHolders(pi, gen) {
		if target != nil && h == target.Hostname {
			continue
		}
		if s.Coord.holderComplete(h, name, gen) {
			return h
		}
	}
	return ""
}

// CheckpointEnv returns the environment dmtcp_checkpoint gives target
// programs: library injection plus coordinator location.
func (s *System) CheckpointEnv() map[string]string {
	return map[string]string{
		kernel.LDPreloadVar: kernel.HijackLib,
		"DMTCP_HOST":        s.Coord.Node.Hostname,
		"DMTCP_PORT":        strconv.Itoa(s.Coord.Port),
	}
}

// Launch spawns `dmtcp_checkpoint prog args...` on the given node —
// the paper's command-line entry point (§3).
func (s *System) Launch(node kernel.NodeID, prog string, args ...string) (*kernel.Process, error) {
	argv := append([]string{prog}, args...)
	return s.C.Node(node).Kern.Spawn("dmtcp_checkpoint", argv, s.CheckpointEnv())
}

// checkpointMain is the dmtcp_checkpoint program: inject and exec.
func (s *System) checkpointMain(t *kernel.Task, args []string) {
	if len(args) == 0 {
		t.Printf("usage: dmtcp_checkpoint <program> [args...]\n")
		t.Exit(2)
	}
	for k, v := range s.CheckpointEnv() {
		t.P.Env[k] = v
	}
	if err := t.Exec(args[0], args[1:]); err != nil {
		t.Printf("dmtcp_checkpoint: %v\n", err)
		t.Exit(127)
	}
}

// commandMain is the dmtcp_command program (§3).
func (s *System) commandMain(t *kernel.Task, args []string) {
	if len(args) == 0 {
		t.Printf("usage: dmtcp_command --checkpoint|--status|--quit\n")
		t.Exit(2)
	}
	fd, _, err := s.dialCoord(t, retry.Policy{}, nil)
	if err != nil {
		t.Printf("dmtcp_command: %v\n", err)
		t.Exit(1)
	}
	defer t.Close(fd)
	switch args[0] {
	case "--checkpoint", "-c":
		t.SendFrame(fd, []byte{msgCheckpoint})
		if _, err := t.RecvFrame(fd); err != nil {
			t.Exit(1)
		}
	case "--status", "-s":
		t.SendFrame(fd, []byte{msgStatus})
		frame, err := t.RecvFrame(fd)
		if err == nil && len(frame) > 1 {
			d := &bin.Decoder{B: frame[1:]}
			t.Printf("clients=%d rounds=%d\n", d.Int(), d.Int())
		}
	case "--quit", "-q":
		t.SendFrame(fd, []byte{msgQuit})
	default:
		t.Printf("dmtcp_command: unknown option %s\n", args[0])
		t.Exit(2)
	}
}

// RoundLostError reports that an in-flight checkpoint round was
// genuinely lost: the coordinator died with no live standby to resume
// it, or every retry against promoted leaders failed.  With a standby
// available, a mid-round takeover *resumes* the round under the new
// leader and Checkpoint returns normally — callers see this error
// only when resume is impossible.
type RoundLostError struct {
	// Tag identifies the lost round (-1 when no round had started).
	Tag int64
	// Phase is the furthest stage the round had reached ("idle" when
	// it was still gathering its first arrivals).
	Phase string
	// Err is the underlying failure.
	Err error
}

func (e *RoundLostError) Error() string {
	return fmt.Sprintf("dmtcp: round tag=%d lost at phase %q: %v", e.Tag, e.Phase, e.Err)
}

func (e *RoundLostError) Unwrap() error { return e.Err }

// roundLost wraps err with the identity of the in-flight round (tag
// and phase) read from the coordinator's replicated state, typed so
// callers can tell lost work from plain request failures.
func (s *System) roundLost(err error) error {
	e := &RoundLostError{Tag: -1, Phase: "idle", Err: err}
	if r := s.Coord.st().Round; r != nil {
		e.Tag = r.Tag
		e.Phase = coordstate.RoundPhase(r)
	}
	return e
}

// Checkpoint requests a cluster-wide checkpoint from driver task t
// and blocks until the round completes, returning its stats.  With
// coordinator standbys configured, a request interrupted by the
// coordinator's death waits for the promoted standby to *resume* the
// inherited round; only when no leader survives (or every retry
// fails) does it give up, with a typed *RoundLostError.
func (s *System) Checkpoint(t *kernel.Task) (*CkptRound, error) {
	want := len(s.Coord.Rounds()) + 1
	for attempt := 0; ; attempt++ {
		err := s.checkpointOnce(t)
		if err == nil {
			if rounds := s.Coord.Rounds(); len(rounds) >= want {
				return rounds[want-1], nil
			}
			return nil, fmt.Errorf("dmtcp: round did not complete")
		}
		if len(s.coords) <= 1 {
			return nil, err
		}
		if attempt >= 3 {
			return nil, s.roundLost(err)
		}
		// The coordinator died under the request: wait for the standby
		// takeover.
		deadline := t.Now().Add(s.C.Params.CoordRetryWindow)
		for s.Coord.Node.Down && t.Now() < deadline {
			s.doneW.WaitTimeout(t.T, 20*time.Millisecond)
		}
		if s.Coord.Node.Down {
			return nil, s.roundLost(fmt.Errorf("dmtcp: coordinator lost with no live standby: %w", err))
		}
		// The promoted standby resumes an inherited in-flight round
		// (and drains queued requests) rather than aborting: wait for
		// that work to finish before judging the request satisfied.
		if lerr := s.awaitRound(t); lerr != nil {
			return nil, lerr
		}
		if rounds := s.Coord.Rounds(); len(rounds) >= want {
			return rounds[want-1], nil
		}
		// The request died before the old leader journaled it (no round
		// ever started): re-anchor on what the new leader knows and
		// re-issue.
		if rounds := s.Coord.Rounds(); len(rounds)+1 < want {
			want = len(rounds) + 1
		}
	}
}

// awaitRound blocks while the current leader drives an inherited
// in-flight round (or a queued request) to completion; it survives
// further takeovers as long as some leader remains to resume.
func (s *System) awaitRound(t *kernel.Task) error {
	for {
		st := s.Coord.st()
		if st.Round == nil && st.PendingCkpt == 0 {
			return nil
		}
		if s.Coord.Node.Down {
			deadline := t.Now().Add(s.C.Params.CoordRetryWindow)
			for s.Coord.Node.Down && t.Now() < deadline {
				s.doneW.WaitTimeout(t.T, 20*time.Millisecond)
			}
			if s.Coord.Node.Down {
				return s.roundLost(fmt.Errorf("dmtcp: coordinator lost mid-round with no live standby"))
			}
			continue
		}
		s.doneW.WaitTimeout(t.T, 20*time.Millisecond)
	}
}

// checkpointOnce issues one checkpoint request against the current
// coordinator and waits for its completion frame.
func (s *System) checkpointOnce(t *kernel.Task) error {
	fd, _, err := s.dialCoord(t, retry.Policy{}, nil)
	if err != nil {
		return fmt.Errorf("dmtcp: checkpoint request: %w", err)
	}
	defer t.Close(fd)
	if err := t.SendFrame(fd, []byte{msgCheckpoint}); err != nil {
		return err
	}
	if _, err := t.RecvFrame(fd); err != nil {
		return fmt.Errorf("dmtcp: waiting for checkpoint: %w", err)
	}
	return nil
}

// NumManaged returns the number of live checkpointable processes.
func (s *System) NumManaged() int { return len(s.managers) }

// ManagedProcesses returns the live checkpointed processes, ordered
// by (node, pid) for determinism.
func (s *System) ManagedProcesses() []*kernel.Process {
	out := make([]*kernel.Process, 0, len(s.managers))
	for p := range s.managers {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && procLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func procLess(a, b *kernel.Process) bool {
	if a.Node.ID != b.Node.ID {
		return a.Node.ID < b.Node.ID
	}
	return a.Pid < b.Pid
}

// KillManaged terminates every checkpointed process — the crash (or
// intentional shutdown) that a restart recovers from.
func (s *System) KillManaged() int {
	killed := 0
	for _, p := range s.ManagedProcesses() {
		if !p.Dead && !p.Zombie {
			p.Kern.Kill(p.Pid)
			killed++
		}
	}
	return killed
}

// Placement maps original hostnames to restart nodes; nil entries (or
// a nil map) restart in place.
type Placement map[string]kernel.NodeID

// RestartAll restarts every process of a checkpoint round from its
// images, optionally on different nodes, and blocks until the whole
// computation is running again.  It returns the aggregated restart
// stage times (Table 1b), or the first restart program's fatal error
// wrapped with its type intact.
func (s *System) RestartAll(t *kernel.Task, round *CkptRound, place Placement) (*RestartStages, error) {
	if round == nil || len(round.Images) == 0 {
		return nil, fmt.Errorf("dmtcp: empty round")
	}
	// Restart programs need a live coordinator (discovery and group
	// barriers).  With standbys configured, wait out a pending
	// takeover; without one, fail fast instead of spawning restarts
	// that can only wedge.
	if s.Coord.Node.Down && s.haEnabled() {
		p := s.C.Params
		deadline := t.Now().Add(p.FailureDetectDelay + p.ElectionTimeout + p.CoordRetryWindow)
		for s.Coord.Node.Down && t.Now() < deadline {
			s.doneW.WaitTimeout(t.T, 20*time.Millisecond)
		}
	}
	if s.Coord.Node.Down {
		return nil, fmt.Errorf("dmtcp: restart requires a live coordinator (node %s is down)", s.Coord.Node.Hostname)
	}
	byHost := make(map[string][]ImageInfo)
	var hosts []string
	for _, img := range round.Images {
		if _, seen := byHost[img.Host]; !seen {
			hosts = append(hosts, img.Host)
		}
		byHost[img.Host] = append(byHost[img.Host], img)
	}
	s.restartGen++
	gen := s.restartGen
	// Resolve every host's restart target up front: the journaled
	// restart-group event names each rank by its image path (unique
	// per process even when every host restarts onto one target node),
	// so a standby promoted mid-restart can re-arm the group barriers
	// with the exact membership this restart presents.
	targets := make(map[string]*kernel.Node, len(hosts))
	ranks := make([]string, 0, len(round.Images))
	for _, host := range hosts {
		target := s.C.LookupHost(host)
		if place != nil {
			if nid, ok := place[host]; ok {
				target = s.C.Node(nid)
			}
		}
		if target == nil {
			return nil, fmt.Errorf("dmtcp: unknown host %q", host)
		}
		targets[host] = target
		for _, img := range byHost[host] {
			ranks = append(ranks, img.Path)
		}
	}
	run := &restartRun{gen: strconv.FormatInt(gen, 10)}
	s.restart = run
	s.applyCoordEvent(coordstate.Event{
		Kind:   coordstate.EvRestartGroup,
		Name:   run.gen,
		Expect: len(round.Images),
		Hosts:  ranks,
	})
	// However RestartAll returns — every host reported, one failed, or
	// a spawn step gave up — the group is over: a later takeover must
	// not resume it.
	defer s.applyCoordEvent(coordstate.Event{Kind: coordstate.EvRestartDone, Name: run.gen})
	// The group is a synchronous journal commit, like a barrier
	// release: once restart programs are spawned, a leader death must
	// leave a standby that knows the group exists, or the half-done
	// restart could never be resumed.
	if !s.Coord.Node.Down {
		s.Coord.commitBarrier(t)
	}

	var spawned []*kernel.Process
	for _, host := range hosts {
		imgs := byHost[host]
		env, err := s.stageImages(host, imgs, targets[host])
		if err != nil {
			return nil, err
		}
		args := []string{strconv.Itoa(len(round.Images)), run.gen}
		for _, img := range imgs {
			args = append(args, img.Path)
		}
		rp, err := targets[host].Kern.Spawn("dmtcp_restart", args, env)
		if err != nil {
			return nil, err
		}
		spawned = append(spawned, rp)
	}
	for run.err == nil && len(run.reports) < len(hosts) {
		s.doneW.Wait(t.T)
	}
	if run.err != nil {
		// One host's restart failed: tear down the sibling restart
		// programs and whatever half-restored processes they already
		// forked, so nothing keeps the round's ports or blocks forever
		// at the restart barriers, and a retry starts clean.
		for _, rp := range spawned {
			if !rp.Dead && !rp.Zombie {
				rp.Kern.KillTree(rp.Pid)
			}
		}
		return nil, fmt.Errorf("dmtcp: restart failed: %w", run.err)
	}
	return aggregateRestarts(run.reports), nil
}

// stageImages makes host's images visible on the restart target (the
// paper's restart script assumes images are reachable; /san paths
// already are) and returns the restart program's environment.  With
// the replica service running, chunked images are not copied here: the
// restart program pulls the manifest and only the chunks the target
// lacks from a replica daemon, on the target node, over the network —
// the same fetch path node-failure recovery rides.
func (s *System) stageImages(host string, imgs []ImageInfo, target *kernel.Node) (map[string]string, error) {
	src := s.C.LookupHost(host)
	var env map[string]string
	for _, img := range imgs {
		if store.IsManifestPath(img.Path) {
			if s.Replica != nil {
				if env == nil {
					if from := s.fetchHostFor(img.Path, src, target); from != "" {
						env = map[string]string{fetchFromEnv: from}
					}
				}
				continue
			}
			if src == target {
				continue
			}
			if src == nil || src.Down {
				return nil, fmt.Errorf("dmtcp: images of %s died with the node (no replica service)", host)
			}
			// Chunked image: replicate the manifest and every chunk it
			// references that the target lacks.
			if root, ok := store.RootForManifest(img.Path); ok {
				sst := store.Open(src, store.Config{Root: root})
				dst := store.Open(target, store.Config{Root: root})
				if err := sst.CopyTo(dst, img.Path); err != nil {
					return nil, fmt.Errorf("dmtcp: migrate %s: %w", img.Path, err)
				}
			}
			continue
		}
		if src == target {
			continue
		}
		if src == nil || src.Down {
			return nil, fmt.Errorf("dmtcp: images of %s died with the node (no replica service)", host)
		}
		if ino, err := src.FS.ReadFile(img.Path); err == nil && !target.FS.Exists(img.Path) {
			target.FS.WriteFile(img.Path, ino.Data, ino.LogicalSize)
		}
	}
	return env, nil
}

// restartRun is one RestartAll in flight: the stage report each of
// its dmtcp_restart programs (one per origin host) hands over in
// process, or the first fatal error.
type restartRun struct {
	gen     string
	reports []RestartStages
	err     error
}

// reportRestart hands one dmtcp_restart's outcome — its host's stage
// times, or its fatal error — to the RestartAll that spawned it.  A
// report for an older generation (a sibling of a failed restart still
// dying) is dropped.
func (s *System) reportRestart(gen string, st RestartStages, err error) {
	run := s.restart
	if run == nil || run.gen != gen {
		return
	}
	if err == nil {
		run.reports = append(run.reports, st)
	} else if run.err == nil {
		run.err = err
	}
	s.doneW.WakeAll()
}

// aggregateRestarts folds the per-host reports into Table 1b.  Per the
// paper, the per-host stages (files, conns) are averaged across hosts;
// the globally synchronized stages, the fetch wall time and the pool
// size take the max; bytes, chunks and faults are summed.
func aggregateRestarts(reports []RestartStages) *RestartStages {
	var agg RestartStages
	for _, r := range reports {
		agg.Files += r.Files
		agg.Conns += r.Conns
		agg.Memory = max(agg.Memory, r.Memory)
		agg.Refill = max(agg.Refill, r.Refill)
		agg.Total = max(agg.Total, r.Total)
		agg.Fetch = max(agg.Fetch, r.Fetch)
		agg.FetchedBytes += r.FetchedBytes
		agg.FetchedChunks += r.FetchedChunks
		agg.Workers = max(agg.Workers, r.Workers)
		agg.OverlapBytes += r.OverlapBytes
		agg.ResumePause = max(agg.ResumePause, r.ResumePause)
		agg.PrefetchDrain = max(agg.PrefetchDrain, r.PrefetchDrain)
		agg.DemandBytes += r.DemandBytes
		agg.PrefetchBytes += r.PrefetchBytes
		agg.DemandFaults += r.DemandFaults
	}
	n := time.Duration(len(reports))
	agg.Files /= n
	agg.Conns /= n
	return &agg
}

// RestartScript renders the dmtcp_restart_script.sh contents for a
// round (§3: "a shell script ... is created containing all the
// commands needed to restart the distributed computation").
func RestartScript(round *CkptRound) string {
	var b strings.Builder
	b.WriteString("#!/bin/sh\n# generated by dmtcp_checkpoint\n")
	byHost := make(map[string][]string)
	var hosts []string
	for _, img := range round.Images {
		if _, seen := byHost[img.Host]; !seen {
			hosts = append(hosts, img.Host)
		}
		byHost[img.Host] = append(byHost[img.Host], img.Path)
	}
	for _, h := range hosts {
		fmt.Fprintf(&b, "ssh %s dmtcp_restart %s &\n", h, strings.Join(byHost[h], " "))
	}
	b.WriteString("wait\n")
	return b.String()
}

// --- session registries ----------------------------------------------

func (s *System) nextOFID() int64 {
	s.ofid++
	return s.ofid
}

func vkey(host string, virt kernel.Pid) string {
	return fmt.Sprintf("%s/%d", host, virt)
}

func (s *System) registerProc(m *Manager) {
	s.byVirt[vkey(m.p.Node.Hostname, m.virtPid)] = m
	s.managers[m.p] = m
}

func (s *System) unregisterProc(m *Manager) {
	delete(s.byVirt, vkey(m.p.Node.Hostname, m.virtPid))
	delete(s.managers, m.p)
}

func (s *System) virtPidInUse(host string, virt kernel.Pid) bool {
	_, used := s.byVirt[vkey(host, virt)]
	return used
}

func (s *System) procByVirt(host string, virt kernel.Pid) *kernel.Process {
	if m, ok := s.byVirt[vkey(host, virt)]; ok {
		return m.p
	}
	return nil
}

// resolveShm implements the §4.5 shared-memory restore rules for a
// host: the first restored process re-creates the segment (and its
// backing file if missing); later ones share it.
func (s *System) resolveShm(t *kernel.Task, backing string, bytes int64, class model.MemClass) *kernel.ShmSegment {
	key := t.P.Node.Hostname + "/" + backing
	if seg, ok := s.shm[key]; ok {
		return seg
	}
	seg := s.C.NewShmSegment(t.P.Node, backing, bytes, class)
	s.shm[key] = seg
	return seg
}

// ManagerOf returns the DMTCP manager embedded in a process, if any.
func (s *System) ManagerOf(p *kernel.Process) *Manager { return s.managers[p] }
