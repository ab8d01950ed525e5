package dmtcp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/store"
)

// DefaultCoordPort is the coordinator's default TCP port.
const DefaultCoordPort = 7779

// Protocol message types (first byte of each frame).
const (
	msgRegister    = 'R' // manager → coord: join as checkpointable client
	msgResync      = 'Y' // manager → coord: re-bind identity after reconnect
	msgCheckpoint  = 'C' // command → coord: request a checkpoint round
	msgBarrier     = 'B' // manager → coord: reached named barrier
	msgRelease     = 'L' // coord → manager: barrier released
	msgDoCkpt      = 'K' // coord → manager: begin checkpoint (with config)
	msgStatus      = 'S' // command → coord: status query
	msgAdvertise   = 'A' // restart → coord: advertise guid → address
	msgQuery       = 'Q' // restart → coord: resolve guid (blocks until known)
	msgGroup       = 'G' // restart → coord: generic group barrier join
	msgQuit        = 'X' // command → coord: shut down
	msgHeartbeat   = 'H' // manager → coord: node liveness beat (host, cores)
	msgRestartRank = 'P' // restart → coord: per-rank stage progress
)

// ckptBarriers aliases the state machine's barrier order (§4.3).
var ckptBarriers = coordstate.Barriers

// groupBarrier is an in-flight restart group barrier.  Joins are
// keyed by rank id (the rank's image path) so a rank that reconnects
// after a coordinator takeover can re-arm its join idempotently (the
// old fd is simply replaced), and a promoted standby can seed joins
// for ranks its replayed journal proves are already past the barrier.
type groupBarrier struct {
	want     int
	joined   map[string]bool // rank id → arrived
	fds      map[string]int  // rank id → fd to release (seeded joins have none)
	released bool            // barrier complete: late (re)joins release immediately
}

func newGroupBarrier(want int) *groupBarrier {
	return &groupBarrier{want: want, joined: make(map[string]bool), fds: make(map[string]int)}
}

// Coordinator is one checkpoint coordinator instance: the initial
// leader on Config.CoordNode, or a standby on a ring peer that
// replays the leader's journal and takes over when the leader's node
// dies.
//
// All logical state lives in Mach, a coordstate.Machine driven by
// journaled events; the fields below are volatile connection state
// that dies with the process and is rebuilt by the manager resync
// handshake after a takeover.  Harness-side sharing is safe under the
// engine's cooperative scheduling.
type Coordinator struct {
	Sys  *System
	Node *kernel.Node
	Port int

	// Mach is the journaled coordinator state machine.
	Mach *coordstate.Machine

	// Standby is true until this instance is promoted to leader.
	Standby bool

	proc *kernel.Process

	// conns maps client id → this instance's fd for it.
	conns map[int64]int
	// cmdWaiters are command connections awaiting round completion.
	cmdWaiters []int
	// pendingQ holds fds awaiting guid resolution.
	pendingQ map[string][]int
	// groups are in-flight restart group barriers.
	groups map[string]*groupBarrier

	// gcPending holds indices of store-mode rounds whose collection
	// was deferred because forked writers were still committing; the
	// next opportunity collects once and credits every covered round.
	gcPending []int

	// recovering guards against concurrent recovery drives when
	// several clients of a dead node disconnect in a burst.
	recovering bool

	// repairing guards against concurrent re-replication drives when
	// several node-death observations land in a burst; LastRebalance is
	// the wall time the most recent completed drive took to restore
	// full redundancy.
	repairing     bool
	LastRebalance time.Duration

	// shipW wakes the journal shipper after every applied event (and
	// at promotion); shipped tracks the last seq each standby acked.
	shipW   *sim.WaitQueue
	shipped map[string]int64

	// health is the live registry every heartbeat folds into (what
	// detectDelay reads); only journalHealth's summaries are journaled.
	health map[string]*coordstate.HostHealth

	// commitW wakes barrier-release commits waiting for the shipper to
	// replicate the release to every live standby (bounded by
	// Params.BarrierAckTimeout).
	commitW *sim.WaitQueue

	// journalBuf caches the serialized journal snapshot written to
	// disk; journaledSeq is the last entry in it, so each write only
	// serializes the suffix instead of re-encoding the whole history.
	journalBuf   []byte
	journaledSeq int64
}

func newCoordinator(sys *System, node *kernel.Node, port int, standby bool) *Coordinator {
	return &Coordinator{
		Sys:      sys,
		Node:     node,
		Port:     port,
		Mach:     coordstate.NewMachine(),
		Standby:  standby,
		conns:    make(map[int64]int),
		pendingQ: make(map[string][]int),
		groups:   make(map[string]*groupBarrier),
		shipW:    sim.NewWaitQueue(sys.C.Eng, node.Hostname+".coordship"),
		shipped:  make(map[string]int64),
		health:   make(map[string]*coordstate.HostHealth),
		commitW:  sim.NewWaitQueue(sys.C.Eng, node.Hostname+".coordcommit"),
	}
}

// st is the coordinator's logical state.
func (co *Coordinator) st() *coordstate.State { return co.Mach.State() }

// Addr returns the coordinator's address.
func (co *Coordinator) Addr() kernel.Addr {
	return kernel.Addr{Host: co.Node.Hostname, Port: co.Port}
}

// Rounds returns the records of the completed checkpoint rounds,
// oldest first.
func (co *Coordinator) Rounds() []*CkptRound { return co.Sys.roundRecords(co.st().Rounds) }

// NumClients returns the number of registered checkpointable
// processes.
func (co *Coordinator) NumClients() int { return len(co.st().Clients) }

// LastRound returns the record of the most recent completed
// checkpoint round.
func (co *Coordinator) LastRound() *CkptRound {
	rounds := co.Rounds()
	if len(rounds) == 0 {
		return nil
	}
	return rounds[len(rounds)-1]
}

// apply journals one event through the state machine and performs the
// returned effects.  Only tasks on the active coordinator's process
// may apply events with protocol side-effects.
//
// Effects that release clients past a barrier are synchronous journal
// commits: the leader first waits (bounded by BarrierAckTimeout) for
// every live standby to ack the journal entry, so a standby promoted
// mid-round has seen every release its reconstructed round claims —
// resuming the round needs no client rollback.  A timeout proceeds
// degraded only while a majority of the coordinator group has acked;
// below quorum the release stalls (a leader partitioned away with a
// minority must not let clients past a barrier the majority side
// cannot see).  A stalled commit that wakes deposed suppresses the
// effects entirely: the locally journaled entry is rewound by the new
// leader's first push after the partition heals.
func (co *Coordinator) apply(t *kernel.Task, ev coordstate.Event) {
	t.Compute(co.Sys.C.Params.JournalAppendCost)
	fx := co.Mach.Apply(ev)
	co.shipW.WakeAll()
	if releaseBearing(fx) && !co.commitBarrier(t) {
		t.Trace().Add(t.Host(), "coord.deposed_suppressed", t.Now(), 1)
		t.Trace().Instant(t.Host(), "coordinator", "coord.deposed_suppress", "coord",
			t.Now(), obs.A("seq", co.Mach.Seq()))
		return
	}
	co.runEffects(t, fx)
}

// releaseBearing reports whether the effect list lets any client past
// a barrier (round start counts: it releases clients into the round).
func releaseBearing(effects []coordstate.Effect) bool {
	for _, fx := range effects {
		switch fx.Kind {
		case coordstate.FxStartRound, coordstate.FxRelease,
			coordstate.FxReleaseOne, coordstate.FxRoundDone:
			return true
		}
	}
	return false
}

// commitBarrier blocks until every live standby's journal has caught
// up to the entry just applied, or BarrierAckTimeout elapses.  The
// shipper runs concurrently on its own task; this wait just parks the
// serving task until the acks arrive.
//
// The timeout path is quorum-gated: proceeding degraded (some live
// standby has not acked) is allowed only while this leader plus the
// acked standbys form a majority of the live coordinator group.
// Below quorum the commit stalls instead — the signature of a leader
// cut off with a minority by a partition, where the majority side
// will elect a new leader and releasing clients here would fork
// history.  The stall ends when acks arrive (partition healed while
// still leader) or the instance learns it was deposed; the false
// return tells apply to suppress the release effects.
//
// Node deaths are observable in this model (Down is ground truth), so
// the quorum denominator counts only coordinators on live nodes: a
// leader whose standbys genuinely died keeps degrading exactly as
// before, while one whose standbys are merely unreachable stalls.
func (co *Coordinator) commitBarrier(t *kernel.Task) bool {
	if co.Standby {
		return false // deposed (or a mirror): never releases clients
	}
	timeout := co.Sys.C.Params.BarrierAckTimeout
	if timeout <= 0 {
		return true // synchronous commit disabled
	}
	seq := co.Mach.Seq()
	deadline := t.Now().Add(timeout)
	for {
		if co.Standby || co.Sys.Coord != co {
			return false // deposed while waiting
		}
		peers := co.Sys.coordPeers(co)
		acks := 1 // self
		for _, peer := range peers {
			if co.shipped[peer.Hostname] >= seq {
				acks++
			}
		}
		if acks == len(peers)+1 {
			return true // every live standby caught up
		}
		left := deadline.Sub(t.Now())
		if left <= 0 {
			if quorum := (len(peers)+1)/2 + 1; acks >= quorum {
				t.Trace().Add(t.Host(), "coord.commit_timeouts", t.Now(), 1)
				t.Trace().Instant(t.Host(), "coordinator", "coord.commit_timeout", "coord",
					t.Now(), obs.A("seq", seq), obs.A("acks", int64(acks)))
				return true
			}
			// Below quorum: stall until acks arrive or deposition.
			co.commitW.WaitTimeout(t.T, timeout)
			continue
		}
		co.commitW.WaitTimeout(t.T, left)
	}
}

// runEffects turns Apply's effect list into protocol frames and
// harness wakeups, in order.
func (co *Coordinator) runEffects(t *kernel.Task, effects []coordstate.Effect) {
	for _, fx := range effects {
		switch fx.Kind {
		case coordstate.FxStartRound:
			r := co.st().Round
			if r == nil {
				break // round already gone (cannot happen mid-effects)
			}
			for _, cid := range fx.CIDs {
				if fd, ok := co.conns[cid]; ok {
					t.SendFrame(fd, co.doCkptFrame(r.Tag, co.hintFor(cid)))
				}
			}
		case coordstate.FxRelease:
			var e bin.Encoder
			e.B = append(e.B, msgRelease)
			e.Str(fx.Name)
			for _, cid := range fx.CIDs {
				if fd, ok := co.conns[cid]; ok {
					t.SendFrame(fd, e.B)
				}
			}
		case coordstate.FxReleaseOne:
			if fd, ok := co.conns[fx.CID]; ok {
				var e bin.Encoder
				e.B = append(e.B, msgRelease)
				e.Str(fx.Name)
				t.SendFrame(fd, e.B)
			}
		case coordstate.FxRoundDone:
			co.afterRound(t, fx.Round)
		case coordstate.FxGuidKnown:
			for _, qfd := range co.pendingQ[fx.Name] {
				co.replyQuery(t, qfd, fx.Name)
			}
			delete(co.pendingQ, fx.Name)
		case coordstate.FxResumeRound:
			// A takeover inherited an in-flight round: the journal holds
			// its exact phase, the managers re-drive their arrivals
			// through resync, and the round completes under this leader.
			t.Trace().Instant(t.Host(), "coordinator", "coord.resume", "coord", t.Now(),
				obs.A("tag", fx.CID))
			t.Printf("dmtcp_coordinator: resuming round tag=%d at phase %q\n", fx.CID, fx.Name)
		case coordstate.FxResumeRestart:
			co.resumeRestart(t, fx.Name)
		}
	}
}

// resumeRestart re-arms the group barriers of a restart group inherited
// across a takeover.  Ranks the journal proves are past a barrier (their
// stage report is committed before any release) are seeded as joined;
// ranks still waiting re-join idempotently when their reconnect loops
// find the new leader.
func (co *Coordinator) resumeRestart(t *kernel.Task, gen string) {
	rg := co.st().Restart
	if rg == nil || rg.Gen != gen {
		return
	}
	co.seedGroup("r-mem-"+gen, rg.Expect, rg.HostsAtLeast(coordstate.RestartRankInstalled))
	co.seedGroup("r-refill-"+gen, rg.Expect, rg.HostsAtLeast(coordstate.RestartRankResumed))
	t.Trace().Instant(t.Host(), "coordinator", "restart.resume", "coord", t.Now(),
		obs.A("ranks", int64(len(rg.Ranks))),
		obs.A("installed", int64(rg.RanksAtLeast(coordstate.RestartRankInstalled))),
		obs.A("resumed", int64(rg.RanksAtLeast(coordstate.RestartRankResumed))))
}

// seedGroup installs a group barrier pre-joined by the given rank ids.
// A fully-seeded barrier is marked released, so a rank the old leader
// died mid-release-burst on gets its release the moment it re-joins.
func (co *Coordinator) seedGroup(name string, want int, ids []string) {
	if len(ids) == 0 {
		return
	}
	g := newGroupBarrier(want)
	for _, id := range ids {
		g.joined[id] = true
	}
	if len(g.joined) >= g.want {
		g.released = true
	}
	co.groups[name] = g
}

// main is the coordinator program body (leader and standby alike).
func (co *Coordinator) main(t *kernel.Task, _ []string) {
	lfd, err := t.ListenTCP(co.Port)
	if err != nil {
		t.Printf("dmtcp_coordinator: %v\n", err)
		return
	}
	if !co.Standby {
		co.startInterval()
		co.startHealthBeat()
	}
	t.P.SpawnTask("journal-ship", true, co.shipLoop)
	if co.Sys.haEnabled() {
		// Partition detector: idle on the leader, active on standbys.
		t.P.SpawnTask("coord-watchdog", true, co.watchdog)
	}
	for {
		fd, err := t.Accept(lfd)
		if err != nil {
			return
		}
		c := fd
		t.P.SpawnTask("conn", false, func(h *kernel.Task) { co.serve(h, c) })
	}
}

// startInterval launches the periodic-checkpoint ticker on this
// instance's process.
func (co *Coordinator) startInterval() {
	iv := co.Sys.Cfg.Interval
	if iv <= 0 || co.proc == nil {
		return
	}
	co.proc.SpawnTask("interval", true, func(tick *kernel.Task) {
		for {
			tick.Idle(iv)
			if co.Sys.Coord != co {
				return // deposed (should not happen; leaders die with nodes)
			}
			co.requestCheckpoint(tick)
		}
	})
}

// startHealthBeat launches the leader's own heartbeat: every
// HeartbeatInterval the active coordinator folds a beat for its host
// into the live registry, so the registry covers the leader node even
// when no managed process runs there.  The standby election wait is
// derived from these inter-arrival statistics, which reach the
// standbys in the summaries journalHealth writes.
func (co *Coordinator) startHealthBeat() {
	iv := co.Sys.C.Params.HeartbeatInterval
	if iv <= 0 || co.proc == nil {
		return
	}
	co.proc.SpawnTask("health-beat", true, func(t *kernel.Task) {
		for {
			t.Idle(iv)
			if co.Sys.Coord != co {
				return
			}
			co.beat(co.Node.Hostname, t.Now(), int64(co.Node.CPU().Cores()))
		}
	})
}

// beat folds one heartbeat into the live health registry.
func (co *Coordinator) beat(host string, at sim.Time, cores int64) {
	h := co.health[host]
	if h == nil {
		h = &coordstate.HostHealth{}
		co.health[host] = h
	}
	h.Observe(at, cores)
}

// journalHealth journals one EvHealth summary for each host whose live
// entry moved since its last summary.  It runs just before each
// checkpoint request, so that round's straggler hints know every
// host's cores and standbys inherit statistics at most one round old.
func (co *Coordinator) journalHealth(t *kernel.Task) {
	hosts := make([]string, 0, len(co.health))
	for host := range co.health {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		h := co.health[host]
		if old := co.st().Health[host]; old != nil && old.Count == h.Count && old.Cores == h.Cores {
			continue
		}
		co.apply(t, coordstate.Event{Kind: coordstate.EvHealth, Now: t.Now(), Host: host, Health: *h})
	}
}

// serve handles one client connection.
func (co *Coordinator) serve(t *kernel.Task, fd int) {
	defer t.Close(fd)
	var cid int64 // the client this connection speaks for (0 = command)
	for {
		frame, err := t.RecvFrame(fd)
		if err != nil {
			co.onDisconnect(t, cid, fd)
			return
		}
		if len(frame) == 0 {
			continue
		}
		body := frame[1:]
		switch frame[0] {
		case msgRegister:
			d := &bin.Decoder{B: body}
			co.apply(t, coordstate.Event{Kind: coordstate.EvRegister, Now: t.Now(), Desc: d.Str()})
			cid = co.st().NextCID
			co.conns[cid] = fd
		case msgResync:
			cid = co.resync(t, fd, body)
		case msgCheckpoint:
			co.cmdWaiters = append(co.cmdWaiters, fd)
			co.requestCheckpoint(t)
		case msgBarrier:
			co.onBarrier(t, cid, body)
		case msgStatus:
			co.retryDeferredGC(t)
			var e bin.Encoder
			e.B = append(e.B, 's')
			e.Int(len(co.st().Clients))
			e.Int(len(co.st().Rounds))
			t.SendFrame(fd, e.B)
		case msgAdvertise:
			d := &bin.Decoder{B: body}
			guid, host, port := d.Str(), d.Str(), d.Int()
			co.apply(t, coordstate.Event{Kind: coordstate.EvAdvertise, Now: t.Now(),
				GUID: guid, Addr: kernel.Addr{Host: host, Port: port}})
		case msgQuery:
			d := &bin.Decoder{B: body}
			guid := d.Str()
			if _, ok := co.st().Advertised[guid]; ok {
				co.replyQuery(t, fd, guid)
			} else {
				co.pendingQ[guid] = append(co.pendingQ[guid], fd)
			}
		case msgGroup:
			d := &bin.Decoder{B: body}
			name, want, rank := d.Str(), d.Int(), d.Str()
			co.onGroupJoin(t, name, want, rank, fd)
		case msgHeartbeat:
			d := &bin.Decoder{B: body}
			host, cores := d.Str(), d.I64()
			if d.Err == nil {
				co.beat(host, t.Now(), cores)
			}
		case msgRestartRank:
			d := &bin.Decoder{B: body}
			gen, rank, stage := d.Str(), d.Str(), d.Str()
			if d.Err == nil {
				co.apply(t, coordstate.Event{Kind: coordstate.EvRestartRank, Now: t.Now(),
					Name: gen, Host: rank, Msg: stage})
			}
		case msgQuit:
			co.Sys.C.Eng.Stop()
			return
		}
	}
}

// onGroupJoin handles one rank's arrival at a named restart group
// barrier.  Joins are idempotent per rank id: a rank that reconnects
// after a takeover re-joins and merely refreshes its release fd.  The
// release is a synchronous journal commit (like round barriers): every
// rank's stage report precedes its join, so committing before the
// release burst guarantees a promoted standby can reconstruct who is
// past the barrier.
func (co *Coordinator) onGroupJoin(t *kernel.Task, name string, want int, rank string, fd int) {
	g := co.groups[name]
	if g == nil {
		g = newGroupBarrier(want)
		co.groups[name] = g
	}
	release := func(rfd int) {
		var e bin.Encoder
		e.B = append(e.B, msgRelease)
		e.Str(name)
		t.SendFrame(rfd, e.B)
	}
	if g.released {
		// Barrier already complete: the old leader died mid-release
		// burst and this rank re-joined to collect its release.
		release(fd)
		return
	}
	g.joined[rank] = true
	g.fds[rank] = fd
	if len(g.joined) < g.want {
		return
	}
	co.commitBarrier(t)
	g.released = true
	ids := make([]string, 0, len(g.fds))
	for id := range g.fds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		release(g.fds[id])
	}
	g.fds = make(map[string]int)
	if strings.HasPrefix(name, "r-refill-") {
		// The restart's last barrier: every rank is running again, so
		// rounds whose GC deferred on forked writers collect now.
		co.retryDeferredGC(t)
	}
}

// resync re-binds a reconnecting manager (its coordinator died and a
// standby took over) to its replayed client entry, matching on the
// stable identity string.  A manager the journal never recorded —
// it registered in the instants before the old leader died — is
// registered fresh.
//
// The frame also carries the manager's own round progress (tag +
// barriers passed): when the leader died inside the barrier-commit
// degraded window, the manager may have been released past barriers
// the replayed journal never saw; the EvResync event heals those
// arrivals so the resumed round's bookkeeping matches reality.
func (co *Coordinator) resync(t *kernel.Task, fd int, body []byte) int64 {
	d := &bin.Decoder{B: body}
	desc := d.Str()
	tag := d.I64()
	passed := d.Int()
	if d.Err != nil {
		tag, passed = 0, 0
	}
	cid := co.st().ClientByDesc(desc)
	if cid == 0 {
		co.apply(t, coordstate.Event{Kind: coordstate.EvRegister, Now: t.Now(), Desc: desc})
		cid = co.st().NextCID
	}
	co.conns[cid] = fd
	if r := co.st().Round; r != nil && r.Participants[cid] {
		if r.Tag == tag && passed > 0 {
			co.apply(t, coordstate.Event{Kind: coordstate.EvResync, Now: t.Now(),
				CID: cid, RoundTag: tag, Expect: passed})
		}
		// A manager that never saw the checkpoint request (the round
		// started — or resumed — while it was still reconnecting, and it
		// reports no progress) gets it re-sent; a mid-algorithm manager
		// re-drives itself by re-sending its barrier arrival.  One that
		// reports the round's tag but no passed barrier gets it too: a
		// fresh manager reports tag 0, round 0's own tag, so the two
		// cannot be told apart here.  A manager already running the
		// round drops the re-send in its barrier.
		arrived := false
		for _, m := range r.Arrived {
			if m[cid] {
				arrived = true
				break
			}
		}
		if !arrived && (r.Tag != tag || passed == 0) {
			t.SendFrame(fd, co.doCkptFrame(r.Tag, co.hintFor(cid)))
		}
	}
	return cid
}

// doCkptFrame encodes the begin-checkpoint request broadcast to
// managers (round start and resync re-send share it).  The round tag
// rides along so the manager's barrier arrivals name the round they
// belong to; hint is the straggler-response worker pre-size for the
// receiving manager's host (0 = no hint).
func (co *Coordinator) doCkptFrame(tag int64, hint int) []byte {
	cfg := co.Sys.Cfg
	var e bin.Encoder
	e.B = append(e.B, msgDoCkpt)
	e.Str(cfg.CkptDir)
	e.Bool(cfg.Compress)
	e.Bool(cfg.Fsync)
	e.Bool(cfg.Forked)
	e.Bool(cfg.Store)
	e.I64(tag)
	e.Int(cfg.CkptWorkers)
	e.Int(hint)
	return e.B
}

// hintFor looks up the straggler-response worker pre-size for cid's
// host from the most recent completed round (the state machine
// computed it when that round closed).
func (co *Coordinator) hintFor(cid int64) int {
	last := co.st().LastRound()
	if last == nil {
		return 0
	}
	return last.WorkerHints[descHost(co.st().Clients[cid].Desc)]
}

// onDisconnect handles a dropped connection: when it carried a
// registered client (and has not been superseded by a resync on a
// newer connection), the client is removed and any in-flight round's
// barriers re-evaluated — with the dead client out of the participant
// set, a barrier the remaining clients have all reached must be
// released now.
func (co *Coordinator) onDisconnect(t *kernel.Task, cid int64, fd int) {
	if cid == 0 || co.conns[cid] != fd {
		return
	}
	delete(co.conns, cid)
	client, ok := co.st().Clients[cid]
	co.apply(t, coordstate.Event{Kind: coordstate.EvDisconnect, Now: t.Now(), CID: cid})
	if ok {
		co.maybeAutoRecover(t, client.Desc)
	}
}

func (co *Coordinator) replyQuery(t *kernel.Task, fd int, guid string) {
	addr := co.st().Advertised[guid]
	var e bin.Encoder
	e.B = append(e.B, 'q')
	e.Str(guid)
	e.Str(addr.Host)
	e.Int(addr.Port)
	t.SendFrame(fd, e.B)
}

// requestCheckpoint starts a round now, or queues one if a round is
// already in progress.
func (co *Coordinator) requestCheckpoint(t *kernel.Task) {
	// Rounds whose GC was deferred (forked writers were still
	// committing) are collected now, before the new round's writes
	// begin.
	co.retryDeferredGC(t)
	co.journalHealth(t)
	cfg := co.Sys.Cfg
	co.apply(t, coordstate.Event{Kind: coordstate.EvCkptRequest, Now: t.Now(),
		Cfg: coordstate.RoundCfg{Compress: cfg.Compress, Fsync: cfg.Fsync, Forked: cfg.Forked, Store: cfg.Store}})
}

// onBarrier journals a manager's arrival at a named barrier; the
// state machine releases the barrier when everyone is in.  The
// checkpointed arrival carries the write time and the image's
// placement.
func (co *Coordinator) onBarrier(t *kernel.Task, cid int64, body []byte) {
	d := &bin.Decoder{B: body}
	ev := coordstate.Event{Kind: coordstate.EvBarrier, Now: t.Now(), CID: cid}
	ev.Barrier = d.Str()
	ev.RoundTag = d.I64()
	if ev.Barrier == coordstate.BarrierCheckpointed {
		ev.Stage = time.Duration(d.I64())
		ev.Image = &coordstate.ImageInfo{Host: d.Str(), Path: d.Str(), Prog: d.Str(),
			VirtPid: kernel.Pid(d.I64()), Generation: d.I64()}
	}
	co.apply(t, ev)
}

// afterRound performs the leader-side work of a completed round:
// store collection, command waiter release, and the durable journal
// snapshot.
func (co *Coordinator) afterRound(t *kernel.Task, cr *coordstate.CkptRound) {
	round := co.Rounds()[cr.Index]
	if tr := t.Trace(); tr.Enabled() && round.NumProcs > 0 {
		tr.Span(t.Host(), "coordinator", "coord.round", "coord", round.Start, round.End,
			obs.A("index", int64(round.Index)), obs.A("procs", int64(round.NumProcs)),
			obs.A("bytes", round.Bytes), obs.A("dedup_bytes", round.DedupBytes),
			obs.A("overlap_bytes", round.OverlapBytes))
	}
	gcStart := t.Now()
	if round.Store && len(round.Images) > 0 {
		// Forked rounds commit their manifests in background children
		// after the barrier releases, so their stores are still busy
		// here and collectStores defers them (possibly only on some
		// nodes).  A round only records stats from a full-coverage
		// pass — partial passes sweep what they can but the round
		// stays pending until retryDeferredGC completes the coverage,
		// so stats are never double-counted across retries.
		st, deferred := co.collectStores(t)
		if deferred {
			co.gcPending = append(co.gcPending, round.Index)
		} else if st != nil {
			co.creditGC([]int{round.Index}, *st)
		}
		t.Trace().Span(t.Host(), "coordinator", "coord.gc", "coord", gcStart, t.Now(),
			obs.A("index", int64(round.Index)))
	}
	co.snapshotMetrics(t, round)
	for _, fd := range co.cmdWaiters {
		t.SendFrame(fd, []byte{'c'})
	}
	co.cmdWaiters = nil
	co.Sys.doneW.WakeAll()
	co.maybeCompact(t)
	co.writeJournalFile(t)
}

// snapshotMetrics samples per-node gauges at a round boundary: core
// utilization from each node's scheduler, the replica service's queue
// depth, and the journal shipping lag to the slowest standby.
func (co *Coordinator) snapshotMetrics(t *kernel.Task, round *CkptRound) {
	tr := t.Trace()
	if !tr.Enabled() {
		return
	}
	label := fmt.Sprintf("round%d", round.Index)
	for _, n := range co.Sys.C.Nodes() {
		if n.Down {
			continue
		}
		tr.RecordSnapshot(label, n.Hostname, t.Now(), []obs.Arg{
			{Key: "cpu.runnable", Val: int64(n.CPU().Runnable())},
			{Key: "cpu.cores", Val: int64(n.CPU().Cores())},
		})
	}
	vals := []obs.Arg{{Key: "coord.journal_lag", Val: co.journalLag()}}
	if co.Sys.Replica != nil {
		vals = append(vals, obs.Arg{Key: "repl.pending", Val: int64(co.Sys.Replica.Pending())})
	}
	tr.RecordSnapshot(label, t.Host(), t.Now(), vals)
}

// journalLag is the entry count the slowest live standby is behind the
// leader's journal.
func (co *Coordinator) journalLag() int64 {
	var lag int64
	for _, peer := range co.Sys.coordPeers(co) {
		if d := co.Mach.Seq() - co.shipped[peer.Hostname]; d > lag {
			lag = d
		}
	}
	return lag
}

// maybeCompact snapshots the coordinator state and truncates the
// journal prefix once the materialized suffix exceeds
// Params.JournalSnapshotEntries.  It only fires at round boundaries
// (the snapshot format excludes the volatile in-flight round), so
// standby catch-up stays bounded by snapshot + suffix instead of
// growing with session length; a standby that predates the compaction
// receives the snapshot wholesale through the journal shipper's
// want/missing handshake.
func (co *Coordinator) maybeCompact(t *kernel.Task) {
	limit := int64(co.Sys.C.Params.JournalSnapshotEntries)
	if limit <= 0 || co.Mach.Seq()-co.Mach.Base() < limit || co.st().Round != nil {
		return
	}
	if err := co.Mach.Compact(); err != nil {
		return
	}
	t.Compute(co.Sys.C.Params.JournalAppendCost)
	co.journalBuf = co.Mach.JournalBytes()
	co.journaledSeq = co.Mach.Seq()
	co.shipW.WakeAll()
}

// writeJournalFile snapshots the serialized journal to the checkpoint
// directory — the durable, inspectable artifact of the event-sourced
// design (the network replication to standbys is what takeover runs
// on).
func (co *Coordinator) writeJournalFile(t *kernel.Task) {
	if co.journaledSeq < co.Mach.Base() {
		// The cached serialization predates a compaction (or this is a
		// promoted standby that caught up via snapshot): rebuild whole.
		co.journalBuf = co.Mach.JournalBytes()
		co.journaledSeq = co.Mach.Seq()
	} else if fresh := co.Mach.EntriesSince(co.journaledSeq); len(fresh) > 0 {
		co.journalBuf = append(co.journalBuf, coordstate.EncodeEntries(fresh)...)
		co.journaledSeq = co.Mach.Seq()
	}
	t.WriteFileAll(co.Sys.Cfg.CkptDir+"/coordinator.journal", co.journalBuf, int64(len(co.journalBuf)))
}

// collectStores runs the retention policy plus a mark-and-sweep GC
// pass over every node store the session has ever written — the
// registry, not the current round's image list, so stores on nodes a
// process has migrated away from keep being collected.  Stores with
// in-flight (forked) writers are deferred: sweeping under an
// uncommitted manifest could reclaim chunks it is about to
// reference.  Returns the aggregate of the stores that were collected
// (nil if none) plus whether any store had to be deferred.  Stores
// under /san are one shared namespace and are collected exactly once.
func (co *Coordinator) collectStores(t *kernel.Task) (*store.GCStats, bool) {
	sys := co.Sys
	nodes := sys.storeNodesSorted()
	if len(nodes) == 0 {
		return nil, false
	}
	var agg store.GCStats
	collected := false
	deferred := false
	if kernel.IsSANPath(sys.StoreRoot()) {
		if sys.storeBusyTotal() > 0 {
			return nil, true
		}
		anchor := nodes[0]
		for _, n := range nodes {
			if !n.Down {
				anchor = n
				break
			}
		}
		if anchor.Down {
			return nil, false
		}
		agg = sys.StoreOn(anchor).Collect(t, sys.Cfg.StoreKeep)
		collected = true
	} else {
		for _, n := range nodes {
			if n.Down {
				continue // the store died with the node
			}
			if sys.storeBusy[n] > 0 {
				deferred = true
				continue
			}
			agg.Add(sys.StoreOn(n).Collect(t, sys.Cfg.StoreKeep))
			collected = true
		}
	}
	if !collected {
		return nil, deferred
	}
	return &agg, deferred
}

// retryDeferredGC re-attempts collection for every round that had to
// defer; the first pass that covers every store is credited to all of
// them.  A round that defers at the very end of a session is
// collected at the next checkpoint request, status poll, or restart
// (when its last group barrier releases).
func (co *Coordinator) retryDeferredGC(t *kernel.Task) {
	if len(co.gcPending) == 0 || !co.Sys.Cfg.Store {
		return
	}
	st, deferred := co.collectStores(t)
	if deferred || st == nil {
		return // some store still busy; keep pending
	}
	co.creditGC(co.gcPending, *st)
	co.gcPending = nil
}

// maybeAutoRecover starts a recovery drive when a client's death turns
// out to be a node death and the session opted into automatic
// recovery.
func (co *Coordinator) maybeAutoRecover(t *kernel.Task, desc string) {
	if !co.Sys.Cfg.AutoRecover || co.recovering || co.Sys.Replica == nil || !co.Sys.Cfg.Store {
		return
	}
	host := descHost(desc)
	n := co.Sys.C.LookupHost(host)
	if n == nil || !n.Down {
		return
	}
	co.spawnRecovery()
}

// spawnRecovery drives System.Recover from a coordinator task.
func (co *Coordinator) spawnRecovery() {
	co.recovering = true
	co.proc.SpawnTask("recovery", true, func(rt *kernel.Task) {
		defer func() { co.recovering = false }()
		if _, err := co.Sys.Recover(rt); err != nil {
			rt.Printf("dmtcp_coordinator: recovery: %v\n", err)
		}
	})
}

// descHost extracts the hostname from a manager identity string
// ("host/prog[vpid]").
func descHost(desc string) string {
	if i := strings.Index(desc, "/"); i >= 0 {
		return desc[:i]
	}
	return desc
}

// --- journal replication and takeover --------------------------------

// shipLoop is the leader's journal replicator: after every state
// change (batched by JournalShipDelay) it pushes the journal suffix
// each live standby lacks through that standby's replica daemon — the
// same want/missing discipline chunk replication uses.  Only a failed
// or short-acked push backs off; entries applied during a push ship at
// once.  Idle, it still contacts every live standby once per
// HeartbeatInterval (the want/ack handshake alone): the pushes are the
// leader's heartbeat.  On a standby the loop idles until promotion.
func (co *Coordinator) shipLoop(t *kernel.Task) {
	p := co.Sys.C.Params
	// Unified retry policy: flat delay (the loop doubles as the leader
	// heartbeat), jittered so leaders that lost standbys simultaneously
	// don't re-push in lockstep.
	bo := retry.JournalShip(p).Backoff(co.Sys.C.Eng.Rand())
	// contacted is when the last pass reached every live standby.
	var contacted sim.Time
	for {
		if co.Standby {
			co.shipW.Wait(t.T)
			continue
		}
		all := p.HeartbeatInterval > 0 && t.Now().Sub(contacted) >= p.HeartbeatInterval
		if all {
			contacted = t.Now()
		}
		failed := false
		for _, peer := range co.Sys.coordPeers(co) {
			want := co.Mach.Seq()
			if !all && co.shipped[peer.Hostname] >= want {
				continue
			}
			shipStart := t.Now()
			seq, err := co.Sys.Replica.PushJournal(t, peer.Hostname, co.Mach)
			t.Trace().Span(t.Host(), "coordinator journal", "journal.ship→"+peer.Hostname,
				"coord", shipStart, t.Now(), obs.A("seq", seq))
			if err != nil {
				if errors.Is(err, replica.ErrDeposed) {
					// A peer has seen a newer epoch: this instance was
					// deposed while partitioned away.  Step down and
					// park; the new leader's pushes replay us back
					// into a consistent mirror.
					co.stepDown(t)
					break
				}
				failed = true
				continue
			}
			co.shipped[peer.Hostname] = seq
			co.commitW.WakeAll()
			if seq < want {
				failed = true
			}
		}
		if failed {
			// A standby daemon is unreachable (booting, or its node
			// died and liveness has not been re-read) or refused part
			// of the batch: back off and retry rather than spinning.
			co.shipW.WaitTimeout(t.T, bo.Next())
			continue
		}
		if co.journalLag() > 0 {
			continue // entries applied during the pushes ship now
		}
		if p.HeartbeatInterval > 0 {
			co.shipW.WaitTimeout(t.T, max(contacted.Add(p.HeartbeatInterval).Sub(t.Now()), 0))
		} else {
			co.shipW.Wait(t.T)
		}
		// Batch window: let a barrier storm coalesce into one push.
		t.Idle(p.JournalShipDelay)
	}
}

// stepDown demotes a deposed leader: a partition cut this instance
// off with a minority, the majority side elected a new leader, and a
// healed link just told us so.  The instance re-registers as a
// journal sink — the new leader's next push rewinds any entries this
// one journaled alone (truncate-and-replay past the epoch fence) and
// replays the authoritative history, converging the mirror.  Every
// client, command, and restart-barrier connection is kicked so the
// peers' reconnect loops re-bind to the current leader, and any
// release stalled in commitBarrier is woken to observe the deposition
// and suppress its effects.
func (co *Coordinator) stepDown(t *kernel.Task) {
	if co.Standby {
		return
	}
	co.Standby = true
	t.Trace().Instant(t.Host(), "coordinator", "coord.stepdown", "coord", t.Now(),
		obs.A("epoch", co.Mach.Epoch()), obs.A("seq", co.Mach.Seq()))
	t.Printf("dmtcp_coordinator: %s deposed at epoch %d: stepping down\n",
		co.Node.Hostname, co.Mach.Epoch())
	if co.Sys.Replica != nil {
		co.Sys.Replica.SetJournalSink(co.Node, co.Mach)
	}
	for cid, fd := range co.conns {
		t.Close(fd)
		delete(co.conns, cid)
	}
	for _, fd := range co.cmdWaiters {
		t.Close(fd)
	}
	co.cmdWaiters = nil
	for name, fds := range co.pendingQ {
		for _, fd := range fds {
			t.Close(fd)
		}
		delete(co.pendingQ, name)
	}
	for _, g := range co.groups {
		for id, fd := range g.fds {
			t.Close(fd)
			delete(g.fds, id)
		}
	}
	co.commitW.WakeAll()
}

// watchdog is the standby-side partition detector: node deaths are
// caught by onCoordNodeDown, but a leader that is alive yet
// unreachable (partitioned away) never triggers it — its node is not
// Down.  Each standby therefore watches the leader's journal pushes
// (which double as heartbeats) through the replica daemon's sink
// timestamps.  On prolonged silence it probes the leader's daemon
// port directly, and — only if the probe fails AND this standby can
// reach a majority of the coordinator group (so it is on the winning
// side of the cut) — the best-ranked reachable candidate promotes
// itself.  The silence threshold staggers by rank exactly like the
// node-death election, so candidates never race.
func (co *Coordinator) watchdog(t *kernel.Task) {
	s := co.Sys
	p := s.C.Params
	iv := p.HeartbeatInterval
	if iv <= 0 || s.Replica == nil {
		return
	}
	rng := s.C.Eng.Rand()
	// Silence is measured from the later of the last journal contact
	// and the last time the leader answered a probe.
	lastUp := t.Now()
	for {
		t.Idle(p.Jitter(rng, iv))
		if !co.Standby || co.Node.Down {
			// Not watching while active (or dead); a deposed leader
			// re-enters the standby pool and resumes watching.
			lastUp = t.Now()
			continue
		}
		lead := s.Coord
		if lead == nil || lead == co || lead.Node.Down {
			lastUp = t.Now() // node-death election owns this case
			continue
		}
		if seen, ok := s.Replica.JournalSeen(co.Node); ok && seen > lastUp {
			lastUp = seen
		}
		detect := co.st().HostDeadline(lead.Node.Hostname,
			p.PhiTimeoutFactor, p.PhiFloor, p.FailureDetectDelay)
		rank := co.watchRank()
		if t.Now().Sub(lastUp) < detect+time.Duration(rank+1)*p.ElectionTimeout {
			continue
		}
		if co.probe(t, lead.Node.Hostname) {
			lastUp = t.Now() // leader reachable: just quiet, not gone
			continue
		}
		// Leader unreachable.  Quorum-probe the rest of the group: a
		// standby cut off with the minority must stand down, or a
		// partition would elect one leader per side.
		reach := 1 // self
		best := co
		for _, other := range s.coords {
			if other == co || other.Node.Down || other.proc == nil {
				continue
			}
			if other != lead && co.probe(t, other.Node.Hostname) {
				reach++
				if other.Standby && other.Node.ID < best.Node.ID {
					best = other
				}
			}
		}
		group := 1 // self
		for _, other := range s.coords {
			if other != co && !other.Node.Down && other.proc != nil {
				group++
			}
		}
		if reach < group/2+1 {
			continue // minority side: keep waiting for the heal
		}
		if s.Coord != lead {
			lastUp = t.Now() // someone already took over
			continue
		}
		if best == co {
			s.promote(t, co)
		}
	}
}

// watchRank returns this standby's election rank (position by node id
// among live standby instances), used to stagger silence thresholds.
func (co *Coordinator) watchRank() int {
	rank := 0
	for _, other := range co.Sys.coords {
		if other == co || other.Node.Down || other.proc == nil || !other.Standby {
			continue
		}
		if other.Node.ID < co.Node.ID {
			rank++
		}
	}
	return rank
}

// probe checks whether host's replica daemon port answers a TCP
// handshake from this node (a partition or refuse window fails it
// fast with a refused connection).
func (co *Coordinator) probe(t *kernel.Task, host string) bool {
	fd := t.Socket()
	if of, err := t.P.FD(fd); err == nil {
		of.Protected = true
	}
	err := t.Connect(fd, kernel.Addr{Host: host, Port: replica.Port})
	t.Close(fd)
	return err == nil
}

// promote turns a standby into the active coordinator.  An in-flight
// round (or restart group) survives the takeover: the journal holds its
// exact phase, so the takeover event re-arms it and the round resumes
// under the new leader.  Clients on dead nodes are dropped; live
// managers re-bind via resync — carrying their own barrier progress, so
// releases lost in the old leader's final instants are healed — as
// their reconnect loops find the new address.
func (s *System) promote(t *kernel.Task, co *Coordinator) {
	if s.Coord == co || co.Node.Down || co.proc == nil {
		return
	}
	old := s.Coord
	co.Standby = false
	co.apply(t, coordstate.Event{Kind: coordstate.EvTakeover, Now: t.Now(),
		Leader: co.Node.Hostname, Epoch: co.Mach.Epoch() + 1})
	t.Trace().Instant(t.Host(), "coordinator", "coord.takeover", "coord", t.Now(),
		obs.A("epoch", co.Mach.Epoch()), obs.A("seq", co.Mach.Seq()))
	s.Coord = co
	if s.Replica != nil {
		s.Replica.ClearJournalSink(co.Node)
	}
	t.Printf("dmtcp_coordinator: %s taking over from %s (epoch %d, journal seq %d)\n",
		co.Node.Hostname, old.Node.Hostname, co.Mach.Epoch(), co.Mach.Seq())
	// Clients that died with a dead node will never resync: drop them
	// now so the next round does not wait on ghosts.
	for _, cid := range co.st().ClientIDs() {
		host := descHost(co.st().Clients[cid].Desc)
		if n := s.C.LookupHost(host); n != nil && n.Down {
			co.apply(t, coordstate.Event{Kind: coordstate.EvDisconnect, Now: t.Now(), CID: cid})
		}
	}
	// Events raised while no leader was live (replication completions
	// land here) are journaled now.
	for _, ev := range s.pendingEv {
		co.apply(t, ev)
	}
	s.pendingEv = nil
	// The live registry starts from the journaled summaries, whose
	// clocks are unarmed: the time without a leader is no interval.
	co.health = make(map[string]*coordstate.HostHealth, len(co.st().Health))
	for host, h := range co.st().Health {
		seeded := *h
		co.health[host] = &seeded
	}
	co.startInterval()
	co.startHealthBeat()
	co.writeJournalFile(t)
	co.shipW.WakeAll()
	s.doneW.WakeAll()
	// Clients the journal recorded but whose processes died while no
	// coordinator was watching will never resync either: give live
	// managers one resync window, then drop the silent ones.
	co.proc.SpawnTask("resync-sweep", true, func(st *kernel.Task) {
		st.Idle(s.C.Params.ResyncWindow)
		if s.Coord != co {
			return
		}
		for _, cid := range co.st().ClientIDs() {
			if _, ok := co.conns[cid]; !ok {
				co.apply(st, coordstate.Event{Kind: coordstate.EvDisconnect, Now: st.Now(), CID: cid})
			}
		}
	})
	if s.Cfg.AutoRecover && s.Replica != nil && s.Cfg.Store && !co.recovering {
		// The dead coordinator node may also have hosted managed
		// processes; drive recovery for them exactly as a client-death
		// observation would have.
		if len(co.deadHosts()) > 0 {
			co.spawnRecovery()
		}
	}
	// The dead leader's node may also have held replica copies (and the
	// old leader may have died mid-repair): re-scan for degraded
	// generations and restore redundancy in the background.
	co.spawnRepair()
}

// onCoordNodeDown is the standby-side failure detector: when the
// active coordinator's node dies, every surviving standby arms a
// takeover timer — detection plus an election timeout staggered by
// rank (lowest node id first).  The best-ranked live candidate at
// fire time promotes itself; lower-ranked candidates find the
// takeover already done and stand down.  The staggering means losing
// the front-runner during its own election wait (a double failure)
// only delays takeover by one more timeout instead of losing it.
//
// The detection component is adaptive: each standby derives the dead
// leader's silence threshold from the leader's journaled health
// summary (phi-accrual over heartbeat inter-arrivals), so a quiet,
// regular network converges well below the static FailureDetectDelay
// while a jittery one degrades gracefully back to it — the clamp
// guarantees detection is never slower than the static path.
func (s *System) onCoordNodeDown(n *kernel.Node) {
	if s.Coord == nil || s.Coord.Node != n {
		return
	}
	old := s.Coord
	cands := make([]*Coordinator, 0, len(s.coords))
	for _, co := range s.coords {
		if !co.Node.Down && co.proc != nil {
			cands = append(cands, co)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Node.ID < cands[j].Node.ID })
	p := s.C.Params
	for rank, co := range cands {
		co := co
		detect := co.st().HostDeadline(old.Node.Hostname,
			p.PhiTimeoutFactor, p.PhiFloor, p.FailureDetectDelay)
		wait := detect + time.Duration(rank+1)*p.ElectionTimeout
		co.proc.SpawnTask("coord-takeover", true, func(t *kernel.Task) {
			t.Idle(wait)
			if s.Coord != old {
				return // someone already took over
			}
			if s.nextCoordinator() == co {
				s.promote(t, co)
			}
		})
	}
}

// nextCoordinator returns the live coordinator instance with the
// lowest node id (the deterministic election winner), or nil.
func (s *System) nextCoordinator() *Coordinator {
	var best *Coordinator
	for _, co := range s.coords {
		if co.Node.Down || co.proc == nil {
			continue
		}
		if best == nil || co.Node.ID < best.Node.ID {
			best = co
		}
	}
	return best
}

// coordPeers returns the live sibling coordinator instances journal
// entries must be shipped to.
func (s *System) coordPeers(co *Coordinator) []*kernel.Node {
	var out []*kernel.Node
	for _, other := range s.coords {
		if other == co || other.Node.Down {
			continue
		}
		out = append(out, other.Node)
	}
	return out
}

// RoundOnStandbys reports whether a checkpoint round is in flight and
// its start has reached every live standby coordinator's state
// machine: from then on a takeover resumes the round under its tag
// instead of starting a fresh one.
func (s *System) RoundOnStandbys() bool {
	r := s.Coord.st().Round
	if r == nil {
		return false
	}
	for _, co := range s.coords {
		if co == s.Coord || co.Node.Down || co.proc == nil {
			continue
		}
		if sr := co.st().Round; sr == nil || sr.Tag != r.Tag {
			return false
		}
	}
	return true
}
