package dmtcp

import (
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/obs"
	"repro/internal/retry"
)

// CoordLostError reports that a manager lost its coordinator
// connection and exhausted the reconnect/backoff window without a
// standby taking over.  Callers see it (rather than a silent round
// failure) when coordinator HA is enabled but no live standby exists.
type CoordLostError struct {
	// Addr is the last coordinator address tried.
	Addr kernel.Addr
	// Attempts is how many reconnects were attempted.
	Attempts int
	// Err is the last connect error.
	Err error
}

func (e *CoordLostError) Error() string {
	return fmt.Sprintf("dmtcp: coordinator at %s:%d unreachable after %d attempts: %v",
		e.Addr.Host, e.Addr.Port, e.Attempts, e.Err)
}

func (e *CoordLostError) Unwrap() error { return e.Err }

// Manager is the per-process DMTCP library instance: the libc
// wrappers (as a kernel.Hooks implementation) plus the checkpoint
// manager thread.  One Manager exists inside every checkpointed
// process, exactly like the injected dmtcphijack.so.
type Manager struct {
	kernel.BaseHooks

	sys *System
	p   *kernel.Process

	started bool
	// restored is true for managers reconstructed by dmtcp_restart.
	restored bool

	virtPid kernel.Pid
	// pidTable maps virtual → real pids for this process's children
	// (and itself).
	pidTable map[kernel.Pid]kernel.Pid

	// socks records wrapper-observed stream sockets by open-file
	// description, so fork/dup sharing is tracked naturally.
	socks map[*kernel.OpenFile]*SockMeta

	coordFD int
	// coordTo is the coordinator address coordFD is connected to; the
	// heartbeat loop compares it against the active leader's address
	// and kicks the connection when leadership moved without the old
	// link dying (a partition takeover parks frames instead of
	// resetting flows, so no read error would ever arrive).
	coordTo kernel.Addr
	mgrTask *kernel.Task
	// hbProc is the process whose heartbeat task is live; restore
	// re-arms the beat on the restored process (the old task died with
	// its process).
	hbProc *kernel.Process
	// desc is the manager's stable identity with the coordinator
	// ("host/prog[vpid]"); the resync handshake after a coordinator
	// takeover re-binds the new connection to the replayed client
	// entry by this string.
	desc string
	// pendingCkpt stashes a checkpoint request that arrived while the
	// manager was mid-barrier (a promoted coordinator re-sends the
	// request at resync if it started a round the manager never saw) or
	// while a restored rank waited at a restart barrier; loop consumes
	// it before reading the socket again.
	pendingCkpt []byte
	// curTag is the round identity of the checkpoint in progress,
	// echoed with every barrier arrival.
	curTag int64
	// curPassed counts barriers of the current round this manager has
	// been released from; resync ships it so a promoted coordinator can
	// credit arrivals its journal recorded but whose releases were lost
	// with the old leader.
	curPassed int

	nextConnSeq int64

	aware awareHooks

	// lastStoreGen is the highest store generation this manager has
	// reserved; forked checkpointing reserves numbers here before the
	// background writer commits, so overlapping writers of the same
	// process never collide on a generation.
	lastStoreGen int64
}

type awareHooks struct {
	preCkpt  []func(*kernel.Task)
	postCkpt []func(*kernel.Task)
}

func newManager(sys *System, p *kernel.Process) *Manager {
	return &Manager{
		sys:      sys,
		p:        p,
		coordFD:  -1,
		pidTable: make(map[kernel.Pid]kernel.Pid),
		socks:    make(map[*kernel.OpenFile]*SockMeta),
	}
}

// Start implements the library initializer: it connects to the
// coordinator and launches the checkpoint manager thread (§4.2).
func (m *Manager) Start(t *kernel.Task) {
	if m.started {
		return
	}
	m.started = true
	if m.virtPid == 0 {
		m.virtPid = m.p.Pid // original pid becomes the virtual pid
	}
	m.pidTable[m.virtPid] = m.p.Pid
	m.sys.registerProc(m)
	m.connectCoordinator(t)
	m.mgrTask = m.p.SpawnTask("ckpt-mgr", true, m.loop)
	m.startHeartbeat()
}

// startHeartbeat launches the liveness beat: every HeartbeatInterval
// the manager sends a compact frame (its host and core count) on its
// coordinator connection.  The leader folds each beat into its live
// health registry and journals only a per-host summary before each
// checkpoint request, so the adaptive failure detector derived from it
// survives takeover without the journal growing with time.
func (m *Manager) startHeartbeat() {
	iv := m.sys.C.Params.HeartbeatInterval
	if iv <= 0 || m.hbProc == m.p {
		return
	}
	m.hbProc = m.p
	m.p.SpawnTask("heartbeat", true, func(t *kernel.Task) {
		for {
			t.Idle(iv)
			if m.p.Dead || m.p.Zombie {
				return
			}
			if m.coordFD < 0 {
				continue // reconnect in progress; skip this beat
			}
			if m.sys.haEnabled() && m.coordTo != m.sys.coordAddr() {
				// Leadership moved while this connection stayed up (a
				// partition takeover parks frames rather than resetting
				// flows).  Abandon the stale link only if the new
				// leader is actually reachable from here: a manager on
				// the minority side keeps its (parked) connection and
				// is kicked by the deposed leader's step-down after
				// the heal instead.  Closing the link makes the
				// manager loop's read fail, and its reconnect path
				// resyncs with the current leader.
				if pfd, _, err := m.sys.dialCoord(t, retry.Policy{}, nil); err == nil {
					t.Close(pfd)
					if fd := m.coordFD; fd >= 0 {
						m.coordFD = -1
						t.Close(fd)
						continue
					}
				}
				// New leader unreachable: fall through and keep
				// heartbeating on the existing link so the old leader
				// does not expire this (perfectly alive) client.
			}
			n := m.p.Node
			var e bin.Encoder
			e.B = append(e.B, msgHeartbeat)
			e.Str(n.Hostname)
			e.I64(int64(n.CPU().Cores()))
			// Send errors are left to the manager loop's reconnect
			// logic; a missed beat is exactly what the detector expects
			// from a failing node.
			t.SendFrame(m.coordFD, e.B)
		}
	})
}

func (m *Manager) connectCoordinator(t *kernel.Task) {
	m.desc = clientDesc(m.p.Node.Hostname, m.p.ProgName, m.virtPid)
	var e bin.Encoder
	e.B = append(e.B, msgRegister)
	e.Str(m.desc)
	fd, addr, err := m.sys.dialCoord(t, retry.Policy{}, e.B)
	if err != nil && m.sys.haEnabled() {
		// A restored manager can land in a takeover interregnum (the
		// leader died mid-restart): wait out the election via the
		// resync path, which registers unknown identities too.
		if err = m.reconnectCoordinator(t); err == nil {
			return
		}
	}
	if err != nil {
		panic(fmt.Sprintf("dmtcp: cannot reach coordinator at %v: %v", addr, err))
	}
	m.coordFD, m.coordTo = fd, addr
}

// coordLost handles a dead coordinator connection.  Without standbys
// (or in a dying process) it returns an error immediately — the old
// behavior: the session is over.  With coordinator HA it retries with
// capped exponential backoff until the promoted standby answers,
// re-binding this manager's identity with a resync handshake; the
// typed CoordLostError surfaces only when the window closes with no
// leader.
func (m *Manager) coordLost(t *kernel.Task) error {
	if m.p.Dead || m.p.Zombie || !m.sys.haEnabled() {
		return fmt.Errorf("dmtcp: coordinator connection lost")
	}
	return m.reconnectCoordinator(t)
}

// reconnectCoordinator dials the (possibly re-elected) coordinator
// under the manager's redial policy and resyncs this manager's
// identity.
func (m *Manager) reconnectCoordinator(t *kernel.Task) error {
	if m.coordFD >= 0 {
		// Drop the dead connection's descriptor before dialing anew;
		// otherwise every takeover leaks one protected fd per manager.
		t.Close(m.coordFD)
		m.coordFD = -1
	}
	var e bin.Encoder
	e.B = append(e.B, msgResync)
	e.Str(m.desc)
	e.I64(m.curTag)
	e.Int(m.curPassed)
	fd, addr, err := m.sys.dialCoord(t, retry.CoordRetry(m.sys.C.Params), e.B)
	if err == nil {
		m.coordFD, m.coordTo = fd, addr
	}
	return err
}

// loop is the checkpoint manager thread: it blocks at the special
// barrier (waiting for a checkpoint request) and runs the checkpoint
// algorithm when one arrives.  A lost coordinator connection retries
// through coordLost: with standbys configured the manager resyncs
// with the promoted coordinator and keeps serving checkpoints.
func (m *Manager) loop(t *kernel.Task) {
	for {
		frame := m.pendingCkpt
		m.pendingCkpt = nil
		if frame == nil {
			var err error
			frame, err = t.RecvFrame(m.coordFD)
			if err != nil {
				if m.coordLost(t) != nil {
					return // coordinator gone for good, or process dying
				}
				continue
			}
		}
		if len(frame) == 0 || frame[0] != msgDoCkpt {
			continue
		}
		m.doCheckpoint(t, decodeCkptConfig(frame))
	}
}

// decodeCkptConfig decodes a begin-checkpoint request (doCkptFrame).
func decodeCkptConfig(frame []byte) ckptConfig {
	c := bin.Decoding(frame[1:])
	var cfg ckptConfig
	cfg.code(&c)
	return cfg
}

type ckptConfig struct {
	Dir      string
	Compress bool
	Fsync    bool
	Forked   bool
	Store    bool
	// Tag is the coordinator's round identity; barrier arrivals echo
	// it so a post-takeover coordinator can match arrivals to the
	// round it resumed and ignore stragglers of an older one.
	Tag int64
	// Workers sizes the parallel checkpoint writer pool.
	Workers int
	// Hint is the coordinator's straggler response: a floor on the
	// adaptive worker sizing, set when this host's write stage lagged
	// the cluster median last round (0 = no hint).
	Hint int
}

// code lists the begin-checkpoint request's fields.
func (cfg *ckptConfig) code(c *bin.Coder) {
	c.Str(&cfg.Dir)
	c.Bool(&cfg.Compress)
	c.Bool(&cfg.Fsync)
	c.Bool(&cfg.Forked)
	c.Bool(&cfg.Store)
	c.I64(&cfg.Tag)
	c.Int(&cfg.Workers)
	c.Int(&cfg.Hint)
}

// barrier reports arrival at a named global barrier and blocks until
// the coordinator releases it (§4.3: "the only global communication
// primitive used at checkpoint time is a barrier").  The stage just
// finished, and at the checkpointed barrier the write result, go to
// the System in process; the frame names the barrier and round, and
// the checkpointed arrival adds the image's placement and the write
// time.  If the coordinator dies mid-wait and a standby takes over,
// the arrival is re-sent on the resynced connection — the coordinator
// state machine treats duplicate arrivals as idempotent and
// re-releases barriers the old leader had already released before
// dying, so the manager never wedges mid-algorithm.
func (m *Manager) barrier(t *kernel.Task, name string, stage time.Duration, res *mtcp.WriteResult) error {
	bStart := t.Now()
	defer func() {
		// The barrier wait nests inside whichever stage span encloses
		// it: the coordinator-synchronization share of the stage.
		t.Trace().Span(t.Host(), m.track(t), "barrier."+name, "coord", bStart, t.Now())
	}()
	m.sys.reportBarrier(m.curTag, m.desc, name, stage, res)
	c := bin.Encoding(msgBarrier)
	c.E.Str(name)
	c.E.I64(m.curTag)
	if res != nil {
		c.E.I64(int64(stage))
		img := coordstate.ImageInfo{Host: t.P.Node.Hostname, Path: res.Path, Prog: t.P.ProgName,
			VirtPid: m.virtPid, Generation: res.Generation}
		img.Code(&c)
	}
	if err := m.await(t, name, c.E.B); err != nil {
		return err
	}
	m.curPassed++
	return nil
}

// await sends frames to the coordinator and blocks until it releases
// the barrier name.  If the connection dies, the manager resyncs with
// the current leader and sends the frames again; only a coordinator
// lost for good ends the wait early, with its error.  A checkpoint
// request for another round that arrives meanwhile (a promoted
// coordinator started one while this manager finished an aborted
// round, or one requested as a restart returns) is kept for loop,
// which serves it first.  A request for the round in progress is the
// resync re-send to a manager that had passed no barrier yet; running
// it again would checkpoint the round twice.  A restored manager's tag
// is 0, round 0's, which no round requested after a restart carries,
// so a restored rank keeps every request it sees.
func (m *Manager) await(t *kernel.Task, name string, frames ...[]byte) error {
	for {
		var err error
		for _, f := range frames {
			if err = t.SendFrame(m.coordFD, f); err != nil {
				break
			}
		}
		for err == nil {
			var frame []byte
			if frame, err = t.RecvFrame(m.coordFD); err != nil || len(frame) == 0 {
				continue
			}
			switch frame[0] {
			case msgRelease:
				if (&bin.Decoder{B: frame[1:]}).Str() == name {
					return nil
				}
			case msgDoCkpt:
				if decodeCkptConfig(frame).Tag != m.curTag {
					m.pendingCkpt = append([]byte(nil), frame...)
				}
			}
		}
		if lerr := m.coordLost(t); lerr != nil {
			return lerr
		}
	}
}

// doCheckpoint executes stages 2–7 of the checkpoint algorithm.
func (m *Manager) doCheckpoint(t *kernel.Task, cfg ckptConfig) {
	p := t.P
	params := m.sys.C.Params
	start := t.Now()
	m.curTag = cfg.Tag
	m.curPassed = 0

	// ---- Stage 2: suspend user threads --------------------------------
	p.CkptPending = true
	for _, cb := range m.aware.preCkpt {
		cb(t)
	}
	users := p.UserTasks()
	for _, u := range users {
		for u.InCritical() {
			p.CritW.Wait(t.T)
		}
	}
	// The suspend quantum is waiting (threads drift to the signal
	// handler over a scheduler quantum), not CPU: it must not contend
	// for cores with other managers suspending on the same node.
	t.Idle(params.Jitter(m.sys.C.Eng.Rand(),
		params.SuspendQuantum+time.Duration(len(users))*params.SuspendPerThread))
	for _, u := range users {
		u.T.Suspend()
	}
	owners := m.stampFDs(t)
	if err := m.barrier(t, "suspended", t.Now().Sub(start), nil); err != nil {
		return
	}

	// ---- Stage 3: elect shared-FD leaders ------------------------------
	s3 := t.Now()
	drainFDs := m.drainableFDs(t)
	for _, fd := range drainFDs {
		t.Fcntl(fd, kernel.FSetOwn, p.Pid) // last writer wins (§4.3)
	}
	if err := m.barrier(t, "elected", t.Now().Sub(s3), nil); err != nil {
		return
	}

	// ---- Stage 4: drain kernel buffers ---------------------------------
	s4 := t.Now()
	var leaders []int
	for _, fd := range drainFDs {
		if own, _ := t.Fcntl(fd, kernel.FGetOwn, 0); own == p.Pid {
			leaders = append(leaders, fd)
		}
	}
	conns, objects := m.drainAll(t, leaders)
	if len(leaders) > 0 {
		// The final poll timeout that concludes the drain (a wait, not
		// CPU).  A manager that leads no descriptor has nothing to poll
		// and goes straight to the barrier, which still waits for every
		// leader's settle.
		t.Idle(params.DrainSettle)
	}
	if err := m.barrier(t, "drained", t.Now().Sub(s4), nil); err != nil {
		return
	}

	// ---- Stage 5: write checkpoint to disk -----------------------------
	s5 := t.Now()
	res := m.writeImage(t, cfg, owners, conns)
	if err := m.barrier(t, "checkpointed", t.Now().Sub(s5), &res); err != nil {
		return
	}

	// ---- Stage 6: refill kernel buffers --------------------------------
	s6 := t.Now()
	refill(t, conns, objects)
	for _, fd := range t.P.SortedFDs() { // restore original F_SETOWN (§4.3)
		if own, ok := owners[fd]; ok {
			t.Fcntl(fd, kernel.FSetOwn, own)
		}
	}
	if err := m.barrier(t, "refilled", t.Now().Sub(s6), nil); err != nil {
		return
	}

	// ---- Stage 7: resume user threads ----------------------------------
	for _, u := range users {
		u.T.Resume()
	}
	p.CkptPending = false
	p.ResumeW.WakeAll()
	for _, cb := range m.aware.postCkpt {
		cb(t)
	}

	// Trace the round: five stage spans that exactly partition
	// [start, end] under one enclosing round span, so exclusive stage
	// time reconciles with round wall time by construction.
	if tr := t.Trace(); tr.Enabled() {
		end, host, trk := t.Now(), t.Host(), m.track(t)
		tr.Span(host, trk, "ckpt.round", "ckpt", start, end,
			obs.A("tag", m.curTag), obs.A("bytes", res.Bytes),
			obs.A("dedup_bytes", res.DedupBytes), obs.A("overlap_bytes", res.OverlapBytes),
			obs.A("workers", int64(res.Workers)))
		tr.Span(host, trk, "ckpt.suspend", "ckpt", start, s3)
		tr.Span(host, trk, "ckpt.elect", "ckpt", s3, s4)
		tr.Span(host, trk, "ckpt.drain", "ckpt", s4, s5)
		tr.Span(host, trk, "ckpt.write", "ckpt", s5, s6, obs.A("bytes", res.Bytes))
		tr.Span(host, trk, "ckpt.refill", "ckpt", s6, end)
		tr.Add(host, "ckpt.bytes_written", end, res.Bytes)
		tr.Add(host, "ckpt.dedup_bytes", end, res.DedupBytes)
		tr.Add(host, "ckpt.overlap_bytes", end, res.OverlapBytes)
	}
}

// writeImage is stage 5: it captures the process into an image that
// carries the descriptor, drain and pid tables, and writes it,
// monolithic or through the chunk store, in this task or, with forked
// checkpointing, in a background child.
func (m *Manager) writeImage(t *kernel.Task, cfg ckptConfig, owners map[int]kernel.Pid, conns []ConnRec) mtcp.WriteResult {
	p := t.P
	img := mtcp.Capture(p, m.virtPid)
	m.writeSections(img, m.fdTable(t, owners), conns)
	workers := cfg.Workers
	if workers == 0 && cfg.Store {
		// Adaptive sizing (CkptWorkers == 0): the user threads were
		// suspended above and released their core shares, so the idle
		// count reflects exactly what this write can use beside the
		// node's other tenants — all 4 cores on an idle node, fewer
		// under load, never oversubscribing.
		workers = p.Node.CPU().IdleCores()
		if cfg.Hint > workers {
			// Straggler response: last round this host's write bounded
			// the barrier, so the coordinator pre-sized the pool to the
			// node's full core count — claim a larger scheduler share
			// even beside competing tenants.
			workers = cfg.Hint
		}
	}
	opts := mtcp.WriteOptions{Dir: cfg.Dir, Compress: cfg.Compress, Fsync: cfg.Fsync,
		Workers: workers}
	if cfg.Store {
		opts.Store = m.sys.StoreOn(p.Node)
		m.sys.noteStoreWrite(p.Node)
		// Reserve the generation in the parent: committed manifests
		// alone cannot number it safely once forked writers overlap.
		gen := opts.Store.NextGeneration(mtcp.ImageBase(img))
		if gen <= m.lastStoreGen {
			gen = m.lastStoreGen + 1
		}
		m.lastStoreGen = gen
		opts.Generation = gen
		if m.sys.Replica != nil && m.sys.Cfg.ReplicaFactor > 0 {
			// Eager streaming: finished chunks flow to the replica
			// daemon as they land, so fan-out overlaps the write.  A
			// nil stream (no live daemon/targets) means nothing can
			// ship.
			if stream := m.sys.Replica.NewStream(p.Node, p, mtcp.ImageBase(img), gen, img.StoreChunks()); stream != nil {
				opts.Stream = stream
			}
		}
	}
	if !cfg.Forked {
		return mtcp.WriteImage(t, img, opts)
	}
	// Forked checkpointing (§5.3): the child writes and
	// compresses in the background; the parent's perceived cost
	// is the fork itself.  With the store enabled the parent
	// reports the reserved manifest path/generation and a
	// whole-image size estimate (it cannot know the dedup outcome
	// the child will discover); the writer count keeps GC off the
	// store until the child commits its manifest.
	node := p.Node
	if opts.Store != nil {
		m.sys.storeWriterInc(node)
	}
	t.ForkRaw("ckpt-writer", func(c *kernel.Task) {
		mtcp.WriteImage(c, img, opts)
		if opts.Store != nil {
			m.sys.storeWriterDec(node)
		}
		c.Exit(0)
	})
	res := mtcp.WriteResult{
		Path:     mtcp.ImagePath(opts.Dir, img, opts.Compress),
		RawBytes: img.LogicalBytes(),
		Bytes:    img.LogicalBytes(),
		Workers:  max(workers, 1),
	}
	if opts.Store != nil {
		res.Path = opts.Store.ManifestPath(mtcp.ImageBase(img), opts.Generation)
		res.Generation = opts.Generation
	}
	if opts.Compress {
		res.Bytes = img.CompressedBytes(m.sys.C.Params)
	}
	return res

}

// track names the manager's trace track: the checkpointed program
// qualified by its virtual pid.
func (m *Manager) track(t *kernel.Task) string {
	return fmt.Sprintf("%s[%d]", t.P.ProgName, m.virtPid)
}

// newGUID mints a globally unique socket id (§4.4).
func (m *Manager) newGUID(t *kernel.Task) GUID {
	m.nextConnSeq++
	return MakeGUID(m.p.Node.Hostname, m.virtPid, int64(t.Now()), m.nextConnSeq)
}

// --- kernel.Hooks implementation (the libc wrappers, §4.2) -----------

// PreConnect stages the connector→acceptor information transfer
// (§4.4): the connection's globally unique ID travels with the
// connection itself, so peers without wrappers (a plain sshd, an
// uncheckpointed vncviewer) are undisturbed and such sockets are
// simply left unmanaged.
func (m *Manager) PreConnect(t *kernel.Task, fd int, of *kernel.OpenFile, addr kernel.Addr) {
	if of.Protected {
		return
	}
	guid := m.newGUID(t)
	m.socks[of] = &SockMeta{GUID: guid}
	of.PendingTag = string(guid)
}

// PostAccept picks up the connector's transferred information.
func (m *Manager) PostAccept(t *kernel.Task, fd int, of *kernel.OpenFile) {
	if of.Protected || of.TCP == nil {
		return
	}
	tag := of.TCP.Tag()
	if tag == "" {
		return // connector not under DMTCP: leave the socket unmanaged
	}
	m.socks[of] = &SockMeta{GUID: GUID(tag), Acceptor: true}
}

// PostSocketpair registers both ends of a socketpair.
func (m *Manager) PostSocketpair(t *kernel.Task, a, b int, ofA, ofB *kernel.OpenFile) {
	guid := m.newGUID(t)
	m.socks[ofA] = &SockMeta{GUID: guid}
	m.socks[ofB] = &SockMeta{GUID: guid, Acceptor: true}
	if ofA.TCP != nil {
		ofA.TCP.SetTag(string(guid))
	}
}

// PipeOverride promotes pipes to socketpairs (§4.5).
func (m *Manager) PipeOverride(t *kernel.Task) (int, int, bool) {
	a, b := t.SocketPair() // a is the read end, b the write end
	return a, b, true
}

// RewriteExec prefixes remote ssh commands with dmtcp_checkpoint so
// remote children run under DMTCP too (§3).
func (m *Manager) RewriteExec(t *kernel.Task, prog string, args []string) (string, []string) {
	if prog == "ssh" && len(args) >= 2 && args[1] != "dmtcp_checkpoint" {
		rewritten := append([]string{args[0], "dmtcp_checkpoint"}, args[1:]...)
		return prog, rewritten
	}
	return prog, args
}

// PostFork inherits wrapper state into the child and checks for
// virtual-pid conflicts (§4.5).
func (m *Manager) PostFork(parent, child *kernel.Process) bool {
	childHooks, ok := child.Hooks().(*Manager)
	if !ok || childHooks == nil {
		return true // raw/internal fork: nothing to inherit
	}
	if m.sys.virtPidInUse(child.Node.Hostname, child.Pid) {
		return false // conflict: kernel kills the child and re-forks
	}
	childHooks.virtPid = child.Pid
	for of, meta := range m.socks {
		childHooks.socks[of] = meta
	}
	m.pidTable[child.Pid] = child.Pid
	return true
}

// Getpid virtualizes the process id (§4.5).
func (m *Manager) Getpid(p *kernel.Process) (kernel.Pid, bool) {
	return m.virtPid, true
}

// PidToVirt translates fork return values.
func (m *Manager) PidToVirt(p *kernel.Process, real kernel.Pid) (kernel.Pid, bool) {
	for v, r := range m.pidTable {
		if r == real {
			return v, true
		}
	}
	return real, true
}

// PidToReal translates waitpid/kill arguments.
func (m *Manager) PidToReal(p *kernel.Process, virt kernel.Pid) (kernel.Pid, bool) {
	if r, ok := m.pidTable[virt]; ok {
		return r, true
	}
	return virt, true
}

// WaitVirtual implements waitpid for restored children that are no
// longer kernel children (restart re-parents everything under the
// restart program).
func (m *Manager) WaitVirtual(t *kernel.Task, virt kernel.Pid) (int, bool) {
	proc := m.sys.procByVirt(m.p.Node.Hostname, virt)
	if proc == nil {
		return 0, false
	}
	code := t.WatchExit(proc)
	delete(m.pidTable, virt)
	return code, true
}

// VirtualChildren lists restored children for wait-any semantics.
func (m *Manager) VirtualChildren(p *kernel.Process) []*kernel.Process {
	var out []*kernel.Process
	for v := range m.pidTable {
		if v == m.virtPid {
			continue
		}
		if proc := m.sys.procByVirt(p.Node.Hostname, v); proc != nil {
			out = append(out, proc)
		}
	}
	return out
}

// ConsumeVirtualChild removes a reaped virtual child.
func (m *Manager) ConsumeVirtualChild(virt kernel.Pid) {
	delete(m.pidTable, virt)
}

// AtExit deregisters the process from the session.
func (m *Manager) AtExit(p *kernel.Process) {
	m.sys.unregisterProc(m)
}

// VirtPid returns the process's virtual pid.
func (m *Manager) VirtPid() kernel.Pid { return m.virtPid }
