package dmtcp

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/obs"
	"repro/internal/retry"
)

// drainToken is the flush cookie sent through every socket at drain
// time (§4.3 step 4).
var drainToken = []byte("\x00\x01DMTCP-EOB\x01\x00")

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
	preCkpt     []func(*kernel.Task)
	postCkpt    []func(*kernel.Task)
	postRestart []func(*kernel.Task)
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
				addr := m.sys.coordAddr()
				pfd := t.Socket()
				if of, err := t.P.FD(pfd); err == nil {
					of.Protected = true
				}
				rerr := t.Connect(pfd, addr)
				t.Close(pfd)
				if rerr == nil && m.coordFD >= 0 {
					fd := m.coordFD
					m.coordFD = -1
					t.Close(fd)
					continue
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
	fd := t.Socket()
	if of, err := t.P.FD(fd); err == nil {
		of.Protected = true // excluded from checkpointing
	}
	addr := m.sys.coordAddr()
	if err := t.Connect(fd, addr); err != nil {
		// A restored manager can land in a takeover interregnum (the
		// leader died mid-restart): with HA, wait out the election via
		// the resync path, which registers unknown identities too.
		t.Close(fd)
		m.coordFD = -1
		if m.sys.haEnabled() {
			if rerr := m.reconnectCoordinator(t); rerr == nil {
				return
			}
		}
		panic(fmt.Sprintf("dmtcp: cannot reach coordinator at %v: %v", addr, err))
	}
	var e bin.Encoder
	e.B = append(e.B, msgRegister)
	e.Str(m.desc)
	if err := t.SendFrame(fd, e.B); err != nil {
		panic(fmt.Sprintf("dmtcp: register: %v", err))
	}
	m.coordFD = fd
	m.coordTo = addr
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
// with the unified jittered-backoff policy and resyncs this manager's
// identity.
func (m *Manager) reconnectCoordinator(t *kernel.Task) error {
	pol := retry.CoordRetry(m.sys.C.Params)
	bo := pol.Backoff(m.sys.C.Eng.Rand())
	deadline := t.Now().Add(pol.Deadline)
	attempts := 0
	var lastErr error
	if m.coordFD >= 0 {
		// Drop the dead connection's descriptor before dialing anew;
		// otherwise every takeover leaks one protected fd per manager.
		t.Close(m.coordFD)
		m.coordFD = -1
	}
	for {
		if m.p.Dead || m.p.Zombie {
			return fmt.Errorf("dmtcp: process died while reconnecting")
		}
		attempts++
		addr := m.sys.coordAddr()
		fd := t.Socket()
		if of, err := t.P.FD(fd); err == nil {
			of.Protected = true
		}
		if err := t.Connect(fd, addr); err != nil {
			lastErr = err
			t.Close(fd)
		} else {
			var e bin.Encoder
			e.B = append(e.B, msgResync)
			e.Str(m.desc)
			e.I64(m.curTag)
			e.Int(m.curPassed)
			if err := t.SendFrame(fd, e.B); err != nil {
				lastErr = err
				t.Close(fd)
			} else {
				m.coordFD = fd
				m.coordTo = addr
				return nil
			}
		}
		delay := bo.Next()
		if t.Now().Add(delay) > deadline {
			return &CoordLostError{Addr: addr, Attempts: attempts, Err: lastErr}
		}
		t.Idle(delay)
	}
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
	d := &bin.Decoder{B: frame[1:]}
	return ckptConfig{
		Dir:      d.Str(),
		Compress: d.Bool(),
		Fsync:    d.Bool(),
		Forked:   d.Bool(),
		Store:    d.Bool(),
		Tag:      d.I64(),
		Workers:  d.Int(),
		Hint:     d.Int(),
	}
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
	var e bin.Encoder
	e.B = append(e.B, msgBarrier)
	e.Str(name)
	e.I64(m.curTag)
	if res != nil {
		e.I64(int64(stage))
		e.Str(t.P.Node.Hostname)
		e.Str(res.Path)
		e.Str(t.P.ProgName)
		e.I64(int64(m.virtPid))
		e.I64(res.Generation)
	}
	for {
		if err := t.SendFrame(m.coordFD, e.B); err != nil {
			if lerr := m.coordLost(t); lerr != nil {
				return lerr
			}
			continue // re-send the arrival on the new connection
		}
		for {
			frame, err := t.RecvFrame(m.coordFD)
			if err != nil {
				if lerr := m.coordLost(t); lerr != nil {
					return lerr
				}
				break // resynced: re-send the arrival
			}
			if len(frame) > 0 && frame[0] == msgRelease {
				d := &bin.Decoder{B: frame[1:]}
				if d.Str() == name {
					m.curPassed++
					return nil
				}
			}
			if len(frame) > 0 && frame[0] == msgDoCkpt && decodeCkptConfig(frame).Tag != m.curTag {
				// A promoted coordinator started a round while this
				// manager was still finishing an aborted one: keep the
				// request for loop so it is not lost mid-barrier.  A
				// request for the round in progress is the resync
				// re-send to a manager that had passed no barrier yet;
				// running it again would checkpoint the round twice.
				m.pendingCkpt = append([]byte(nil), frame...)
			}
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
	// Save descriptor ownership and stamp shared-description ids.
	owners := make(map[int]kernel.Pid)
	fdmap := p.FDs()
	for _, fd := range p.SortedFDs() {
		of := fdmap[fd]
		if of.Protected {
			continue
		}
		if of.CkptID == 0 {
			of.CkptID = m.sys.nextOFID()
		}
		owners[fd] = of.Owner
	}
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
	drained := m.drainAll(t, leaders)
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
	img := mtcp.Capture(p, m.virtPid)
	img.Ext["dmtcp.fdtable"] = encodeFDTable(m.fdTable(t, owners))
	img.Ext["dmtcp.conns"] = encodeConns(m.connRecs(t, drained))
	img.Ext["dmtcp.pids"] = encodePids(m.virtPid, m.pidTable)
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
			if stream := m.sys.Replica.NewStream(p.Node, p, mtcp.ImageBase(img), gen); stream != nil {
				opts.Stream = stream
			}
		}
	}
	var res mtcp.WriteResult
	if cfg.Forked {
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
		res = mtcp.WriteResult{
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
			res.Bytes = img.CompressedBytes(params)
		}
	} else {
		res = mtcp.WriteImage(t, img, opts)
	}
	if err := m.barrier(t, "checkpointed", t.Now().Sub(s5), &res); err != nil {
		return
	}

	// ---- Stage 6: refill kernel buffers --------------------------------
	s6 := t.Now()
	m.refill(t, drained)
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

// track names the manager's trace track: the checkpointed program
// qualified by its virtual pid.
func (m *Manager) track(t *kernel.Task) string {
	return fmt.Sprintf("%s[%d]", t.P.ProgName, m.virtPid)
}

// drainableFDs returns the descriptors participating in election and
// drain: connected stream sockets (incl. promoted pipes) and ptys.
func (m *Manager) drainableFDs(t *kernel.Task) []int {
	var out []int
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		of := fds[fd]
		if of.Protected {
			continue
		}
		switch of.Kind {
		case kernel.FKTCP, kernel.FKUnix:
			if of.TCP != nil && m.socks[of] != nil {
				out = append(out, fd)
			}
		case kernel.FKPtyMaster, kernel.FKPtySlave:
			out = append(out, fd)
		}
	}
	return out
}

// drainJob tracks one socket's drain progress.
type drainJob struct {
	fd       int
	tokenOut []byte
	buf      []byte
	done     bool
}

// drainAll flushes and drains the given descriptors concurrently:
// tokens are pushed with non-blocking sends and data is consumed as
// it arrives, so full buffers in either direction cannot deadlock the
// stage (§4.3 step 4).
func (m *Manager) drainAll(t *kernel.Task, fds []int) map[int][]byte {
	jobs := make([]*drainJob, 0, len(fds))
	for _, fd := range fds {
		jobs = append(jobs, &drainJob{fd: fd, tokenOut: drainToken})
	}
	deadline := t.Now().Add(500 * time.Millisecond)
	for {
		alive := false
		progress := false
		for _, j := range jobs {
			if len(j.tokenOut) > 0 {
				n, err := t.TrySend(j.fd, nil, j.tokenOut)
				if err != nil {
					j.tokenOut = nil // peer gone; nothing to flush
				} else {
					j.tokenOut = j.tokenOut[n:]
					if n > 0 {
						progress = true
					}
				}
				if len(j.tokenOut) > 0 {
					alive = true
				}
			}
			if j.done {
				continue
			}
			avail, err := t.Avail(j.fd)
			if err != nil {
				j.done = true
				continue
			}
			if avail > 0 {
				data, err := t.Recv(j.fd, avail)
				if err == nil {
					j.buf = append(j.buf, data...)
					progress = true
				}
			}
			if bytes.HasSuffix(j.buf, drainToken) {
				j.buf = j.buf[:len(j.buf)-len(drainToken)]
				j.done = true
			} else {
				alive = true
			}
		}
		if !alive {
			break
		}
		if t.Now() > deadline {
			// Poll timeout: peers without a draining leader (e.g. a
			// pty with no process on the other end) give up here.
			break
		}
		if !progress {
			t.Idle(200 * time.Microsecond) // let in-flight data land
		}
	}
	out := make(map[int][]byte, len(jobs))
	for _, j := range jobs {
		out[j.fd] = j.buf
	}
	return out
}

// refill pushes drained bytes back into the kernel receive buffers,
// charging the paper's two network crossings (receiver returns the
// data to the sender, who re-sends it — §4.3 step 6).
func (m *Manager) refill(t *kernel.Task, drained map[int][]byte) {
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		data, ok := drained[fd]
		if !ok || len(data) == 0 {
			continue
		}
		of := fds[fd]
		var ep *kernel.TCPEndpoint
		switch {
		case of.TCP != nil:
			ep = of.TCP
		case of.Pty != nil:
			ep = of.Pty.Endpoint()
		}
		if ep == nil {
			continue
		}
		t.Compute(ep.RefillCost(int64(len(data))).Duration())
		ep.Unread(data)
	}
}

// fdTable builds the descriptor-table records stored in the image.
func (m *Manager) fdTable(t *kernel.Task, owners map[int]kernel.Pid) []FDRec {
	var out []FDRec
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		of := fds[fd]
		if of.Protected {
			continue
		}
		rec := FDRec{FD: fd, OFID: of.CkptID, Owner: int64(owners[fd])}
		switch of.Kind {
		case kernel.FKConsole:
			rec.Kind = FDConsole
		case kernel.FKFile:
			rec.Kind = FDFile
			rec.Path = of.File.Path
			rec.Offset = of.File.Offset
		case kernel.FKTCPListen:
			rec.Kind = FDListener
			rec.Port = of.Listen.Addr().Port
		case kernel.FKUnixListen:
			rec.Kind = FDUnixListener
			rec.Path = of.Listen.Path()
		case kernel.FKTCP, kernel.FKUnix:
			meta := m.socks[of]
			if meta == nil {
				continue // unmanaged socket: not restorable
			}
			rec.Kind = FDConn
			rec.GUID = string(meta.GUID)
			rec.Accept = meta.Acceptor
		case kernel.FKPtyMaster:
			rec.Kind = FDPtyMaster
			rec.Pty = of.Pty.Pty.Name
			rec.Modes = of.Pty.Pty.Modes
		case kernel.FKPtySlave:
			rec.Kind = FDPtySlave
			rec.Pty = of.Pty.Pty.Name
			rec.Modes = of.Pty.Pty.Modes
		default:
			continue
		}
		out = append(out, rec)
	}
	return out
}

// connRecs pairs drained data with socket GUIDs for the image; pty
// buffers travel under synthetic per-end ids.
func (m *Manager) connRecs(t *kernel.Task, drained map[int][]byte) []ConnRec {
	var out []ConnRec
	fds := t.P.FDs()
	for _, fd := range t.P.SortedFDs() {
		data, ok := drained[fd]
		if !ok {
			continue
		}
		of := fds[fd]
		switch {
		case m.socks[of] != nil:
			out = append(out, ConnRec{GUID: string(m.socks[of].GUID), Drained: data})
		case of.Pty != nil:
			end := "s"
			if of.Pty.Master {
				end = "m"
			}
			out = append(out, ConnRec{GUID: "pty:" + of.Pty.Pty.Name + ":" + end, Drained: data})
		}
	}
	return out
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
	a, b := t.SocketPair()
	// a is the read end, b the write end by convention.
	fds := t.P.FDs()
	if meta := m.socks[fds[a]]; meta != nil {
		meta.IsPipe = true
	}
	if meta := m.socks[fds[b]]; meta != nil {
		meta.IsPipe = true
	}
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
