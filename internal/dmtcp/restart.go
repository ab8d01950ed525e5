package dmtcp

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/store"
)

// fetchFromEnv names the replica host dmtcp_restart pulls missing
// manifests and chunks from (set by RestartAll / failure recovery).
const fetchFromEnv = "DMTCP_FETCH_FROM"

// fetchHolders returns the live hosts a restart on target may pull
// path's chunks from, in preference order: primary (the holder the
// restart was pointed at) first, then every holder the coordinator's
// placement map verifies holds a complete copy — never target itself.
func (s *System) fetchHolders(path, primary string, target *kernel.Node) []string {
	seen := map[string]bool{target.Hostname: true}
	var out []string
	add := func(h string) {
		if h == "" || seen[h] {
			return
		}
		seen[h] = true
		if n := s.C.LookupHost(h); n == nil || n.Down {
			return
		}
		out = append(out, h)
	}
	add(primary)
	if name, gen, ok := store.NameForManifest(path); ok {
		if pi := s.Coord.st().Placement[name]; pi != nil {
			for _, h := range s.Coord.candidateHolders(pi, gen) {
				if s.Coord.holderComplete(h, name, gen) {
					add(h)
				}
			}
		}
	}
	return out
}

// ensureManifest makes path's manifest local, trying holders in order.
func (s *System) ensureManifest(t *kernel.Task, path string, holders []string) error {
	if t.P.Node.FS.Exists(path) {
		return nil
	}
	var tried []string
	var lastErr error
	for _, h := range holders {
		_, err := s.Replica.EnsureManifest(t, path, h)
		if err == nil {
			return nil
		}
		lastErr = err
		tried = append(tried, h)
	}
	return &replica.HolderLostError{Hosts: tried, Err: lastErr}
}

// pullFetcher implements mtcp.ChunkFetcher over one replica.PullStream
// in the eager restart's shape: workers connections on the first live
// holder, the stream failing over down the list when a holder dies.
// Chunks landed before a failure stay durable, so nothing is fetched
// twice; only with every holder gone does Fetch fail, with a typed
// replica.HolderLostError.
type pullFetcher struct {
	sv      *replica.Service
	holders []string
	workers int
}

// Fetch implements mtcp.ChunkFetcher.
func (f pullFetcher) Fetch(t *kernel.Task, refs []store.ChunkRef, deliver func(store.ChunkRef)) (int64, int, error) {
	ps := replica.NewPullStream(t, f.sv, f.holders, refs,
		replica.PullOptions{Stripe: 1, Conns: f.workers, Deliver: deliver})
	err := ps.Wait(t)
	return ps.Bytes(), ps.Chunks(), err
}

// procImage is one image a dmtcp_restart restores: the loaded image,
// its decoded tables, and (lazy restores) its post-copy tail.
type procImage struct {
	path  string
	img   *mtcp.Image
	fds   []FDRec
	conns []ConnRec
	vpid  kernel.Pid
	table map[kernel.Pid]kernel.Pid
	lazy  *lazyCtrl
}

// restart is one dmtcp_restart program in flight: the images it
// restores, what its steps hand on to each other, and its stage times.
type restart struct {
	s       *System
	t       *kernel.Task
	gen     string
	nGlobal int
	cfd     int // coordinator link: discovery and restart barriers
	imgs    []*procImage
	objects map[int64]*kernel.OpenFile     // OFID → object steps 1 and 2 restored
	procs   map[kernel.Pid]*kernel.Process // virtual pid → restored process
	st      RestartStages
	// refilled counts the children past step 6; each wakes doneW.
	refilled int
	doneW    *sim.WaitQueue
}

// restartMain is the dmtcp_restart program (§4.4): a single restart
// process per host that reopens files and ptys, reconnects sockets
// through the discovery service, and forks into the user processes,
// which rearrange their descriptors, restore memory and threads, refill
// kernel buffers, and resume.  Its stage times — or its fatal error —
// go to the RestartAll that spawned it in process, like its trace
// spans: the coordinator is only the discovery service and the barrier.
//
// args: <nGlobalProcs> <generation> <image>...
func (s *System) restartMain(t *kernel.Task, args []string) {
	if len(args) < 3 {
		t.Printf("usage: dmtcp_restart nGlobal gen images...\n")
		t.Exit(2)
	}
	nGlobal, _ := strconv.Atoi(args[0])
	r := &restart{s: s, t: t, gen: args[1], nGlobal: nGlobal,
		objects: make(map[int64]*kernel.OpenFile), procs: make(map[kernel.Pid]*kernel.Process)}
	if err := r.run(args[2:]); err != nil {
		// RestartAll returns the error rather than waiting forever for
		// stage times.
		t.Printf("dmtcp_restart: %v\n", err)
		s.reportRestart(r.gen, RestartStages{}, err)
		t.Exit(1)
	}
	s.reportRestart(r.gen, r.st, nil)

	// Remain as the parent of the restored processes (the paper's
	// restart process stays in the tree after forking).
	for {
		if _, _, err := t.WaitAny(); err != nil {
			return
		}
	}
}

// run takes the restart through its steps, then traces it: sequential
// segments that exactly partition [start, end] under one enclosing
// span — image loading (incl. the streamed restore pipelines),
// file/pty reopen, socket reconnection, the forked children's
// restore/refill/resume, and (lazy only) the post-resume prefetch
// drain.
func (r *restart) run(paths []string) error {
	t := r.t
	start := t.Now()
	// A restart spawned into a takeover interregnum (the leader died
	// after the group was journaled, the standby is still electing
	// itself) waits out the election instead of dying.
	cfd, _, err := r.s.dialCoord(t, retry.RestartDial(r.s.C.Params), nil)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	r.cfd = cfd
	if err := r.loadImages(paths); err != nil {
		return err
	}
	filesStart := t.Now()
	r.reopenFiles()
	connsStart := t.Now()
	r.reconnect()
	connsEnd := t.Now()
	r.fork()
	resumeEnd := t.Now()
	lazy, err := r.drainLazy()
	if err != nil {
		return err
	}
	end, st := t.Now(), &r.st
	st.Files, st.Conns, st.Total = connsStart.Sub(filesStart), connsEnd.Sub(connsStart), end.Sub(start)
	if lazy {
		// ResumePause is the availability metric (start → last process
		// resumed); Total still covers the drain, matching full-install
		// MTTR.
		st.ResumePause, st.PrefetchDrain = resumeEnd.Sub(start), end.Sub(resumeEnd)
	}
	if tr := t.Trace(); tr.Enabled() {
		host, trk := t.Host(), fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid)
		tr.Span(host, trk, "restart.total", "restart", start, end,
			obs.A("procs", int64(len(r.imgs))), obs.A("fetched_bytes", st.FetchedBytes),
			obs.A("overlap_bytes", st.OverlapBytes), obs.A("workers", int64(st.Workers)),
			obs.A("demand_bytes", st.DemandBytes), obs.A("prefetch_bytes", st.PrefetchBytes))
		tr.Span(host, trk, "restart.images", "restart", start, filesStart)
		tr.Span(host, trk, "restart.files", "restart", filesStart, connsStart)
		tr.Span(host, trk, "restart.conns", "restart", connsStart, connsEnd)
		tr.Span(host, trk, "restart.procs", "restart", connsEnd, resumeEnd)
		if lazy {
			tr.Span(host, trk, "restart.prefetch", "restart", resumeEnd, end,
				obs.A("demand_faults", int64(st.DemandFaults)))
		}
		tr.Add(host, "restart.fetched_bytes", end, st.FetchedBytes)
	}
	return nil
}

// loadImages is the restart.images segment of dmtcp_restart: it loads
// every image and decodes its tables.  Store manifests ride the
// restore pipeline, one per image, concurrently (the node's core
// scheduler arbitrates): chunks the node lacks are pulled from the
// replica holders — DMTCP_FETCH_FROM first, then every
// placement-verified complete holder — while an install pool lands
// each as it arrives, so node-failure recovery, store-mode migration
// and plain store restarts all ride one path.  With Config.LazyRestore
// the pipeline returns on the skeleton, and the image's post-copy tail
// starts pulling the rest here, overlapping files, conns and fork; it
// installs on as many workers as the pipeline did.
// Monolithic images load headers only; their children pay the bulk.
// Pipeline statistics fold into the stage times, with the slowest
// pipeline's wall time as Memory.
func (r *restart) loadImages(paths []string) error {
	s, t, st := r.s, r.t, &r.st
	from := t.P.Env[fetchFromEnv]
	workers := s.Cfg.CkptWorkers
	if workers == 0 {
		// Adaptive (CkptWorkers == 0): size the restore pool from the
		// node's observed idle cores — a restart on an idle node gets
		// the whole machine, one beside live tenants stays polite.
		workers = t.P.Node.CPU().IdleCores()
	}
	opts := mtcp.RestoreOptions{Workers: workers, Lazy: s.Cfg.LazyRestore && s.Replica != nil}
	r.imgs = make([]*procImage, len(paths))
	holders := make([][]string, len(paths))
	pending := make([][]mtcp.LazyChunk, len(paths))
	stats := make([]mtcp.RestoreStats, len(paths))
	errs := make([]error, len(paths))
	running := 0
	pipeW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.pipe")
	for i, path := range paths {
		r.imgs[i] = &procImage{path: path}
		if !store.IsManifestPath(path) {
			continue
		}
		if s.Replica != nil {
			holders[i] = s.fetchHolders(path, from, t.P.Node)
		}
		i, path := i, path
		running++
		t.P.SpawnTask("restore-pipe", true, func(pt *kernel.Task) {
			defer func() {
				running--
				pipeW.WakeAll()
			}()
			o := opts
			if from != "" && s.Replica != nil {
				if errs[i] = s.ensureManifest(pt, path, holders[i]); errs[i] != nil {
					return
				}
				o.Fetch = pullFetcher{sv: s.Replica, holders: holders[i], workers: workers}
			}
			r.imgs[i].img, pending[i], stats[i], errs[i] = mtcp.Restore(pt, path, o)
		})
	}
	for running > 0 {
		pipeW.Wait(t.T)
	}
	for i, pi := range r.imgs {
		if errs[i] != nil {
			return fmt.Errorf("restore %s: %w", pi.path, errs[i])
		}
		rs := stats[i]
		st.Fetch = max(st.Fetch, rs.Fetch)
		st.FetchedBytes += rs.FetchedBytes
		st.FetchedChunks += rs.FetchedChunks
		st.OverlapBytes += rs.OverlapBytes
		st.Workers = max(st.Workers, rs.Workers)
		st.Memory = max(st.Memory, rs.Took)
		if len(pending[i]) > 0 {
			pi.lazy = newLazyCtrl(s, t, pi.img, pending[i], holders[i], workers)
		}
	}

	for _, pi := range r.imgs {
		if pi.img == nil {
			img, err := mtcp.LoadImage(t, pi.path)
			if err != nil {
				return fmt.Errorf("%s: %w", pi.path, err)
			}
			pi.img = img
		}
		if err := pi.readSections(); err != nil {
			return err
		}
	}
	return nil
}

// reopenFiles is §4.4 step 1: reopen each file and listener and
// recreate each pty, once however many restored descriptors share it.
func (r *restart) reopenFiles() {
	ptys := make(map[string][2]*kernel.OpenFile)
	for _, pi := range r.imgs {
		for _, rec := range pi.fds {
			if _, done := r.objects[rec.OFID]; !done {
				if of := reopen(r.t, rec, ptys); of != nil {
					r.objects[rec.OFID] = of
				}
			}
		}
	}
}

// reconnect is §4.4 step 2: recreate each connection once.  Both ends
// restored here become a socketpair, the connector's end first.  Of the
// rest, the acceptor side advertises its restart listener through the
// discovery service, and the connector queries it and connects.
func (r *restart) reconnect() {
	t := r.t
	type connSide struct {
		ofid   int64
		accept bool
	}
	sides := make(map[string][]connSide)
	var guids, remote []string
	for _, pi := range r.imgs {
		for _, rec := range pi.fds {
			seen := func(cs connSide) bool { return cs.ofid == rec.OFID }
			if rec.Kind != FDConn || slices.ContainsFunc(sides[rec.GUID], seen) {
				continue // a shared description already seen from another process
			}
			if len(sides[rec.GUID]) == 0 {
				guids = append(guids, rec.GUID)
			}
			sides[rec.GUID] = append(sides[rec.GUID], connSide{rec.OFID, rec.Accept})
		}
	}
	inbound := 0
	for _, guid := range guids {
		ss := sides[guid]
		if len(ss) != 2 {
			remote = append(remote, guid)
			if ss[0].accept {
				inbound++
			}
			continue
		}
		a, b := t.SocketPair()
		if ss[0].accept {
			ss[0], ss[1] = ss[1], ss[0]
		}
		r.objects[ss[0].ofid], _ = t.P.FD(a)
		r.objects[ss[1].ofid], _ = t.P.FD(b)
	}
	if len(remote) == 0 {
		return
	}
	lfd := t.Socket()
	t.Bind(lfd, 0)
	t.Listen(lfd)
	lof, _ := t.P.FD(lfd)
	port := lof.Listen.Addr().Port
	got := 0
	gotW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.accept")
	if inbound > 0 {
		t.P.SpawnTask("racceptor", false, func(a *kernel.Task) {
			for i := 0; i < inbound; i++ {
				cfd, err := a.Accept(lfd)
				if err != nil {
					return
				}
				frame, err := a.RecvFrame(cfd)
				if err != nil {
					continue
				}
				d := &bin.Decoder{B: frame}
				of, _ := a.P.FD(cfd)
				for _, cs := range sides[d.Str()] {
					r.objects[cs.ofid] = of
				}
				got++
				gotW.WakeAll()
			}
		})
	}
	for _, guid := range remote {
		if !sides[guid][0].accept {
			continue
		}
		var e bin.Encoder
		e.B = append(e.B, msgAdvertise)
		e.Str(guid)
		e.Str(t.P.Node.Hostname)
		e.Int(port)
		t.SendFrame(r.cfd, e.B)
	}
	for _, guid := range remote {
		if sides[guid][0].accept {
			continue
		}
		var e bin.Encoder
		e.B = append(e.B, msgQuery)
		e.Str(guid)
		t.SendFrame(r.cfd, e.B)
		frame, err := t.RecvFrame(r.cfd)
		if err != nil {
			break
		}
		d := &bin.Decoder{B: frame[1:]}
		_ = d.Str() // guid echo
		addr := kernel.Addr{Host: d.Str(), Port: d.Int()}
		sfd := t.Socket()
		if err := t.Connect(sfd, addr); err != nil {
			t.Printf("dmtcp_restart: reconnect %s: %v\n", guid, err)
			continue
		}
		var h bin.Encoder
		h.Str(guid)
		t.SendFrame(sfd, h.B)
		r.objects[sides[guid][0].ofid], _ = t.P.FD(sfd)
	}
	for got < inbound {
		gotW.Wait(t.T)
	}
}

// fork is §4.4 step 3: it forks one child per image, rebuilds the
// checkpointed parent-child links among them, then lets every child
// run steps 4–6 and waits until each has refilled.
func (r *restart) fork() {
	t := r.t
	gateOpen := false
	gate := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.gate")
	r.doneW = sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.done")
	for _, pi := range r.imgs {
		pi := pi
		pid := t.ForkRaw(pi.img.ProgName, func(c *kernel.Task) {
			for !gateOpen {
				gate.Wait(c.T)
			}
			// restore ends in the program's Restore; when that returns,
			// this main task ends and the process exits normally.
			r.restore(c, pi)
		})
		r.procs[pi.vpid], _ = t.P.Kern.Process(pid)
	}
	for _, pi := range r.imgs {
		parent := r.procs[pi.vpid]
		for virt := range pi.table {
			if child, ok := r.procs[virt]; ok && virt != pi.vpid && parent != nil {
				t.P.Kern.Reparent(child, parent)
			}
		}
	}
	gateOpen = true
	gate.WakeAll()
	for r.refilled < len(r.imgs) {
		r.doneW.Wait(t.T)
	}
}

// restore runs in a forked child: §4.4 steps 4–6 between the restart
// barriers, then the resume.  Store restores pay the bulk (reads and
// decompression) in the pipeline, so the restart's Memory keeps the
// pipeline wall time unless a child's step 5 took longer.  It overlaps
// the Fetch stage by construction: Total < Fetch + Memory is the win,
// not an accounting error.
func (r *restart) restore(c *kernel.Task, pi *procImage) {
	mgr := r.rearrange(c, pi)
	m5 := c.Now()
	r.restoreMemory(c, pi, mgr)
	memDur := c.Now().Sub(m5)
	// Global barrier: every restored process has its memory back (the
	// paper's restored processes resume at Barrier 5).
	r.s.groupBarrier(c, mgr, "r-mem-"+r.gen, r.nGlobal, r.gen, pi.path, coordstate.RestartRankInstalled)

	r6 := c.Now()
	refill(c, pi.conns, r.objects) // step 6
	refillDur := c.Now().Sub(r6)
	track := fmt.Sprintf("%s[%d]", pi.img.ProgName, pi.vpid)
	c.Trace().Span(c.Host(), track, "restore.mem", "restart", m5, m5.Add(memDur))
	c.Trace().Span(c.Host(), track, "restore.refill", "restart", r6, r6.Add(refillDur))
	r.st.Memory = max(r.st.Memory, memDur)
	r.st.Refill = max(r.st.Refill, refillDur)
	r.refilled++
	r.doneW.WakeAll()
	r.s.groupBarrier(c, mgr, "r-refill-"+r.gen, r.nGlobal, r.gen, pi.path, coordstate.RestartRankResumed)
	r.resume(c, pi, mgr)
}

// rearrange is §4.4 step 4: close what the fork inherited and point
// each recorded descriptor at its restored object.  It returns the
// process's new manager, which already tracks its connections.
func (r *restart) rearrange(c *kernel.Task, pi *procImage) *Manager {
	for _, fd := range c.P.SortedFDs() {
		c.Close(fd)
	}
	mgr := newManager(r.s, c.P)
	for _, rec := range pi.fds {
		mgr.install(rec, r.objects)
	}
	return mgr
}

// restoreMemory is §4.4 step 5: restore memory and threads (a
// monolithic image reads its body here; a store image came through the
// restore pipeline), then rebuild the DMTCP manager with its restored
// identity and tables and reconnect it to the coordinator.
func (r *restart) restoreMemory(c *kernel.Task, pi *procImage, mgr *Manager) {
	p := c.P
	if !store.IsManifestPath(pi.path) {
		mtcp.ChargeMemoryRestore(c, pi.img, pi.path, r.s.Cfg.CkptWorkers)
	}
	mtcp.InstallMemory(p, pi.img, c, func(t *kernel.Task, rec mtcp.AreaRecord) *kernel.ShmSegment {
		seg := r.s.resolveShm(t, rec.ShmBacking, rec.Bytes, rec.Class())
		if len(seg.Payload) == 0 && len(rec.Payload) > 0 {
			// First process to touch the segment writes the
			// checkpointed contents back (§4.5: both writers carry
			// the same data).
			seg.Payload = append([]byte(nil), rec.Payload...)
		}
		return seg
	})
	if pi.lazy != nil {
		// Post-copy: InstallMemory copied whatever the background pull
		// had landed in the image buffers; arm presence maps and the
		// first-touch fault hook for the chunks still in flight.
		pi.lazy.wire(p)
	}
	p.Env = make(map[string]string, len(pi.img.Env))
	maps.Copy(p.Env, pi.img.Env)

	mgr.restored = true
	mgr.virtPid = pi.vpid
	for virt := range pi.table {
		if proc, ok := r.procs[virt]; ok {
			mgr.pidTable[virt] = proc.Pid
		}
	}
	mgr.pidTable[pi.vpid] = p.Pid
	p.SetHooks(mgr)
	mgr.started = true
	r.s.registerProc(mgr)
	mgr.connectCoordinator(c)
}

// resume lets the restored process run again: its manager thread
// resumes the wait-for-checkpoint loop, interrupted sends complete so
// streams stay byte-exact, and the program's Restore takes over the
// calling (main) task.
func (r *restart) resume(c *kernel.Task, pi *procImage, mgr *Manager) {
	p := c.P
	mgr.mgrTask = p.SpawnTask("ckpt-mgr", true, mgr.loop)
	mgr.startHeartbeat()
	for _, tr := range pi.img.Threads {
		if tr.ContFD >= 0 && len(tr.ContData) > 0 {
			c.ResumeSend(int(tr.ContFD), tr.ContData)
		}
	}
	prog, ok := r.s.C.Program(pi.img.ProgName)
	if !ok {
		c.Printf("dmtcp_restart: unknown program %q\n", pi.img.ProgName)
		return
	}
	res, ok := prog.(kernel.Resumable)
	if !ok {
		c.Printf("dmtcp_restart: program %q is not resumable\n", pi.img.ProgName)
		return
	}
	res.Restore(c, p.LoadState())
}

// drainLazy blocks on each post-copy tail — the processes already run
// on their skeletons — and folds its pull stream into the fetch
// accounting.  It reports whether any image restored lazily.
func (r *restart) drainLazy() (bool, error) {
	lazy, st := false, &r.st
	for _, pi := range r.imgs {
		lc := pi.lazy
		if lc == nil {
			continue
		}
		lazy = true
		if err := lc.drain(r.t); err != nil {
			return true, fmt.Errorf("lazy drain: %w", err)
		}
		st.FetchedBytes += lc.ps.Bytes()
		st.FetchedChunks += lc.ps.Chunks()
		st.DemandBytes += lc.ps.DemandBytes()
		st.PrefetchBytes += lc.ps.PrefetchBytes()
		st.DemandFaults += lc.faults
	}
	return lazy, nil
}

// dialCoord opens a protected connection to the current coordinator and
// sends hello on it when non-nil.  A failed attempt retries under pol's
// jittered backoff, across a takeover interregnum, until pol's deadline
// closes with no leader answering; a zero Policy makes one attempt and
// returns its error as is.  The jitter matters for restarts most of
// all: every restarting rank dials at once, and identical backoff
// schedules would stampede the coordinator in lockstep after each
// refusal.
func (s *System) dialCoord(t *kernel.Task, pol retry.Policy, hello []byte) (int, kernel.Addr, error) {
	bo := pol.Backoff(s.C.Eng.Rand())
	deadline := t.Now().Add(pol.Deadline)
	for attempts := 1; ; attempts++ {
		if t.P.Dead || t.P.Zombie {
			return -1, kernel.Addr{}, fmt.Errorf("dmtcp: process died while reconnecting")
		}
		addr := s.coordAddr()
		fd := t.Socket()
		if of, err := t.P.FD(fd); err == nil {
			of.Protected = true // excluded from checkpointing
		}
		err := t.Connect(fd, addr)
		if err == nil && hello != nil {
			err = t.SendFrame(fd, hello)
		}
		if err == nil {
			return fd, addr, nil
		}
		t.Close(fd)
		if pol.Deadline == 0 {
			return -1, addr, err
		}
		delay := bo.Next()
		if t.Now().Add(delay) > deadline {
			return -1, addr, &CoordLostError{Addr: addr, Attempts: attempts, Err: err}
		}
		t.Idle(delay)
	}
}

// groupBarrier reports this rank's restart progress and joins a named
// cluster-wide barrier through the coordinator, blocking until
// released.  Both frames are journaled before any release goes out
// (synchronous barrier commit), so a standby promoted mid-restart can
// reconstruct the group's membership; if the leader dies mid-wait the
// manager resyncs and the rank re-reports and rejoins — both events
// are idempotent on the coordinator, and a group the old leader had
// already released re-releases the rank immediately.  id is the
// rank's image path, the same identity RestartAll journaled in the
// restart-group event.
func (s *System) groupBarrier(t *kernel.Task, mgr *Manager, name string, total int, gen, id, stage string) {
	var re bin.Encoder
	re.B = append(re.B, msgRestartRank)
	re.Str(gen)
	re.Str(id)
	re.Str(stage)
	var e bin.Encoder
	e.B = append(e.B, msgGroup)
	e.Str(name)
	e.Int(total)
	e.Str(id)
	for {
		if t.SendFrame(mgr.coordFD, re.B) != nil || t.SendFrame(mgr.coordFD, e.B) != nil {
			if mgr.coordLost(t) != nil {
				return
			}
			continue // re-report and rejoin on the new connection
		}
		for {
			frame, err := t.RecvFrame(mgr.coordFD)
			if err != nil {
				if mgr.coordLost(t) != nil {
					return
				}
				break // resynced: re-report and rejoin
			}
			if len(frame) > 0 && frame[0] == msgRelease {
				d := &bin.Decoder{B: frame[1:]}
				if d.Str() == name {
					return
				}
			}
			if len(frame) > 0 && frame[0] == msgDoCkpt {
				// A checkpoint requested as RestartAll returned: keep it
				// for the manager's loop, which starts after the last
				// restart barrier and serves it first.
				mgr.pendingCkpt = append([]byte(nil), frame...)
			}
		}
	}
}
