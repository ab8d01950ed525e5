package dmtcp

import (
	"fmt"
	"strconv"
	"time"

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
// Pipeline statistics fold into st, with the slowest pipeline's wall
// time as Memory.
func (s *System) loadImages(t *kernel.Task, paths []string, st *RestartStages) ([]*procImage, error) {
	from := t.P.Env[fetchFromEnv]
	workers := s.Cfg.CkptWorkers
	if workers == 0 {
		// Adaptive (CkptWorkers == 0): size the restore pool from the
		// node's observed idle cores — a restart on an idle node gets
		// the whole machine, one beside live tenants stays polite.
		workers = t.P.Node.CPU().IdleCores()
	}
	opts := mtcp.RestoreOptions{Workers: workers, Lazy: s.Cfg.LazyRestore && s.Replica != nil}
	imgs := make([]*procImage, len(paths))
	holders := make([][]string, len(paths))
	pending := make([][]mtcp.LazyChunk, len(paths))
	stats := make([]mtcp.RestoreStats, len(paths))
	errs := make([]error, len(paths))
	running := 0
	pipeW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.pipe")
	for i, path := range paths {
		imgs[i] = &procImage{path: path}
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
			imgs[i].img, pending[i], stats[i], errs[i] = mtcp.Restore(pt, path, o)
		})
	}
	for running > 0 {
		pipeW.Wait(t.T)
	}
	for i, pi := range imgs {
		if errs[i] != nil {
			return nil, fmt.Errorf("restore %s: %w", pi.path, errs[i])
		}
		rs := stats[i]
		if rs.Fetch > st.Fetch {
			st.Fetch = rs.Fetch
		}
		st.FetchedBytes += rs.FetchedBytes
		st.FetchedChunks += rs.FetchedChunks
		st.OverlapBytes += rs.OverlapBytes
		if rs.Workers > st.Workers {
			st.Workers = rs.Workers
		}
		if rs.Took > st.Memory {
			st.Memory = rs.Took
		}
		if len(pending[i]) > 0 {
			pi.lazy = newLazyCtrl(s, t, pi.img, pending[i], holders[i], workers)
		}
	}

	for _, pi := range imgs {
		if pi.img == nil {
			img, err := mtcp.LoadImage(t, pi.path)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pi.path, err)
			}
			pi.img = img
		}
		var err error
		if b, ok := pi.img.Ext["dmtcp.fdtable"]; ok {
			if pi.fds, err = decodeFDTable(b); err != nil {
				return nil, fmt.Errorf("%s: bad fd table: %w", pi.path, err)
			}
		}
		if b, ok := pi.img.Ext["dmtcp.conns"]; ok {
			if pi.conns, err = decodeConns(b); err != nil {
				return nil, fmt.Errorf("%s: bad conn table: %w", pi.path, err)
			}
		}
		if b, ok := pi.img.Ext["dmtcp.pids"]; ok {
			if pi.vpid, pi.table, err = decodePids(b); err != nil {
				return nil, fmt.Errorf("%s: bad pid table: %w", pi.path, err)
			}
		}
	}
	return imgs, nil
}

// restartMain is the dmtcp_restart program (§4.4): a single restart
// process per host that reopens files and ptys, reconnects sockets
// through the discovery service, forks into the user processes,
// rearranges descriptors, restores memory and threads, refills kernel
// buffers, and resumes.  Its stage times — or its fatal error — go to
// the RestartAll that spawned it in process, like its trace spans: the
// coordinator is only the discovery service and the barrier.
//
// args: <nGlobalProcs> <generation> <image>...
func (s *System) restartMain(t *kernel.Task, args []string) {
	if len(args) < 3 {
		t.Printf("usage: dmtcp_restart nGlobal gen images...\n")
		t.Exit(2)
	}
	nGlobal, _ := strconv.Atoi(args[0])
	gen := args[1]
	paths := args[2:]

	start := t.Now()
	var st RestartStages

	// fail hands a fatal error to RestartAll (so it returns the error
	// rather than waiting forever for stage times) and exits non-zero.
	fail := func(err error) {
		t.Printf("dmtcp_restart: %v\n", err)
		s.reportRestart(gen, RestartStages{}, err)
		t.Exit(1)
	}

	// Coordinator link for discovery and restart barriers.  A restart
	// spawned into a takeover interregnum (the leader died after the
	// group was journaled, the standby is still electing itself) waits
	// out the election instead of dying.
	cfd, err := s.dialCoord(t)
	if err != nil {
		fail(fmt.Errorf("coordinator: %w", err))
	}

	// ---- Image loading ---------------------------------------------------
	imgs, err := s.loadImages(t, paths, &st)
	if err != nil {
		fail(err)
	}

	// ---- Step 1: reopen files and recreate ptys ------------------------
	filesStart := t.Now()
	objects := make(map[int64]*kernel.OpenFile) // OFID → restored object
	ptyNames := make(map[string]string)         // old pts name → new
	ptyPairs := make(map[string][2]*kernel.OpenFile)
	for _, pi := range imgs {
		for _, rec := range pi.fds {
			if _, done := objects[rec.OFID]; done {
				continue
			}
			switch rec.Kind {
			case FDFile:
				if !t.P.Node.FS.Exists(rec.Path) {
					t.P.Node.FS.WriteFile(rec.Path, nil, 0)
				}
				fd, err := t.Open(rec.Path)
				if err != nil {
					continue
				}
				of, _ := t.P.FD(fd)
				of.File.Offset = rec.Offset
				objects[rec.OFID] = of
			case FDListener:
				fd, err := t.ListenTCP(rec.Port)
				if err != nil {
					t.Printf("dmtcp_restart: rebind %d: %v\n", rec.Port, err)
					continue
				}
				of, _ := t.P.FD(fd)
				objects[rec.OFID] = of
			case FDUnixListener:
				fd := t.UnixSocket()
				if err := t.BindUnix(fd, rec.Path); err == nil {
					t.Listen(fd)
				}
				of, _ := t.P.FD(fd)
				objects[rec.OFID] = of
			case FDPtyMaster, FDPtySlave:
				pair, ok := ptyPairs[rec.Pty]
				if !ok {
					mfd, newName := t.Openpt()
					sfd, err := t.OpenPts(newName)
					if err != nil {
						continue
					}
					mof, _ := t.P.FD(mfd)
					sof, _ := t.P.FD(sfd)
					t.TcSetAttr(mfd, rec.Modes)
					pair = [2]*kernel.OpenFile{mof, sof}
					ptyPairs[rec.Pty] = pair
					ptyNames[rec.Pty] = newName
				}
				if rec.Kind == FDPtyMaster {
					objects[rec.OFID] = pair[0]
				} else {
					objects[rec.OFID] = pair[1]
				}
			}
		}
	}
	st.Files = t.Now().Sub(filesStart)

	// ---- Step 2: recreate and reconnect sockets ------------------------
	s2 := t.Now()
	type connSide struct {
		ofid   int64
		accept bool
	}
	sides := make(map[string][]connSide)
	var guidOrder []string
	for _, pi := range imgs {
		for _, rec := range pi.fds {
			if rec.Kind != FDConn {
				continue
			}
			dup := false
			for _, cs := range sides[rec.GUID] {
				if cs.ofid == rec.OFID {
					dup = true // shared description seen from another process
				}
			}
			if dup {
				continue
			}
			if len(sides[rec.GUID]) == 0 {
				guidOrder = append(guidOrder, rec.GUID)
			}
			sides[rec.GUID] = append(sides[rec.GUID], connSide{ofid: rec.OFID, accept: rec.Accept})
		}
	}
	// Local pairs first: both endpoints restored by this process.
	var remote []string
	for _, guid := range guidOrder {
		ss := sides[guid]
		if len(ss) == 2 {
			a, b := t.SocketPair()
			ofA, _ := t.P.FD(a)
			ofB, _ := t.P.FD(b)
			// Connector gets the first end, acceptor the second.
			if ss[0].accept {
				ss[0], ss[1] = ss[1], ss[0]
			}
			objects[ss[0].ofid] = ofA
			objects[ss[1].ofid] = ofB
		} else {
			remote = append(remote, guid)
		}
	}
	// Remote endpoints: the acceptor side advertises its restart
	// listener; the connector queries the discovery service and
	// connects (§4.4).
	inbound := 0
	for _, guid := range remote {
		if sides[guid][0].accept {
			inbound++
		}
	}
	if len(remote) > 0 {
		lfd := t.Socket()
		t.Bind(lfd, 0)
		t.Listen(lfd)
		lof, _ := t.P.FD(lfd)
		port := lof.Listen.Addr().Port
		got := 0
		gotW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.accept")
		if inbound > 0 {
			n := inbound
			t.P.SpawnTask("racceptor", false, func(a *kernel.Task) {
				for i := 0; i < n; i++ {
					cfd2, err := a.Accept(lfd)
					if err != nil {
						return
					}
					frame, err := a.RecvFrame(cfd2)
					if err != nil {
						continue
					}
					d := &bin.Decoder{B: frame}
					guid := d.Str()
					of, _ := a.P.FD(cfd2)
					for _, cs := range sides[guid] {
						objects[cs.ofid] = of
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
			t.SendFrame(cfd, e.B)
		}
		for _, guid := range remote {
			if sides[guid][0].accept {
				continue
			}
			var e bin.Encoder
			e.B = append(e.B, msgQuery)
			e.Str(guid)
			t.SendFrame(cfd, e.B)
			frame, err := t.RecvFrame(cfd)
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
			of, _ := t.P.FD(sfd)
			objects[sides[guid][0].ofid] = of
		}
		for got < inbound {
			gotW.Wait(t.T)
		}
	}
	st.Conns = t.Now().Sub(s2)

	// ---- Steps 3–7: fork, rearrange, restore, refill, resume -----------
	vpidToProc := make(map[kernel.Pid]*kernel.Process)
	gateOpen := false
	gate := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.gate")
	doneCount := 0
	doneW := sim.NewWaitQueue(t.P.Node.Cluster.Eng, "restart.done")
	var memMax, refillMax time.Duration

	report := func(mem, refill time.Duration) {
		if mem > memMax {
			memMax = mem
		}
		if refill > refillMax {
			refillMax = refill
		}
		doneCount++
		doneW.WakeAll()
	}
	for _, pi := range imgs {
		pi := pi
		pid := t.ForkRaw(pi.img.ProgName, func(c *kernel.Task) {
			for !gateOpen {
				gate.Wait(c.T)
			}
			// restoreProcess calls report just before handing control
			// to the program's Restore; when Restore returns, this
			// main task ends and the process exits normally.
			s.restoreProcess(c, pi.path, pi.img, pi.fds, pi.conns,
				pi.vpid, pi.table, objects, ptyNames, vpidToProc, nGlobal, gen,
				pi.lazy, report)
		})
		proc, _ := t.P.Kern.Process(pid)
		vpidToProc[pi.vpid] = proc
	}
	// Reconstruct app-level parent-child relationships among restored
	// processes on this host.
	for _, pi := range imgs {
		parent := vpidToProc[pi.vpid]
		for virt := range pi.table {
			if virt == pi.vpid {
				continue
			}
			if child, ok := vpidToProc[virt]; ok && parent != nil {
				t.P.Kern.Reparent(child, parent)
			}
		}
	}
	gateOpen = true
	gate.WakeAll()
	for doneCount < len(imgs) {
		doneW.Wait(t.T)
	}
	if memMax > st.Memory {
		// Store restores pay the bulk (reads + decompression) in the
		// pipeline, not the children, so Memory already holds the
		// pipeline wall time.  It overlaps the Fetch stage by
		// construction: Total < Fetch + Memory is the win, not an
		// accounting error.
		st.Memory = memMax
	}
	st.Refill = refillMax

	// Post-copy tail: the processes are already running on their
	// skeletons; block here only for the background drain, then fold
	// the pull-stream's bytes into the fetch accounting.  ResumePause
	// is the availability metric (start → last process resumed);
	// Total still covers the drain, matching full-install MTTR.
	resumeEnd := t.Now()
	anyLazy := false
	for _, pi := range imgs {
		lc := pi.lazy
		if lc == nil {
			continue
		}
		anyLazy = true
		if err := lc.drain(t); err != nil {
			fail(fmt.Errorf("lazy drain: %w", err))
		}
		st.FetchedBytes += lc.ps.Bytes()
		st.FetchedChunks += lc.ps.Chunks()
		st.DemandBytes += lc.ps.DemandBytes()
		st.PrefetchBytes += lc.ps.PrefetchBytes()
		st.DemandFaults += lc.faults
	}
	if anyLazy {
		st.ResumePause = resumeEnd.Sub(start)
		st.PrefetchDrain = t.Now().Sub(resumeEnd)
	}
	st.Total = t.Now().Sub(start)

	// Trace the restart: sequential segments that exactly partition
	// [start, end] under one enclosing span — image loading (incl. the
	// streamed restore pipelines), file/pty reopen, socket
	// reconnection, the forked children's restore/refill/resume, and
	// (lazy only) the post-resume prefetch drain.
	if tr := t.Trace(); tr.Enabled() {
		end, host, trk := t.Now(), t.Host(), fmt.Sprintf("%s[%d]", t.P.ProgName, t.P.Pid)
		connsEnd := s2.Add(st.Conns)
		tr.Span(host, trk, "restart.total", "restart", start, end,
			obs.A("procs", int64(len(imgs))), obs.A("fetched_bytes", st.FetchedBytes),
			obs.A("overlap_bytes", st.OverlapBytes), obs.A("workers", int64(st.Workers)),
			obs.A("demand_bytes", st.DemandBytes), obs.A("prefetch_bytes", st.PrefetchBytes))
		tr.Span(host, trk, "restart.images", "restart", start, filesStart)
		tr.Span(host, trk, "restart.files", "restart", filesStart, s2)
		tr.Span(host, trk, "restart.conns", "restart", s2, connsEnd)
		tr.Span(host, trk, "restart.procs", "restart", connsEnd, resumeEnd)
		if anyLazy {
			tr.Span(host, trk, "restart.prefetch", "restart", resumeEnd, end,
				obs.A("demand_faults", int64(st.DemandFaults)))
		}
		tr.Add(host, "restart.fetched_bytes", end, st.FetchedBytes)
	}

	s.reportRestart(gen, st, nil)

	// Remain as the parent of the restored processes (the paper's
	// restart process stays in the tree after forking).
	for {
		if _, _, err := t.WaitAny(); err != nil {
			return
		}
	}
}

// restoreProcess runs inside a forked child of the restart program:
// descriptor rearrangement, memory restore, manager reconstruction,
// refill, and thread resume.  It reports the memory and refill stage
// durations through report, then runs the program's Restore inline in
// the calling (main) task.
func (s *System) restoreProcess(
	c *kernel.Task,
	path string,
	img *mtcp.Image,
	fdRecs []FDRec,
	conns []ConnRec,
	vpid kernel.Pid,
	pidTable map[kernel.Pid]kernel.Pid,
	objects map[int64]*kernel.OpenFile,
	ptyNames map[string]string,
	vpidToProc map[kernel.Pid]*kernel.Process,
	nGlobal int,
	gen string,
	lazy *lazyCtrl,
	report func(mem, refill time.Duration),
) {
	p := c.P

	// ---- Step 4: rearrange FDs (dup2/close) ----------------------------
	for _, fd := range p.SortedFDs() {
		c.Close(fd)
	}
	for _, rec := range fdRecs {
		var of *kernel.OpenFile
		if rec.Kind == FDConsole {
			of = kernel.NewConsole(p)
		} else {
			of = objects[rec.OFID]
		}
		if of == nil {
			continue
		}
		of.Owner = kernel.Pid(rec.Owner)
		p.InstallFD(rec.FD, of)
	}

	// ---- Step 5: restore memory and threads ----------------------------
	m5 := c.Now()
	mtcp.ChargeMemoryRestore(c, img, path, s.Cfg.CkptWorkers)
	mtcp.InstallMemory(p, img, c, func(t *kernel.Task, rec mtcp.AreaRecord) *kernel.ShmSegment {
		seg := s.resolveShm(t, rec.ShmBacking, rec.Bytes, rec.Class())
		if len(seg.Payload) == 0 && len(rec.Payload) > 0 {
			// First process to touch the segment writes the
			// checkpointed contents back (§4.5: both writers carry
			// the same data).
			seg.Payload = append([]byte(nil), rec.Payload...)
		}
		return seg
	})
	if lazy != nil {
		// Post-copy: InstallMemory copied whatever the background pull
		// had landed in the image buffers; arm presence maps and the
		// first-touch fault hook for the chunks still in flight.
		lazy.wire(p)
	}
	p.Env = make(map[string]string, len(img.Env))
	for k, v := range img.Env {
		p.Env[k] = v
	}

	// Rebuild the DMTCP manager with restored identity and tables.
	mgr := newManager(s, p)
	mgr.restored = true
	mgr.virtPid = vpid
	for virt := range pidTable {
		if proc, ok := vpidToProc[virt]; ok {
			mgr.pidTable[virt] = proc.Pid
		}
	}
	mgr.pidTable[vpid] = p.Pid
	for _, rec := range fdRecs {
		if rec.Kind != FDConn {
			continue
		}
		if of := objects[rec.OFID]; of != nil {
			mgr.socks[of] = &SockMeta{GUID: GUID(rec.GUID), Acceptor: rec.Accept}
		}
	}
	p.SetHooks(mgr)
	mgr.started = true
	mgr.sys.registerProc(mgr)
	mgr.connectCoordinator(c)
	memDur := c.Now().Sub(m5)

	// Global barrier: every restored process has its memory back
	// (the paper's restored processes resume at Barrier 5).
	s.groupBarrier(c, mgr, "r-mem-"+gen, nGlobal, gen, path, coordstate.RestartRankInstalled)

	// ---- Step 6: refill kernel buffers ---------------------------------
	r6 := c.Now()
	fds := p.FDs()
	findEndpoint := func(guid string) *kernel.TCPEndpoint {
		for _, of := range fds {
			if meta := mgr.socks[of]; meta != nil && string(meta.GUID) == guid && of.TCP != nil {
				return of.TCP
			}
		}
		if len(guid) > 4 && guid[:4] == "pty:" {
			// pty:<oldname>:<m|s>
			rest := guid[4:]
			end := rest[len(rest)-1]
			old := rest[:len(rest)-2]
			if newName, ok := ptyNames[old]; ok {
				for _, of := range fds {
					if of.Pty != nil && of.Pty.Pty.Name == newName {
						if (end == 'm') == of.Pty.Master {
							return of.Pty.Endpoint()
						}
					}
				}
			}
		}
		return nil
	}
	for _, cr := range conns {
		if len(cr.Drained) == 0 {
			continue
		}
		if ep := findEndpoint(cr.GUID); ep != nil {
			c.Compute(ep.RefillCost(int64(len(cr.Drained))).Duration())
			ep.Unread(cr.Drained)
		}
	}
	refillDur := c.Now().Sub(r6)
	childTrack := fmt.Sprintf("%s[%d]", img.ProgName, vpid)
	c.Trace().Span(c.Host(), childTrack, "restore.mem", "restart", m5, m5.Add(memDur))
	c.Trace().Span(c.Host(), childTrack, "restore.refill", "restart", r6, r6.Add(refillDur))
	report(memDur, refillDur)
	s.groupBarrier(c, mgr, "r-refill-"+gen, nGlobal, gen, path, coordstate.RestartRankResumed)

	// ---- Step 7: resume user threads -----------------------------------
	// Manager thread resumes its wait-for-checkpoint loop.
	mgr.mgrTask = p.SpawnTask("ckpt-mgr", true, mgr.loop)
	mgr.startHeartbeat()
	// Complete interrupted sends so streams stay byte-exact.
	for _, tr := range img.Threads {
		if tr.ContFD >= 0 && len(tr.ContData) > 0 {
			c.ResumeSend(int(tr.ContFD), tr.ContData)
		}
	}
	for _, cb := range mgr.aware.postRestart {
		cb(c)
	}
	prog, ok := s.C.Program(img.ProgName)
	if !ok {
		c.Printf("dmtcp_restart: unknown program %q\n", img.ProgName)
		return
	}
	res, ok := prog.(kernel.Resumable)
	if !ok {
		c.Printf("dmtcp_restart: program %q is not resumable\n", img.ProgName)
		return
	}
	res.Restore(c, p.LoadState())
}

// dialCoord connects a protected socket to the (possibly just
// promoted) coordinator, retrying with the unified jittered-backoff
// policy across a takeover interregnum; it gives up only when the
// detection + election + retry window closes with no leader answering.
// The jitter matters here most of all: every restarting rank dials at
// once, and identical backoff schedules would stampede the coordinator
// in lockstep after each refusal.
func (s *System) dialCoord(t *kernel.Task) (int, error) {
	pol := retry.RestartDial(s.C.Params)
	bo := pol.Backoff(s.C.Eng.Rand())
	deadline := t.Now().Add(pol.Deadline)
	for {
		fd := t.Socket()
		if of, err := t.P.FD(fd); err == nil {
			of.Protected = true
		}
		err := t.Connect(fd, s.coordAddr())
		if err == nil {
			return fd, nil
		}
		t.Close(fd)
		delay := bo.Next()
		if t.Now().Add(delay) > deadline {
			return -1, err
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
