package dmtcp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/store"
)

// Node-failure recovery.  The coordinator owns the placement map
// (which nodes hold which process's checkpoint generations) and the
// liveness view; recovery rolls the whole computation back to the
// newest checkpoint round that is fully replicated off the dead
// node(s), restarts the lost processes on a surviving replica holder,
// and restarts the surviving processes in place — a globally
// consistent cut, exactly as a coordinated-checkpointing system must.
//
// With coordinator standbys configured, the coordinator node itself
// may be among the dead: recovery first waits for the standby
// takeover (the promoted standby has replayed the journal, so it
// holds the same placement map and round history), then proceeds
// against the new coordinator.

// Recovery reports one completed recovery drive.
type Recovery struct {
	// DeadHosts are the failed nodes recovery worked around.
	DeadHosts []string
	// Targets maps each dead host to the surviving replica holder its
	// processes restarted on.
	Targets map[string]string
	// Round is the checkpoint round (consistent cut) restarted from.
	Round *CkptRound
	// Procs is the number of processes restarted; Killed the
	// surviving processes rolled back to the cut.
	Procs  int
	Killed int
	// Stats are the aggregated restart stage times, including the
	// remote-fetch stage.
	Stats *RestartStages
	// Took is the full recovery latency: failure-detection timeout,
	// takeover (when the coordinator died too), rollback, fetch, and
	// restart.
	Took time.Duration
}

// Recover detects dead nodes and drives failure recovery, blocking
// until the computation is running again.  It requires the replicated
// storage service (Config.Store + Config.ReplicaFactor).
func (s *System) Recover(t *kernel.Task) (*Recovery, error) {
	if s.Replica == nil || !s.Cfg.Store || s.Cfg.ReplicaFactor <= 0 {
		return nil, fmt.Errorf("dmtcp: recovery requires Store and ReplicaFactor")
	}
	start := t.Now()
	// The failure detector only trusts a silent peer to be dead after
	// missed heartbeats, not on the first connection reset.  With a
	// live coordinator, the wait is the adaptive (phi-accrual) deadline
	// the health registry derives for the down nodes — faster than the
	// static FailureDetectDelay when their heartbeats were regular,
	// never slower; with the coordinator itself among the dead, the
	// static delay stands (its registry is on the standby about to take
	// over).
	t.Idle(s.detectDelay())
	// The coordinator may be among the dead: wait for the standby
	// takeover before reading any coordinator state.
	if s.Coord.Node.Down {
		p := s.C.Params
		deadline := t.Now().Add(p.FailureDetectDelay + p.ElectionTimeout + p.CoordRetryWindow)
		for s.Coord.Node.Down && t.Now() < deadline {
			s.doneW.WaitTimeout(t.T, 20*time.Millisecond)
		}
		if s.Coord.Node.Down {
			return nil, fmt.Errorf("dmtcp: coordinator node %s lost with no live standby", s.Coord.Node.Hostname)
		}
	}
	co := s.Coord
	// Let a round the node died in the middle of settle first
	// (disconnect re-checks its barriers, so it will finish; a round
	// inherited through the coordinator's own death is resumed by the
	// promoted standby, and this wait holds until it completes too).
	for co.st().Round != nil {
		s.doneW.Wait(t.T)
	}
	dead := co.deadHosts()
	if len(dead) == 0 {
		return nil, fmt.Errorf("dmtcp: no failed node to recover from")
	}
	round := co.recoveryRound(dead)
	if round == nil {
		return nil, fmt.Errorf("dmtcp: no fully-replicated round covers failed hosts %v", dead)
	}
	place := Placement{}
	targets := make(map[string]string)
	for _, h := range dead {
		if !roundHasHost(round, h) {
			continue
		}
		target := co.pickTarget(round, h)
		if target == nil {
			return nil, fmt.Errorf("dmtcp: no surviving replica holder for %s", h)
		}
		place[h] = target.ID
		targets[h] = target.Hostname
	}
	// Roll the survivors back to the same cut before restarting
	// everyone from it.
	killed := s.KillManaged()
	stats, err := s.RestartAll(t, round, place)
	if err != nil {
		return nil, err
	}
	return &Recovery{
		DeadHosts: dead,
		Targets:   targets,
		Round:     round,
		Procs:     len(round.Images),
		Killed:    killed,
		Stats:     stats,
		Took:      t.Now().Sub(start),
	}, nil
}

// detectDelay is the node-death detection wait Recover pays before
// trusting liveness: the maximum adaptive heartbeat deadline over the
// currently down nodes, read from the leader's live health registry,
// clamped to [PhiFloor, FailureDetectDelay].  Nodes the registry never
// heard from — and a down coordinator — fall back to the static delay.
func (s *System) detectDelay() time.Duration {
	p := s.C.Params
	if s.Coord == nil || s.Coord.Node.Down {
		return p.FailureDetectDelay
	}
	var wait time.Duration
	for _, n := range s.C.Nodes() {
		if !n.Down {
			continue
		}
		if d := s.Coord.health[n.Hostname].Deadline(p.PhiTimeoutFactor, p.PhiFloor, p.FailureDetectDelay); d > wait {
			wait = d
		}
	}
	if wait == 0 {
		wait = p.FailureDetectDelay
	}
	return wait
}

// deadHosts lists the down nodes that hold placement entries, in
// hostname order.
func (co *Coordinator) deadHosts() []string {
	seen := map[string]bool{}
	var out []string
	for _, pi := range co.st().Placement {
		if pi.Host == "" || seen[pi.Host] {
			continue
		}
		if n := co.Sys.C.LookupHost(pi.Host); n != nil && n.Down {
			seen[pi.Host] = true
			out = append(out, pi.Host)
		}
	}
	sort.Strings(out)
	return out
}

// recoveryRound returns the newest store-mode round every one of whose
// images is restorable given the dead hosts: images written on a dead
// host must be fully replicated with a surviving holder, images on
// live hosts must be present locally or fetchable.  Rounds that do not
// cover every dead host are passed over in favor of an older round
// that does — a node dying mid-round leaves a newer round holding only
// the survivors' images, and recovering from it would silently drop
// the dead node's processes.  Only when no round covers a dead host
// (its processes never checkpointed, or exited before the failure)
// does the newest recoverable round win.
func (co *Coordinator) recoveryRound(dead []string) *CkptRound {
	isDead := make(map[string]bool, len(dead))
	for _, h := range dead {
		isDead[h] = true
	}
	rounds := co.Rounds()
	var fallback *CkptRound
	for i := len(rounds) - 1; i >= 0; i-- {
		r := rounds[i]
		if !r.Store || len(r.Images) == 0 {
			continue
		}
		if !co.roundRecoverable(r, isDead) {
			continue
		}
		covers := true
		for _, h := range dead {
			if !roundHasHost(r, h) {
				covers = false
				break
			}
		}
		if covers {
			return r
		}
		if fallback == nil {
			fallback = r
		}
	}
	return fallback
}

func (co *Coordinator) roundRecoverable(r *CkptRound, dead map[string]bool) bool {
	for _, img := range r.Images {
		name, gen, ok := store.NameForManifest(img.Path)
		if !ok {
			return false
		}
		pi := co.st().Placement[name]
		if pi == nil {
			return false
		}
		if dead[img.Host] {
			if co.aliveHolder(pi, gen, "") == "" {
				return false
			}
			continue
		}
		n := co.Sys.C.LookupHost(img.Host)
		if n == nil || n.Down {
			return false
		}
		if !n.FS.Exists(img.Path) && co.aliveHolder(pi, gen, img.Host) == "" {
			return false
		}
	}
	return true
}

// candidateHolders returns the hosts that may hold generation gen of
// pi, most-likely first: recorded holders whose known generation
// covers gen, then the remaining recorded holders and the writer's
// ring-placement targets.  The fallback tier matters after a
// coordinator takeover — EvReplicated and EvWatermark records raised
// in the instants before the leader died may never have shipped, so
// the replayed placement map can run behind what the holders' stores
// actually contain; the likely tier keeps the common (no-takeover)
// lookup as cheap as the placement map made it.
func (co *Coordinator) candidateHolders(pi *coordstate.PlaceInfo, gen int64) []string {
	seen := map[string]bool{}
	var likely, fallback []string
	for _, h := range pi.HolderHosts() {
		seen[h] = true
		if pi.Holders[h] >= gen {
			likely = append(likely, h)
		} else {
			fallback = append(fallback, h)
		}
	}
	if co.Sys.Replica != nil && pi.Host != "" {
		if n := co.Sys.C.LookupHost(pi.Host); n != nil {
			for _, peer := range co.Sys.Replica.Targets(n) {
				if h := peer.Hostname; !seen[h] {
					seen[h] = true
					fallback = append(fallback, h)
				}
			}
		}
	}
	sort.Strings(likely)
	sort.Strings(fallback)
	return append(likely, fallback...)
}

// holderComplete reports whether host is alive and holds a complete
// copy of (name, gen): the manifest plus every chunk it references.
// The placement map alone cannot settle this — Holders is monotonic
// ("highest generation ever pushed") so retention may have pruned the
// manifest since, watermarks can lag a takeover, and a push the
// source died under leaves a manifest whose chunks never all arrived
// (a committed stream ships the manifest first) — so the coordinator
// verifies against the holder's store before trusting it.
func (co *Coordinator) holderComplete(host, name string, gen int64) bool {
	n := co.Sys.C.LookupHost(host)
	if n == nil || n.Down {
		return false
	}
	st := store.Open(n, store.Config{Root: co.Sys.StoreRoot()})
	path := st.ManifestPath(name, gen)
	if !n.FS.Exists(path) {
		return false
	}
	m, err := st.LoadManifest(path)
	if err != nil {
		return false
	}
	return len(st.MissingChunks(m.Refs())) == 0
}

// aliveHolder returns a live holder (≠ exclude) with a complete copy
// of generation gen of pi, or "".
func (co *Coordinator) aliveHolder(pi *coordstate.PlaceInfo, gen int64, exclude string) string {
	for _, h := range co.candidateHolders(pi, gen) {
		if h == exclude {
			continue
		}
		if co.holderComplete(h, pi.Name, gen) {
			return h
		}
	}
	return ""
}

// pickTarget chooses the surviving node the dead host's processes
// restart on: a live holder of every one of that host's images in the
// round (ring placement gives them a common holder set).
func (co *Coordinator) pickTarget(r *CkptRound, host string) *kernel.Node {
	counts := map[string]int{}
	total := 0
	for _, img := range r.Images {
		if img.Host != host {
			continue
		}
		total++
		name, gen, ok := store.NameForManifest(img.Path)
		if !ok {
			return nil
		}
		pi := co.st().Placement[name]
		if pi == nil {
			return nil
		}
		for _, h := range co.candidateHolders(pi, gen) {
			if h == host {
				continue
			}
			if co.holderComplete(h, pi.Name, gen) {
				counts[h]++
			}
		}
	}
	if total == 0 {
		return nil
	}
	var hosts []string
	for h, c := range counts {
		if c == total {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil
	}
	sort.Strings(hosts)
	return co.Sys.C.LookupHost(hosts[0])
}

func roundHasHost(r *CkptRound, host string) bool {
	for _, img := range r.Images {
		if img.Host == host {
			return true
		}
	}
	return false
}
