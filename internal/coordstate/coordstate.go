// Package coordstate is the DMTCP coordinator's logical state,
// extracted into an explicit event-sourced state machine.
//
// The paper keeps its coordinator stateless precisely so that losing
// it is cheap (§4.1): it counts barrier arrivals and answers discovery
// queries.  This reproduction's coordinator also owns the client
// table, the placement map, replication watermarks and restart
// groups, so node 0 dying would lose the one component that knows
// how to recover everyone else.  This package makes that state
// survivable: every mutation is an Event, Apply(event) advances the
// State deterministically, and the resulting serialized journal is
// replicated to standby coordinators, which replay it and take over on
// coordinator-node death.
//
// The state keeps only what the control plane acts on: barrier
// arrivals and releases, image placement (host, path, program, vpid,
// generation), each host's write time, which sizes the next round's
// writer pools, and one failure-detector summary per host, journaled
// once per checkpoint request.  Checkpoint and restart reports (stage
// times, byte counts, GC passes) travel in process to the dmtcp
// package, and heartbeats feed only the leader's live registry;
// neither enters the journal, so it grows with decisions, not time.
//
// The split follows the classic replicated-state-machine discipline:
//
//   - State holds only logical facts (no file descriptors, no
//     connections, no tasks).  Volatile connection state — which fd a
//     client id currently speaks on, which command sockets await a
//     round — stays in the coordinator program and is rebuilt by the
//     manager resync handshake after a takeover.
//   - Apply is a pure function of (State, Event).  It returns Effects:
//     instructions the *active* coordinator turns into protocol frames
//     (release a barrier, broadcast a checkpoint request).  Standbys
//     replay the same events and discard the effects.
//   - The journal is the serialized event sequence.  A leader and any
//     standby that has replayed the same prefix hold byte-identical
//     state, which is what makes takeover safe.
//
// Because Apply is pure, coordinator logic is unit-testable for the
// first time: tests drive event sequences directly, no sockets.
package coordstate

import (
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Barriers are the checkpoint barrier names in protocol order (§4.3:
// six global barriers; the first is the implicit
// wait-for-checkpoint-request).
var Barriers = []string{"suspended", "elected", "drained", "checkpointed", "refilled"}

// BarrierCheckpointed is the barrier whose arrival carries the image's
// placement and the manager's write time.
const BarrierCheckpointed = "checkpointed"

// ImageInfo places one per-process checkpoint file (a monolithic
// image, or a store manifest when the session runs incrementally).
type ImageInfo struct {
	Host       string
	Path       string
	Prog       string
	VirtPid    kernel.Pid
	Generation int64 // committed store generation (0 for monolithic images)
}

// CkptRound is the replicated record of one completed cluster-wide
// checkpoint: who took part, where each image landed, and how long
// each host took to write.
type CkptRound struct {
	Index int
	// Tag is the round's epoch-qualified identity (see RoundTag).
	Tag      int64
	NumProcs int
	// Start and End bound the round in virtual time (Start from the
	// opening broadcast, End from the closing barrier event), so the
	// observability layer can place the round on a trace timeline.
	Start    sim.Time
	End      sim.Time
	Images   []ImageInfo
	Compress bool
	Forked   bool
	Store    bool

	// WriteByHost records each participating host's write-stage time —
	// the raw material of the straggler analysis.  WorkerHints is the
	// coordinator's straggler response: per-host write worker counts
	// for the *next* round (a straggling node is pre-sized to its full
	// core count, from the health registry, instead of idle cores).
	WriteByHost map[string]time.Duration
	WorkerHints map[string]int
}

// StragglerThreshold is the write-time-over-median ratio beyond which
// a node is treated as a straggler (matches obs/analyze).
const StragglerThreshold = 1.25

// StragglerScores returns each host's write time divided by the
// median write time (1.0 = typical; >= StragglerThreshold marks a
// straggler).  Empty when fewer than two hosts reported.
func StragglerScores(writeByHost map[string]time.Duration) map[string]float64 {
	if len(writeByHost) < 2 {
		return nil
	}
	hosts := make([]string, 0, len(writeByHost))
	ws := make([]time.Duration, 0, len(writeByHost))
	for h := range writeByHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		ws = append(ws, writeByHost[h])
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	med := ws[len(ws)/2]
	if len(ws)%2 == 0 {
		med = (ws[len(ws)/2-1] + ws[len(ws)/2]) / 2
	}
	if med <= 0 {
		return nil
	}
	out := make(map[string]float64, len(hosts))
	for _, h := range hosts {
		out[h] = float64(writeByHost[h]) / float64(med)
	}
	return out
}

// Client is one registered checkpoint manager.  The id is assigned by
// the state machine (so leader and standby agree on it); Desc is the
// manager's stable identity ("host/prog[vpid]"), which the resync
// handshake uses to re-bind a reconnecting manager to its entry after
// a takeover.
type Client struct {
	ID   int64
	Desc string
}

// RoundCfg is the per-round checkpoint configuration broadcast with
// the checkpoint request; it rides the journal so replay does not
// depend on out-of-band session config.
type RoundCfg struct {
	Compress bool
	Fsync    bool
	Forked   bool
	Store    bool
}

// RoundState is a checkpoint round in flight.
type RoundState struct {
	Index int
	// Tag identifies the round across leadership changes
	// (epoch-qualified, see RoundTag): a takeover bumps the epoch but
	// *preserves* the in-flight round, tag and all, so arrivals re-sent
	// by managers as they resync land in the same round they were
	// running — while arrivals for a round that truly no longer exists
	// (every coordinator that knew it died) can never be mistaken for
	// a round a later epoch's leader started.
	Tag          int64
	Start        sim.Time
	Cfg          RoundCfg
	Participants map[int64]bool
	Arrived      map[string]map[int64]bool
	Released     map[string]bool
	Images       []ImageInfo
	// WriteByHost collects per-host write-stage times as checkpointed
	// arrivals land (max per host, for multi-process hosts).
	WriteByHost map[string]time.Duration
}

// RoundPhase names the furthest phase a round in flight has reached:
// the last released barrier, or "started" when none has fired yet.
func RoundPhase(r *RoundState) string {
	phase := "started"
	for _, name := range Barriers {
		if r.Released[name] {
			phase = name
		}
	}
	return phase
}

// BarriersPassed counts how many barriers (in protocol order) a
// participant has been released through — the per-stage progress a
// resyncing manager reports so a promoted leader can heal arrivals
// lost to a degraded commit.
func BarriersPassed(r *RoundState, cid int64) int {
	n := 0
	for _, name := range Barriers {
		if !r.Released[name] || !r.Arrived[name][cid] {
			break
		}
		n++
	}
	return n
}

// ParticipantIDs returns the round's participants in id order.
func (r *RoundState) ParticipantIDs() []int64 {
	out := make([]int64, 0, len(r.Participants))
	for id := range r.Participants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Restart rank stages, in order.  A rank's stage only ever advances,
// so a promoted leader can seed group barriers from the journaled
// stages: a rank past "installed" has necessarily joined the memory
// barrier, a rank past "resumed" the refill barrier.
const (
	RestartRankSpawned   = "spawned"   // restart program forked
	RestartRankInstalled = "installed" // memory restored, pre-resume
	RestartRankResumed   = "resumed"   // processes running again
)

// restartRankOrder maps a rank stage to its position in the
// progression (unknown stages sort first).
func restartRankOrder(stage string) int {
	switch stage {
	case RestartRankSpawned:
		return 1
	case RestartRankInstalled:
		return 2
	case RestartRankResumed:
		return 3
	}
	return 0
}

// RestartGroup is a cluster restart in flight, journaled so a
// coordinator death mid-restart leaves the new leader a resumable
// group instead of forcing recovery to start over: which ranks exist,
// and how far each has progressed.
type RestartGroup struct {
	Gen    string            // restart generation tag (image set identity)
	Expect int               // ranks in the group
	Ranks  map[string]string // host → furthest stage reached
}

// RankHosts returns the group's rank hosts in deterministic order.
func (g *RestartGroup) RankHosts() []string {
	out := make([]string, 0, len(g.Ranks))
	for h := range g.Ranks {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// RanksAtLeast counts ranks whose journaled stage is at or past the
// given stage — the seed count for a re-armed group barrier.
func (g *RestartGroup) RanksAtLeast(stage string) int {
	return len(g.HostsAtLeast(stage))
}

// HostsAtLeast returns the hosts whose journaled stage is at or past
// the given stage, in deterministic order — the seed set for a
// re-armed group barrier after takeover.
func (g *RestartGroup) HostsAtLeast(stage string) []string {
	want := restartRankOrder(stage)
	var out []string
	for _, h := range g.RankHosts() {
		if restartRankOrder(g.Ranks[h]) >= want {
			out = append(out, h)
		}
	}
	return out
}

// PlaceInfo is one image's entry in the coordinator placement map.
type PlaceInfo struct {
	Name    string
	Host    string // node that wrote the latest generation
	Prog    string
	VirtPid kernel.Pid
	// LatestGen is the newest committed generation; ReplicatedGen the
	// newest fully-replicated one (the recovery watermark).
	LatestGen     int64
	ReplicatedGen int64
	// Holders maps hostname → highest generation that node holds.
	Holders map[string]int64
}

// HolderHosts returns the holder hostnames in deterministic order.
func (pi *PlaceInfo) HolderHosts() []string {
	out := make([]string, 0, len(pi.Holders))
	for h := range pi.Holders {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// State is the coordinator's complete logical state: everything a
// standby needs to take over mid-computation.
type State struct {
	// Epoch is the leadership epoch, bumped by every takeover; Leader
	// is the hostname of the coordinator that owns the epoch.
	Epoch  int64
	Leader string

	// NextCID is the last client id handed out.
	NextCID int64
	// Clients is the registered checkpoint manager table.
	Clients map[int64]Client

	// Rounds holds completed checkpoint rounds, oldest first.
	Rounds []*CkptRound
	// Round is the checkpoint round in flight, nil between rounds.
	Round *RoundState
	// PendingCkpt counts queued checkpoint requests.
	PendingCkpt int
	// LastCfg is the most recent round configuration (queued rounds
	// start with it).
	LastCfg RoundCfg

	// Advertised is the restart discovery service: guid → address.
	// It is scoped to one restart: arming a restart group resets it,
	// because restored sockets keep their GUIDs and an earlier
	// restart's (long dead) listener must never answer a later query.
	Advertised map[string]kernel.Addr

	// Placement maps image name → which nodes hold which generations
	// (writer plus replica holders, with the replication watermark).
	Placement map[string]*PlaceInfo

	// Restart is the journaled restart group in flight, nil outside a
	// cluster restart.  A promoted leader uses it to *resume* a
	// half-done restart — re-arming group barriers from the recorded
	// per-rank stages — instead of re-running recovery from scratch.
	Restart *RestartGroup

	// Health maps hostname → the host's last journaled detector
	// summary (EvHealth, written just before a checkpoint request when
	// the host's statistics moved).  A standby's election wait and
	// watchdog read it, and a promoted leader seeds its live registry
	// from it.
	Health map[string]*HostHealth
}

// RoundTag builds the epoch-qualified round identity.
func RoundTag(epoch int64, index int) int64 { return epoch<<32 | int64(index) }

// NewState returns an empty coordinator state.
func NewState() *State {
	return &State{
		Clients:    make(map[int64]Client),
		Advertised: make(map[string]kernel.Addr),
		Placement:  make(map[string]*PlaceInfo),
		Health:     make(map[string]*HostHealth),
	}
}

// ClientIDs returns the registered client ids in order.
func (st *State) ClientIDs() []int64 {
	out := make([]int64, 0, len(st.Clients))
	for id := range st.Clients {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClientByDesc resolves a manager identity to its client id (0 if
// unknown) — the resync lookup.
func (st *State) ClientByDesc(desc string) int64 {
	for _, id := range st.ClientIDs() {
		if st.Clients[id].Desc == desc {
			return id
		}
	}
	return 0
}

// LastRound returns the most recent completed checkpoint round.
func (st *State) LastRound() *CkptRound {
	if len(st.Rounds) == 0 {
		return nil
	}
	return st.Rounds[len(st.Rounds)-1]
}
