package coordstate

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/store"
)

// Codec errors.  Corrupt or torn journal input surfaces as one of
// these (possibly wrapping bin.ErrTruncated) — never as a panic.
var (
	// ErrUnknownEvent reports an event byte with no decoder (a
	// flipped kind byte, or a journal from a newer version).
	ErrUnknownEvent = errors.New("coordstate: unknown event")
	// ErrBadSeq reports an out-of-sequence journal entry.
	ErrBadSeq = errors.New("coordstate: bad entry sequence")
)

// EventKind discriminates journal events.
type EventKind uint8

// Journal event kinds.
const (
	EvRegister     EventKind = iota + 1 // manager joined (Desc)
	EvDisconnect                        // client connection died (CID)
	EvCkptRequest                       // checkpoint requested (Cfg)
	EvBarrier                           // manager arrived at a barrier
	EvAdvertise                         // restart advertised guid → addr
	EvReplicated                        // one (generation, holder) copy completed
	EvWatermark                         // a generation's full fan-out completed
	EvTakeover                          // a standby claimed leadership
	EvHealth                            // one host's detector summary, journaled before a checkpoint request
	EvResync                            // manager reattached mid-round with stage progress
	EvRestartGroup                      // a restart group was armed (gen, expected ranks)
	EvRestartRank                       // one restart rank advanced a stage
	EvRestartDone                       // a restart group ended (every host reported, or one failed)
)

// Event is one journal record.  Only the fields relevant to Kind are
// meaningful; Now carries the leader's clock so replay is
// time-independent.
type Event struct {
	Kind EventKind
	Now  sim.Time

	CID      int64         // Disconnect, Barrier
	Desc     string        // Register
	Barrier  string        // Barrier: name
	RoundTag int64         // Barrier: the round the arrival belongs to
	Stage    time.Duration // Barrier: write time (checkpointed only)
	Image    *ImageInfo    // Barrier: image placement (checkpointed only)

	Cfg RoundCfg // CkptRequest

	GUID string      // Advertise
	Addr kernel.Addr // Advertise

	Name   string // Replicated, Watermark; RestartGroup, RestartRank, RestartDone: generation
	Gen    int64  // Replicated, Watermark
	Holder string // Replicated

	Expect int      // RestartGroup; Resync: barriers passed
	Msg    string   // RestartRank: stage reached
	Hosts  []string // RestartGroup: ranks by host
	Host   string   // RestartRank: rank; Health: the host summarized

	Leader string // Takeover
	Epoch  int64  // Takeover

	Health HostHealth // Health: the summary (its clock is not journaled)
}

// EffectKind discriminates side-effect instructions returned by Apply.
type EffectKind uint8

// Effects the active coordinator turns into protocol frames; standbys
// discard them.
const (
	FxStartRound    EffectKind = iota + 1 // broadcast the checkpoint request to CIDs
	FxRelease                             // release barrier Name to CIDs
	FxReleaseOne                          // release barrier Name to the lone CID (stale/aborted round)
	FxRoundDone                           // Round completed: satisfy command waiters
	FxGuidKnown                           // guid Name resolved: answer pending queries
	FxResumeRound                         // takeover inherited a live round (Name=phase, CID=tag)
	FxResumeRestart                       // takeover inherited a half-done restart group (Name=gen)
)

// Effect is one side-effect instruction.
type Effect struct {
	Kind  EffectKind
	Name  string
	CID   int64
	CIDs  []int64
	Round *CkptRound
}

// apply advances st by ev and returns the effect list.  It is the
// single place coordinator logic lives; it must stay deterministic —
// no clocks, no randomness, no I/O — so leader and standby replays
// agree byte for byte.
func apply(st *State, ev Event) []Effect {
	switch ev.Kind {
	case EvRegister:
		st.NextCID++
		st.Clients[st.NextCID] = Client{ID: st.NextCID, Desc: ev.Desc}
		return nil

	case EvDisconnect:
		delete(st.Clients, ev.CID)
		r := st.Round
		if r == nil || !r.Participants[ev.CID] {
			return nil
		}
		delete(r.Participants, ev.CID)
		for _, m := range r.Arrived {
			delete(m, ev.CID)
		}
		if len(r.Participants) == 0 {
			// Every participant died mid-round: close the round out so
			// command waiters are not wedged forever.
			return finishRound(st, ev.Now)
		}
		// Re-evaluate the barriers in protocol order; releasing one
		// may be what the survivors are blocked on.  finishRound (via
		// the last barrier) clears st.Round, so stop there.
		var fx []Effect
		for _, name := range Barriers {
			if st.Round != r {
				break
			}
			if !r.Released[name] && len(r.Arrived[name]) >= len(r.Participants) {
				fx = append(fx, releaseBarrier(st, r, name, ev.Now)...)
			}
		}
		return fx

	case EvCkptRequest:
		st.LastCfg = ev.Cfg
		if st.Round != nil {
			st.PendingCkpt++
			return nil
		}
		return startRound(st, ev.Now)

	case EvBarrier:
		r := st.Round
		if r == nil || !r.Participants[ev.CID] || ev.RoundTag != r.Tag {
			// Stale arrival: a manager finishing a round that was
			// aborted at takeover (its tag carries the old epoch), or
			// whose client was dropped.  Release it immediately so
			// nobody wedges on a round the coordinator no longer
			// tracks — and so the straggler's arrival can never be
			// counted into a round it is not actually running.
			return []Effect{{Kind: FxReleaseOne, Name: ev.Barrier, CID: ev.CID}}
		}
		if r.Arrived[ev.Barrier] != nil && r.Arrived[ev.Barrier][ev.CID] {
			// Duplicate arrival (re-sent across a reconnect): never
			// re-place the image; re-release if the barrier already
			// fired, otherwise the normal release will cover it.
			if r.Released[ev.Barrier] {
				return []Effect{{Kind: FxReleaseOne, Name: ev.Barrier, CID: ev.CID}}
			}
			return nil
		}
		if ev.Barrier == BarrierCheckpointed && ev.Image != nil {
			img := *ev.Image
			if r.WriteByHost == nil {
				r.WriteByHost = make(map[string]time.Duration)
			}
			if ev.Stage > r.WriteByHost[img.Host] {
				r.WriteByHost[img.Host] = ev.Stage
			}
			r.Images = append(r.Images, img)
			if r.Cfg.Store {
				placeImage(st, img)
			}
		}
		if r.Arrived[ev.Barrier] == nil {
			r.Arrived[ev.Barrier] = make(map[int64]bool)
		}
		r.Arrived[ev.Barrier][ev.CID] = true
		if len(r.Arrived[ev.Barrier]) < len(r.Participants) {
			return nil
		}
		return releaseBarrier(st, r, ev.Barrier, ev.Now)

	case EvAdvertise:
		st.Advertised[ev.GUID] = ev.Addr
		return []Effect{{Kind: FxGuidKnown, Name: ev.GUID}}

	case EvReplicated:
		pi := ensurePlace(st, ev.Name)
		if ev.Gen > pi.Holders[ev.Holder] {
			pi.Holders[ev.Holder] = ev.Gen
		}
		return nil

	case EvWatermark:
		if pi := st.Placement[ev.Name]; pi != nil && ev.Gen > pi.ReplicatedGen {
			pi.ReplicatedGen = ev.Gen
		}
		return nil

	case EvTakeover:
		st.Epoch = ev.Epoch
		st.Leader = ev.Leader
		// A round in flight when the leader died survives the takeover:
		// barrier releases are synchronous journal commits, so every
		// arrival the old leader acted on is in the journal the standby
		// replayed, and the round's exact phase (Arrived/Released per
		// barrier) is reconstructed here for free.  The promoted leader
		// resumes it — managers re-attach via resync, re-sent arrivals
		// land in the same round (the tag is preserved), and the
		// EvResync path below heals any arrivals lost to a degraded
		// (timed-out) commit.  FxResumeRound/FxResumeRestart tell the
		// new leader's effect runner what it inherited mid-flight.
		var fx []Effect
		if r := st.Round; r != nil {
			fx = append(fx, Effect{Kind: FxResumeRound, Name: RoundPhase(r), CID: r.Tag})
		}
		if st.Restart != nil {
			fx = append(fx, Effect{Kind: FxResumeRestart, Name: st.Restart.Gen})
		}
		return fx

	case EvResync:
		r := st.Round
		if r == nil || !r.Participants[ev.CID] || ev.RoundTag != r.Tag {
			return nil
		}
		// The manager reports how many barriers it has passed.  Any of
		// them missing from Arrived were lost in a degraded commit (the
		// old leader released clients after its ack wait timed out and
		// died before the entry shipped); count them arrived now and
		// re-evaluate releases in protocol order.
		n := ev.Expect
		if n > len(Barriers) {
			n = len(Barriers)
		}
		for _, name := range Barriers[:n] {
			if r.Arrived[name] == nil {
				r.Arrived[name] = make(map[int64]bool)
			}
			r.Arrived[name][ev.CID] = true
		}
		var fx []Effect
		for _, name := range Barriers {
			if st.Round != r {
				break
			}
			if !r.Released[name] && len(r.Arrived[name]) >= len(r.Participants) {
				fx = append(fx, releaseBarrier(st, r, name, ev.Now)...)
			}
		}
		return fx

	case EvRestartGroup:
		g := &RestartGroup{Gen: ev.Name, Expect: ev.Expect, Ranks: make(map[string]string, len(ev.Hosts))}
		for _, h := range ev.Hosts {
			g.Ranks[h] = RestartRankSpawned
		}
		st.Restart = g
		// The group is journaled before any of its restart programs
		// runs, so every advertisement from here on belongs to it.
		st.Advertised = make(map[string]kernel.Addr)
		return nil

	case EvRestartRank:
		if st.Restart != nil && st.Restart.Gen == ev.Name {
			st.Restart.Ranks[ev.Host] = ev.Msg
		}
		return nil

	case EvRestartDone:
		// A finished group must never be resumed by a later takeover;
		// an end for another generation leaves the current group alone.
		if st.Restart != nil && st.Restart.Gen == ev.Name {
			st.Restart = nil
		}
		return nil

	case EvHealth:
		h := ev.Health
		h.LastBeat = 0 // leader-local: a replay must not see it
		st.Health[ev.Host] = &h
		return nil
	}
	return nil
}

// startRound opens a checkpoint round over the current client table
// (or completes an empty round immediately when nothing is managed).
func startRound(st *State, now sim.Time) []Effect {
	if len(st.Clients) == 0 {
		round := &CkptRound{
			Index:    len(st.Rounds),
			Tag:      RoundTag(st.Epoch, len(st.Rounds)),
			Start:    now,
			End:      now,
			Compress: st.LastCfg.Compress,
			Forked:   st.LastCfg.Forked,
			Store:    st.LastCfg.Store,
		}
		st.Rounds = append(st.Rounds, round)
		return []Effect{{Kind: FxRoundDone, Round: round}}
	}
	r := &RoundState{
		Index:        len(st.Rounds),
		Tag:          RoundTag(st.Epoch, len(st.Rounds)),
		Start:        now,
		Cfg:          st.LastCfg,
		Participants: make(map[int64]bool, len(st.Clients)),
		Arrived:      make(map[string]map[int64]bool),
		Released:     make(map[string]bool),
	}
	for id := range st.Clients {
		r.Participants[id] = true
	}
	st.Round = r
	return []Effect{{Kind: FxStartRound, CIDs: r.ParticipantIDs()}}
}

// releaseBarrier marks a complete barrier released and finishes the
// round when it was the last one.
func releaseBarrier(st *State, r *RoundState, name string, now sim.Time) []Effect {
	if r.Released[name] {
		return nil
	}
	r.Released[name] = true
	fx := []Effect{{Kind: FxRelease, Name: name, CIDs: r.ParticipantIDs()}}
	if name == Barriers[len(Barriers)-1] {
		fx = append(fx, finishRound(st, now)...)
	}
	return fx
}

// finishRound closes the in-flight round into the Rounds history and
// starts a queued round, if any.
func finishRound(st *State, now sim.Time) []Effect {
	r := st.Round
	round := &CkptRound{
		Index:       r.Index,
		Tag:         r.Tag,
		Start:       r.Start,
		End:         now,
		NumProcs:    len(r.Participants),
		Images:      r.Images,
		Compress:    r.Cfg.Compress,
		Forked:      r.Cfg.Forked,
		Store:       r.Cfg.Store,
		WriteByHost: r.WriteByHost,
	}
	round.WorkerHints = stragglerHints(st, round)
	st.Rounds = append(st.Rounds, round)
	st.Round = nil
	fx := []Effect{{Kind: FxRoundDone, Round: round}}
	if st.PendingCkpt > 0 {
		st.PendingCkpt--
		fx = append(fx, startRound(st, now)...)
	}
	return fx
}

// stragglerHints derives the next round's per-host write worker
// pre-sizing from this round's write-stage times: a host whose write
// took >= StragglerThreshold times the median is hinted to its full
// core count (known from the health registry) instead of the default
// idle-core sizing.  Pure state-machine arithmetic, so leader and
// standby replays agree.
func stragglerHints(st *State, round *CkptRound) map[string]int {
	scores := StragglerScores(round.WriteByHost)
	if len(scores) == 0 {
		return nil
	}
	var hints map[string]int
	for host, score := range scores {
		if score < StragglerThreshold {
			continue
		}
		h := st.Health[host]
		if h == nil || h.Cores <= 0 {
			continue
		}
		if hints == nil {
			hints = make(map[string]int)
		}
		hints[host] = int(h.Cores)
	}
	return hints
}

func ensurePlace(st *State, name string) *PlaceInfo {
	pi := st.Placement[name]
	if pi == nil {
		pi = &PlaceInfo{Name: name, Holders: make(map[string]int64)}
		st.Placement[name] = pi
	}
	return pi
}

// placeImage records a committed generation in the placement map (the
// writer itself holds what it wrote).
func placeImage(st *State, img ImageInfo) {
	name, gen, ok := store.NameForManifest(img.Path)
	if !ok {
		return
	}
	pi := ensurePlace(st, name)
	pi.Host = img.Host
	pi.Prog = img.Prog
	pi.VirtPid = img.VirtPid
	if gen > pi.LatestGen {
		pi.LatestGen = gen
	}
	if gen > pi.Holders[img.Host] {
		pi.Holders[img.Host] = gen
	}
}

// --- event serialization ---------------------------------------------

// Encode serializes an event for the journal.
func (ev Event) Encode() []byte {
	c := bin.Encoding(byte(ev.Kind))
	ev.code(&c)
	return c.E.B
}

// DecodeEvent deserializes a journal event.
func DecodeEvent(b []byte) (Event, error) {
	if len(b) == 0 {
		return Event{}, fmt.Errorf("%w: empty record", ErrUnknownEvent)
	}
	ev := Event{Kind: EventKind(b[0])}
	if ev.Kind < EvRegister || ev.Kind > EvRestartDone {
		return Event{}, fmt.Errorf("%w: kind %d", ErrUnknownEvent, b[0])
	}
	c := bin.Decoding(b[1:])
	ev.code(&c)
	if c.D.Err != nil {
		return Event{}, fmt.Errorf("coordstate: decode %d: %w", ev.Kind, c.D.Err)
	}
	return ev, nil
}

// code lists the fields of ev's kind after the kind byte.
func (ev *Event) code(c *bin.Coder) {
	c.I64((*int64)(&ev.Now))
	switch ev.Kind {
	case EvRegister:
		c.Str(&ev.Desc)
	case EvDisconnect:
		c.I64(&ev.CID)
	case EvCkptRequest:
		ev.Cfg.code(c)
	case EvBarrier:
		c.I64(&ev.CID)
		c.Str(&ev.Barrier)
		c.I64(&ev.RoundTag)
		if img := bin.Opt(c, &ev.Image); img != nil {
			c.I64((*int64)(&ev.Stage))
			img.Code(c)
		}
	case EvAdvertise:
		c.Str(&ev.GUID)
		c.Str(&ev.Addr.Host)
		c.Int(&ev.Addr.Port)
	case EvReplicated:
		c.Str(&ev.Name)
		c.I64(&ev.Gen)
		c.Str(&ev.Holder)
	case EvWatermark:
		c.Str(&ev.Name)
		c.I64(&ev.Gen)
	case EvTakeover:
		c.Str(&ev.Leader)
		c.I64(&ev.Epoch)
	case EvHealth:
		c.Str(&ev.Host)
		ev.Health.code(c)
	case EvResync:
		c.I64(&ev.CID)
		c.I64(&ev.RoundTag)
		c.Int(&ev.Expect)
	case EvRestartGroup:
		c.Str(&ev.Name)
		c.Int(&ev.Expect)
		for i := range bin.List(c, &ev.Hosts, 4) {
			c.Str(&ev.Hosts[i])
		}
	case EvRestartRank:
		c.Str(&ev.Name)
		c.Str(&ev.Host)
		c.Str(&ev.Msg)
	case EvRestartDone:
		c.Str(&ev.Name)
	}
}
