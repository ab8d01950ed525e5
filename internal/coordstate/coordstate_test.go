package coordstate

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

func addr(h string, p int) kernel.Addr { return kernel.Addr{Host: h, Port: p} }

// Event constructors for readable tables.

func evReg(desc string) Event { return Event{Kind: EvRegister, Desc: desc} }
func evCkpt(at time.Duration) Event {
	return Event{Kind: EvCkptRequest, Now: sim.Time(at), Cfg: RoundCfg{Compress: true}}
}
func evBar(cid int64, name string, at time.Duration) Event {
	return Event{Kind: EvBarrier, CID: cid, Barrier: name, Now: sim.Time(at), Stage: time.Millisecond}
}

// allBarriers arrives cid at every checkpoint barrier in order.
func allBarriers(cid int64, at time.Duration) []Event {
	var out []Event
	for _, name := range Barriers {
		out = append(out, evBar(cid, name, at))
	}
	return out
}

func applyAll(m *Machine, evs []Event) []Effect {
	var fx []Effect
	for _, ev := range evs {
		fx = append(fx, m.Apply(ev)...)
	}
	return fx
}

// TestApplyTable drives event sequences through the state machine and
// checks the resulting state — the coordinator logic that used to be
// welded to socket handlers, now unit-testable.
func TestApplyTable(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		check  func(t *testing.T, st *State, fx []Effect)
	}{
		{
			name:   "register assigns sequential ids",
			events: []Event{evReg("a/x[1]"), evReg("b/y[2]")},
			check: func(t *testing.T, st *State, _ []Effect) {
				if st.NextCID != 2 || len(st.Clients) != 2 {
					t.Fatalf("clients = %+v", st.Clients)
				}
				if st.ClientByDesc("b/y[2]") != 2 {
					t.Fatal("desc lookup broken")
				}
			},
		},
		{
			name:   "checkpoint with no clients completes an empty round",
			events: []Event{evCkpt(0)},
			check: func(t *testing.T, st *State, fx []Effect) {
				if len(st.Rounds) != 1 || st.Rounds[0].NumProcs != 0 {
					t.Fatalf("rounds = %+v", st.Rounds)
				}
				if len(fx) != 1 || fx[0].Kind != FxRoundDone {
					t.Fatalf("effects = %+v", fx)
				}
			},
		},
		{
			name:   "round starts over the registered clients",
			events: []Event{evReg("a/x[1]"), evReg("b/y[2]"), evCkpt(time.Second)},
			check: func(t *testing.T, st *State, fx []Effect) {
				if st.Round == nil || len(st.Round.Participants) != 2 {
					t.Fatalf("round = %+v", st.Round)
				}
				last := fx[len(fx)-1]
				if last.Kind != FxStartRound || len(last.CIDs) != 2 {
					t.Fatalf("effects = %+v", fx)
				}
			},
		},
		{
			name: "barrier releases only when everyone arrived",
			events: append([]Event{evReg("a/x[1]"), evReg("b/y[2]"), evCkpt(0)},
				evBar(1, "suspended", time.Millisecond)),
			check: func(t *testing.T, st *State, fx []Effect) {
				if st.Round.Released["suspended"] {
					t.Fatal("released with one of two arrivals")
				}
				for _, f := range fx {
					if f.Kind == FxRelease {
						t.Fatalf("premature release: %+v", f)
					}
				}
			},
		},
		{
			name: "full round completes and records images",
			events: func() []Event {
				evs := []Event{evReg("a/x[1]"), evCkpt(0)}
				for _, name := range Barriers {
					ev := evBar(1, name, 2*time.Second)
					if name == BarrierCheckpointed {
						ev.Image = &ImageInfo{Host: "node00", Path: "/ckpt/img"}
					}
					evs = append(evs, ev)
				}
				return evs
			}(),
			check: func(t *testing.T, st *State, _ []Effect) {
				if st.Round != nil || len(st.Rounds) != 1 {
					t.Fatalf("round not closed: %+v", st.Round)
				}
				r := st.Rounds[0]
				if r.NumProcs != 1 || len(r.Images) != 1 {
					t.Fatalf("round = %+v", r)
				}
				if total := r.End.Sub(r.Start); total != 2*time.Second {
					t.Fatalf("total = %v", total)
				}
			},
		},
		{
			name: "queued request starts the next round at completion",
			events: func() []Event {
				evs := []Event{evReg("a/x[1]"), evCkpt(0), evCkpt(0)}
				return append(evs, allBarriers(1, time.Second)...)
			}(),
			check: func(t *testing.T, st *State, fx []Effect) {
				if len(st.Rounds) != 1 || st.Round == nil {
					t.Fatalf("queued round did not start: rounds=%d round=%v", len(st.Rounds), st.Round)
				}
				if st.PendingCkpt != 0 {
					t.Fatalf("pending = %d", st.PendingCkpt)
				}
			},
		},
		{
			name: "disconnect mid-round releases the survivors",
			events: []Event{
				evReg("a/x[1]"), evReg("b/y[2]"), evCkpt(0),
				evBar(1, "suspended", time.Millisecond),
				{Kind: EvDisconnect, CID: 2},
			},
			check: func(t *testing.T, st *State, fx []Effect) {
				if !st.Round.Released["suspended"] {
					t.Fatal("survivor barrier not released after disconnect")
				}
			},
		},
		{
			name: "all participants dying closes the round",
			events: []Event{
				evReg("a/x[1]"), evCkpt(0),
				{Kind: EvDisconnect, CID: 1, Now: sim.Time(time.Second)},
			},
			check: func(t *testing.T, st *State, _ []Effect) {
				if st.Round != nil || len(st.Rounds) != 1 {
					t.Fatal("round not closed after last participant died")
				}
			},
		},
		{
			name: "stale arrival is released immediately",
			events: []Event{
				evReg("a/x[1]"),
				evBar(1, "drained", 0), // no round in flight
			},
			check: func(t *testing.T, st *State, fx []Effect) {
				if len(fx) != 1 || fx[0].Kind != FxReleaseOne || fx[0].Name != "drained" || fx[0].CID != 1 {
					t.Fatalf("effects = %+v", fx)
				}
			},
		},
		{
			name: "duplicate arrival never double-counts the image",
			events: func() []Event {
				evs := []Event{evReg("a/x[1]"), evReg("b/y[2]"), evCkpt(0)}
				img := evBar(1, BarrierCheckpointed, 0)
				img.Image = &ImageInfo{Host: "node00", Path: "/ckpt/img"}
				evs = append(evs, img, img) // re-sent across a reconnect
				return evs
			}(),
			check: func(t *testing.T, st *State, _ []Effect) {
				if len(st.Round.Images) != 1 {
					t.Fatalf("duplicate arrival double-counted: %+v", st.Round)
				}
			},
		},
		{
			name: "takeover preserves the in-flight round and bumps the epoch",
			events: []Event{
				evReg("a/x[1]"), evCkpt(0), evCkpt(0),
				evBar(1, "suspended", time.Millisecond),
				{Kind: EvTakeover, Leader: "node02", Epoch: 1},
			},
			check: func(t *testing.T, st *State, fx []Effect) {
				if st.Round == nil || st.PendingCkpt != 1 {
					t.Fatalf("takeover dropped in-flight work: round=%+v pending=%d",
						st.Round, st.PendingCkpt)
				}
				if st.Round.Tag != RoundTag(0, 0) {
					t.Fatalf("round tag changed across takeover: %d", st.Round.Tag)
				}
				if st.Epoch != 1 || st.Leader != "node02" {
					t.Fatalf("epoch/leader = %d/%s", st.Epoch, st.Leader)
				}
				if len(st.Clients) != 1 {
					t.Fatal("takeover must keep the client table")
				}
				last := fx[len(fx)-1]
				if last.Kind != FxResumeRound || last.Name != "suspended" {
					t.Fatalf("expected FxResumeRound at phase suspended, got %+v", last)
				}
			},
		},
		{
			name: "takeover with a restart group in flight resumes it",
			events: []Event{
				{Kind: EvRestartGroup, Name: "g7", Expect: 2, Hosts: []string{"node01", "node02"}},
				{Kind: EvRestartRank, Name: "g7", Host: "node01", Msg: RestartRankInstalled},
				{Kind: EvTakeover, Leader: "node02", Epoch: 1},
			},
			check: func(t *testing.T, st *State, fx []Effect) {
				if st.Restart == nil || st.Restart.Gen != "g7" {
					t.Fatalf("restart group dropped: %+v", st.Restart)
				}
				if st.Restart.Ranks["node01"] != RestartRankInstalled ||
					st.Restart.Ranks["node02"] != RestartRankSpawned {
					t.Fatalf("ranks = %+v", st.Restart.Ranks)
				}
				if st.Restart.RanksAtLeast(RestartRankInstalled) != 1 {
					t.Fatalf("RanksAtLeast(installed) = %d", st.Restart.RanksAtLeast(RestartRankInstalled))
				}
				last := fx[len(fx)-1]
				if last.Kind != FxResumeRestart || last.Name != "g7" {
					t.Fatalf("expected FxResumeRestart, got %+v", last)
				}
			},
		},
		{
			name: "resync heals arrivals lost to a degraded commit",
			events: []Event{
				evReg("a/x[1]"), evReg("b/y[2]"), evCkpt(0),
				evBar(2, "suspended", time.Millisecond),
				// Client 1 passed "suspended" under the old leader but
				// the journal entry never shipped; its resync report
				// (1 barrier passed) replays the missing arrival and
				// releases the barrier for everyone.
				{Kind: EvResync, CID: 1, RoundTag: RoundTag(0, 0), Expect: 1},
			},
			check: func(t *testing.T, st *State, fx []Effect) {
				if st.Round == nil || !st.Round.Released["suspended"] {
					t.Fatalf("resync did not heal the barrier: %+v", st.Round)
				}
				released := false
				for _, f := range fx {
					if f.Kind == FxRelease && f.Name == "suspended" {
						released = true
					}
				}
				if !released {
					t.Fatalf("no release effect after resync heal: %+v", fx)
				}
			},
		},
		{
			name: "placement tracks replication and watermarks",
			events: []Event{
				{Kind: EvReplicated, Name: "img", Gen: 2, Holder: "node01"},
				{Kind: EvReplicated, Name: "img", Gen: 1, Holder: "node01"}, // stale: ignored
				{Kind: EvWatermark, Name: "img", Gen: 2},
			},
			check: func(t *testing.T, st *State, _ []Effect) {
				pi := st.Placement["img"]
				if pi == nil || pi.Holders["node01"] != 2 || pi.ReplicatedGen != 2 {
					t.Fatalf("placement = %+v", pi)
				}
			},
		},
		{
			name: "arming a restart group scopes discovery to it",
			events: []Event{
				{Kind: EvRestartGroup, Name: "g1", Expect: 2, Hosts: []string{"node00", "node01"}},
				{Kind: EvAdvertise, GUID: "sock", Addr: addr("node01", 9)},
				{Kind: EvRestartDone, Name: "g1"},
				// Restored sockets keep their GUIDs: the next restart
				// must not be answered with g1's dead listener.
				{Kind: EvRestartGroup, Name: "g2", Expect: 2, Hosts: []string{"node00", "node01"}},
			},
			check: func(t *testing.T, st *State, _ []Effect) {
				if addr, ok := st.Advertised["sock"]; ok {
					t.Fatalf("g1's advertisement %v outlived its restart", addr)
				}
			},
		},
		{
			name: "group end for another generation leaves the current group alone",
			events: []Event{
				{Kind: EvRestartGroup, Name: "g1", Expect: 1, Hosts: []string{"node01"}},
				{Kind: EvRestartDone, Name: "g1"},
				{Kind: EvRestartGroup, Name: "g2", Expect: 1, Hosts: []string{"node01"}},
				// A late end for the finished g1 must not clear g2.
				{Kind: EvRestartDone, Name: "g1"},
			},
			check: func(t *testing.T, st *State, _ []Effect) {
				if st.Restart == nil || st.Restart.Gen != "g2" {
					t.Fatalf("restart group = %+v, want g2 still in flight", st.Restart)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine()
			fx := applyAll(m, tc.events)
			tc.check(t, m.State(), fx)
		})
	}
}

// TestReplayIdenticalState is the HA invariant: a standby that
// replays the leader's journal holds byte-identical state — for every
// prefix, not just the end.
func TestReplayIdenticalState(t *testing.T) {
	events := []Event{
		evReg("node00/counter[4]"), evReg("node01/ppserver[7]"),
		evCkpt(time.Second),
	}
	for _, name := range Barriers {
		for cid := int64(1); cid <= 2; cid++ {
			ev := evBar(cid, name, 2*time.Second)
			if name == BarrierCheckpointed {
				ev.Image = &ImageInfo{Host: "node00", Path: "/ckpt/store/manifests/img.gen2.manifest",
					Generation: 2}
			}
			events = append(events, ev)
		}
	}
	events = append(events,
		Event{Kind: EvReplicated, Name: "img", Gen: 2, Holder: "node02"},
		Event{Kind: EvWatermark, Name: "img", Gen: 2},
		Event{Kind: EvRestartGroup, Name: "3", Expect: 1, Hosts: []string{"node01"}},
		Event{Kind: EvAdvertise, GUID: "g1", Addr: addr("node01", 9)},
		Event{Kind: EvRestartDone, Name: "3"},
		Event{Kind: EvTakeover, Leader: "node02", Epoch: 1},
		Event{Kind: EvDisconnect, CID: 1},
	)

	leader := NewMachine()
	standby := NewMachine()
	for i, ev := range events {
		leader.Apply(ev)
		for _, e := range leader.EntriesSince(standby.Seq()) {
			if _, err := standby.ApplyEntry(e); err != nil {
				t.Fatalf("event %d: standby apply: %v", i, err)
			}
		}
		if !reflect.DeepEqual(leader.State(), standby.State()) {
			t.Fatalf("after event %d (%d): leader %+v\nstandby %+v",
				i, ev.Kind, leader.State(), standby.State())
		}
	}
	if standby.Seq() != int64(len(events)) || standby.Epoch() != 1 {
		t.Fatalf("standby seq=%d epoch=%d", standby.Seq(), standby.Epoch())
	}

	// A cold replay of the serialized journal file agrees too.
	entries, err := DecodeJournal(leader.JournalBytes())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.State(), leader.State()) {
		t.Fatal("cold journal replay diverges")
	}
}

// TestEncodeDecodeRoundtrip pins the wire format of every event kind.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	img := &ImageInfo{Host: "h", Path: "p", Prog: "prog", VirtPid: 42, Generation: 3}
	events := []Event{
		{Kind: EvRegister, Now: 7, Desc: "a/b[1]"},
		{Kind: EvDisconnect, CID: 12},
		{Kind: EvCkptRequest, Cfg: RoundCfg{Compress: true, Fsync: true, Forked: true, Store: true}},
		{Kind: EvBarrier, CID: 3, Barrier: BarrierCheckpointed, Stage: time.Second, Image: img},
		{Kind: EvBarrier, CID: 3, Barrier: "drained"},
		{Kind: EvAdvertise, GUID: "g", Addr: addr("h", 80)},
		{Kind: EvReplicated, Name: "n", Gen: 9, Holder: "h2"},
		{Kind: EvWatermark, Name: "n", Gen: 9},
		{Kind: EvRestartDone, Name: "3"},
		{Kind: EvTakeover, Leader: "l", Epoch: 2},
	}
	for _, ev := range events {
		got, err := DecodeEvent(ev.Encode())
		if err != nil {
			t.Fatalf("kind %d: %v", ev.Kind, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("kind %d roundtrip:\n got %+v\nwant %+v", ev.Kind, got, ev)
		}
	}
	if _, err := DecodeEvent([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown kind decoded cleanly")
	}
}

// TestTruncateFencing: a standby that ran ahead of a new leader's
// epoch rewinds to the fencing point and replays to identical state.
func TestTruncateFencing(t *testing.T) {
	leader := NewMachine()
	applyAll(leader, []Event{evReg("a/x[1]"), evReg("b/y[2]")})

	// The standby replicated everything, then saw two more entries the
	// NEW leader never got.
	ahead, err := Replay(leader.EntriesSince(0))
	if err != nil {
		t.Fatal(err)
	}
	applyAll(ahead, []Event{evReg("c/z[3]"), evCkpt(0)})

	// New leader (replayed only the shared prefix) takes over.
	promoted, err := Replay(leader.EntriesSince(0))
	if err != nil {
		t.Fatal(err)
	}
	promoted.Apply(Event{Kind: EvTakeover, Leader: "node02", Epoch: 1})
	if promoted.EpochStartSeq() != 3 {
		t.Fatalf("epoch start = %d", promoted.EpochStartSeq())
	}

	// Fencing: the ahead standby rewinds below the epoch start, then
	// catches up from the promoted leader.
	if err := ahead.TruncateTo(promoted.EpochStartSeq() - 1); err != nil {
		t.Fatal(err)
	}
	if ahead.Seq() != 2 || ahead.State().Round != nil || len(ahead.State().Clients) != 2 {
		t.Fatalf("truncate left seq=%d state=%+v", ahead.Seq(), ahead.State())
	}
	for _, e := range promoted.EntriesSince(ahead.Seq()) {
		if _, err := ahead.ApplyEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ahead.State(), promoted.State()) {
		t.Fatal("fenced standby diverges from promoted leader")
	}

	// Out-of-order entries are rejected, matching the handshake's
	// re-ship-from-acked-seq discipline.
	if _, err := ahead.ApplyEntry(Entry{Seq: ahead.Seq() + 5, Data: evReg("x").Encode()}); err == nil {
		t.Fatal("gap accepted")
	}
}
