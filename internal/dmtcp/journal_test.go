package dmtcp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
)

// journalEnv is a session whose coordinator on node 0 has one standby,
// on node 1, mirroring standby.  With no heartbeat the leader never
// pushes on its own, so only the test's pushes reach the standby.
func journalEnv(t *testing.T, nodes int, standby *coordstate.Machine) *env {
	t.Helper()
	e := newEnv(t, nodes, Config{CoordStandbys: 1})
	e.c.Params.HeartbeatInterval = 0
	e.sys.coords[1].Mach = standby
	return e
}

// pusher returns a leader instance on node 0, outside the session's
// own, that ships m.
func (e *env) pusher(m *coordstate.Machine) *Coordinator {
	co := newCoordinator(e.sys, e.c.Node(0), e.sys.Cfg.CoordPort, false)
	co.Mach = m
	return co
}

// TestJournalPushAndFencing exercises the coordinator-journal
// transport between coordinators: the want/append handshake ships only
// the suffix the standby lacks, and a stale-epoch pusher is fenced off.
func TestJournalPushAndFencing(t *testing.T) {
	leader := coordstate.NewMachine()
	standby := coordstate.NewMachine()
	e := journalEnv(t, 3, standby)
	co := e.pusher(leader)
	e.drive(t, func(task *kernel.Task) {
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "a/x[1]"})
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "b/y[2]"})
		seq, err := co.pushJournal(task, "node01")
		if err != nil || seq != 2 {
			t.Errorf("push: seq=%d err=%v", seq, err)
			return
		}
		if !reflect.DeepEqual(standby.State(), leader.State()) {
			t.Error("standby state diverges after push")
			return
		}
		before := e.sys.Journal.Entries

		// Second push with nothing new ships nothing.
		if _, err := co.pushJournal(task, "node01"); err != nil {
			t.Error(err)
			return
		}
		if e.sys.Journal.Entries != before {
			t.Error("caught-up push re-shipped entries")
		}

		// Only the suffix travels.
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "c/z[3]"})
		if seq, err := co.pushJournal(task, "node01"); err != nil || seq != 3 {
			t.Errorf("suffix push: seq=%d err=%v", seq, err)
			return
		}
		if got := e.sys.Journal.Entries - before; got != 1 {
			t.Errorf("suffix push shipped %d entries, want 1", got)
		}

		// The standby is promoted to epoch 1; the old epoch-0 leader
		// must be fenced off.
		standby.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node01", Epoch: 1})
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "stale"})
		if _, err := co.pushJournal(task, "node01"); !errors.Is(err, errDeposed) {
			t.Errorf("stale-epoch push: err = %v, want errDeposed", err)
			return
		}
		if standby.State().ClientByDesc("stale") != 0 {
			t.Error("stale entry applied through the fence")
		}
	})
}

// TestJournalFenceAfterDoubleTakeover: standby B holds epoch-0
// entries the intermediate leader A never saw; after A dies too, the
// next leader C (epoch 2) must rewind B past the divergence point —
// the first epoch boundary B missed — not merely to C's newest epoch
// start, or B would keep a divergent prefix under C's suffix.
func TestJournalFenceAfterDoubleTakeover(t *testing.T) {
	reg := func(m *coordstate.Machine, desc string) {
		m.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: desc})
	}
	// Shared epoch-0 prefix of 2 entries.
	leader0 := coordstate.NewMachine()
	reg(leader0, "a/x[1]")
	reg(leader0, "b/y[2]")
	// B replicated the prefix, then got 2 more epoch-0 entries that
	// never reached anyone else before leader0 died.
	ahead, err := coordstate.Replay(leader0.EntriesSince(0))
	if err != nil {
		t.Fatal(err)
	}
	reg(ahead, "c/z[3]")
	reg(ahead, "d/w[4]")
	// A took over at epoch 1 (from the shared prefix), appended one
	// entry, then died; C took over from A's journal at epoch 2.
	next, err := coordstate.Replay(leader0.EntriesSince(0))
	if err != nil {
		t.Fatal(err)
	}
	next.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node01", Epoch: 1})
	reg(next, "e/v[5]")
	next.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node00", Epoch: 2})
	if fence := next.FenceFor(0); fence != 2 {
		t.Fatalf("FenceFor(0) = %d, want 2 (entry before epoch 1's takeover)", fence)
	}

	e := journalEnv(t, 3, ahead)
	co := e.pusher(next)
	e.drive(t, func(task *kernel.Task) {
		seq, err := co.pushJournal(task, "node01")
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		if seq != next.Seq() {
			t.Errorf("peer acked seq %d, want %d", seq, next.Seq())
			return
		}
		if !reflect.DeepEqual(ahead.State(), next.State()) {
			t.Errorf("divergent prefix survived the fence:\npeer %+v\nleader %+v",
				ahead.State(), next.State())
			return
		}
		if ahead.State().ClientByDesc("c/z[3]") != 0 {
			t.Error("orphaned epoch-0 entry kept after rewind")
		}
	})
}

// TestJournalSnapshotCatchUp pins the compaction ship path: a standby
// that predates a leader compaction receives the state snapshot plus
// the materialized suffix (bounded catch-up), converges exactly, and
// subsequent pushes go back to suffix-only shipping.
func TestJournalSnapshotCatchUp(t *testing.T) {
	leader := coordstate.NewMachine()
	for i := 0; i < 10; i++ {
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: fmt.Sprintf("h/p[%d]", i)})
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "post/compaction[1]"})

	standby := coordstate.NewMachine()
	e := journalEnv(t, 3, standby)
	co := e.pusher(leader)
	e.drive(t, func(task *kernel.Task) {
		seq, err := co.pushJournal(task, "node01")
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		if seq != leader.Seq() {
			t.Errorf("acked seq = %d, want %d", seq, leader.Seq())
			return
		}
		if e.sys.Journal.Snapshots != 1 {
			t.Errorf("snapshots shipped = %d, want 1", e.sys.Journal.Snapshots)
			return
		}
		if !reflect.DeepEqual(standby.State(), leader.State()) {
			t.Error("snapshot catch-up diverges")
			return
		}
		if standby.Base() != leader.Base() {
			t.Errorf("standby base = %d, want %d", standby.Base(), leader.Base())
			return
		}

		// Caught-up peers keep getting plain suffixes, never snapshots.
		leader.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "tail/x[2]"})
		if _, err := co.pushJournal(task, "node01"); err != nil {
			t.Error(err)
			return
		}
		if e.sys.Journal.Snapshots != 1 {
			t.Errorf("caught-up push re-shipped a snapshot (%d)", e.sys.Journal.Snapshots)
		}
		if !reflect.DeepEqual(standby.State(), leader.State()) {
			t.Error("suffix push after snapshot diverges")
		}
	})
}

// TestRawStaleEpochWritesAreFencedAndCounted speaks the journal wire
// protocol directly: a standby already on epoch 1 must answer raw
// epoch-0 snapshot and append frames with msgJErr, leave its state
// untouched, and count each rejection in Journal.FencedWrites — the
// counter operators watch to spot a deposed leader still trying to
// write.
func TestRawStaleEpochWritesAreFencedAndCounted(t *testing.T) {
	sink := coordstate.NewMachine()
	sink.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "a/x[1]"})
	sink.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node01", Epoch: 1})
	preSeq := sink.Seq()
	e := journalEnv(t, 2, sink)
	js := &e.sys.Journal

	// A plausible epoch-0 payload: what a deposed leader that never
	// heard of the takeover would actually ship.
	stale := coordstate.NewMachine()
	stale.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "a/x[1]"})
	stale.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: "ghost/y[2]"})

	e.drive(t, func(task *kernel.Task) {
		send := func(frame []byte) byte {
			fd := task.Socket()
			defer task.Close(fd)
			if err := task.Connect(fd, kernel.Addr{Host: "node01", Port: DefaultCoordPort}); err != nil {
				t.Errorf("connect: %v", err)
				return 0
			}
			if err := task.SendFrame(fd, frame); err != nil {
				t.Errorf("send: %v", err)
				return 0
			}
			resp, err := task.RecvFrame(fd)
			if err != nil || len(resp) == 0 {
				t.Errorf("recv: %v", err)
				return 0
			}
			return resp[0]
		}

		// Stale snapshot install: must not rewind the newer epoch.
		base, snap := stale.Snapshot()
		var se bin.Encoder
		se.B = append(se.B, msgJSnap)
		se.I64(0) // deposed epoch
		se.I64(base)
		se.Bytes(snap)
		if op := send(se.B); op != msgJErr {
			t.Errorf("stale snapshot answered %q, want msgJErr", op)
		}
		if js.FencedWrites != 1 {
			t.Errorf("FencedWrites after stale snap = %d, want 1", js.FencedWrites)
		}

		// Stale append: must not extend (or rewind) the history.
		entries := stale.EntriesSince(1)
		var je bin.Encoder
		je.B = append(je.B, msgJAppend)
		je.I64(0) // deposed epoch
		je.I64(1) // rewind point below the sink's seq
		je.U32(uint32(len(entries)))
		for _, ent := range entries {
			je.I64(ent.Seq)
			je.Bytes(ent.Data)
		}
		if op := send(je.B); op != msgJErr {
			t.Errorf("stale append answered %q, want msgJErr", op)
		}
		if js.FencedWrites != 2 {
			t.Errorf("FencedWrites after stale append = %d, want 2", js.FencedWrites)
		}

		// The read-only handshake still answers honestly, so the
		// deposed pusher can learn the newer epoch — and it is not a
		// fenced write.
		var we bin.Encoder
		we.B = append(we.B, msgJWant)
		we.I64(0)
		if op := send(we.B); op != msgJAck {
			t.Errorf("stale handshake answered %q, want msgJAck (read-only)", op)
		}
		if js.FencedWrites != 2 {
			t.Errorf("FencedWrites after handshake = %d, want 2 (reads never fence)", js.FencedWrites)
		}
	})
	if sink.Seq() != preSeq || sink.Epoch() != 1 {
		t.Fatalf("sink moved: seq %d -> %d, epoch %d", preSeq, sink.Seq(), sink.Epoch())
	}
	if sink.State().ClientByDesc("ghost/y[2]") != 0 {
		t.Fatal("stale entry applied through the fence")
	}
}
