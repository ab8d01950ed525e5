package coordstate

import (
	"reflect"
	"testing"
	"time"
)

// richMachine builds a machine whose state exercises every snapshot
// section: clients, completed rounds with images, placement,
// advertised guids, a finished and an in-flight restart group, and a
// takeover.
func richMachine(t *testing.T) *Machine {
	t.Helper()
	m := NewMachine()
	applyAll(m, []Event{evReg("node00/counter[4]"), evReg("node01/ppserver[7]")})
	applyAll(m, []Event{evCkpt(time.Second)})
	for _, name := range Barriers {
		for cid := int64(1); cid <= 2; cid++ {
			ev := evBar(cid, name, 2*time.Second)
			if name == BarrierCheckpointed {
				ev.Image = &ImageInfo{Host: "node00",
					Path:       "/ckpt/store/manifests/ckpt_x_node00_4.g000002",
					Generation: 2}
			}
			m.Apply(ev)
		}
	}
	applyAll(m, []Event{
		{Kind: EvReplicated, Name: "img", Gen: 2, Holder: "node02"},
		{Kind: EvWatermark, Name: "img", Gen: 2},
		{Kind: EvRestartGroup, Name: "g1", Expect: 1, Hosts: []string{"node01"}},
		{Kind: EvRestartDone, Name: "g1"},
		{Kind: EvTakeover, Leader: "node02", Epoch: 1},
		// A restart group in flight: the snapshot must carry it so a
		// standby promoted mid-restart can resume the half-done group.
		{Kind: EvRestartGroup, Name: "g2", Expect: 2, Hosts: []string{"node00", "node01"}},
		{Kind: EvRestartRank, Name: "g2", Host: "node00", Msg: RestartRankResumed},
		{Kind: EvAdvertise, GUID: "g1", Addr: addr("node01", 9)},
	})
	// Health summaries with enough beats for the phi detector to trust
	// their statistics, so the snapshot's Health section carries live
	// Welford state, not just zeroes.
	jittery := &HostHealth{}
	for i := int64(0); i < 6; i++ {
		jittery.Observe(beatAt(i*i, 5), 4)
	}
	applyAll(m, []Event{summary("node00", jittery), summary("node01", train(6, 40))})
	return m
}

// TestSnapshotRoundTrip pins the compaction invariant: compacting
// changes the representation, never the state — and a fresh machine
// fed the snapshot holds the identical state at the identical seq.
func TestSnapshotRoundTrip(t *testing.T) {
	m := richMachine(t)
	before, err := EncodeState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	seq := m.Seq()
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != seq || m.Base() != seq {
		t.Fatalf("compact moved seq: seq=%d base=%d want %d", m.Seq(), m.Base(), seq)
	}
	if got := m.EntriesSince(0); len(got) != 0 {
		t.Fatalf("compact left %d materialized entries", len(got))
	}
	after, err := EncodeState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("compaction altered the state")
	}

	fresh := NewMachine()
	base, snap := m.Snapshot()
	if err := fresh.InstallSnapshot(base, snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Seq() != seq || fresh.Epoch() != m.Epoch() {
		t.Fatalf("installed seq=%d epoch=%d, want %d/%d", fresh.Seq(), fresh.Epoch(), seq, m.Epoch())
	}
	if !reflect.DeepEqual(fresh.State(), m.State()) {
		t.Fatalf("snapshot install diverges:\n got %+v\nwant %+v", fresh.State(), m.State())
	}
}

// TestSnapshotRefusesMidRound pins that compaction only runs at round
// boundaries: the in-flight round is volatile and never snapshotted.
func TestSnapshotRefusesMidRound(t *testing.T) {
	m := NewMachine()
	applyAll(m, []Event{evReg("a/x[1]"), evCkpt(0)})
	if m.State().Round == nil {
		t.Fatal("round did not start")
	}
	if err := m.Compact(); err == nil {
		t.Fatal("compact succeeded mid-round")
	}
}

// TestSnapshotCatchUp is the bounded-catch-up contract: a standby that
// predates a compaction installs the snapshot plus the suffix and
// converges; a standby already past the base needs only the suffix.
func TestSnapshotCatchUp(t *testing.T) {
	m := richMachine(t)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction activity the standby must also see.
	applyAll(m, []Event{evReg("node02/late[9]"), evCkpt(0)})
	applyAll(m, allBarriers(3, time.Second)) // cids 1,2 disconnected? no — still registered
	// Close the round: all three clients must arrive.
	for cid := int64(1); cid <= 2; cid++ {
		applyAll(m, allBarriers(cid, time.Second))
	}

	// Cold standby: fence below base → snapshot + suffix.
	standby := NewMachine()
	if fence := m.FenceFor(standby.Epoch()); fence >= m.Base() {
		t.Fatalf("fence %d for epoch-0 peer, want < base %d", fence, m.Base())
	}
	base, snap := m.Snapshot()
	if err := standby.InstallSnapshot(base, snap); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.EntriesSince(standby.Seq()) {
		if _, err := standby.ApplyEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(standby.State(), m.State()) {
		t.Fatal("snapshot + suffix catch-up diverges")
	}
	if standby.Seq() != m.Seq() {
		t.Fatalf("standby seq=%d, leader %d", standby.Seq(), m.Seq())
	}

	// A peer on the current epoch at the base needs no snapshot.
	if fence := m.FenceFor(m.Epoch()); fence != m.Seq() {
		t.Fatalf("same-epoch fence = %d, want %d", fence, m.Seq())
	}
}

// TestRestoreJournalWithSnapshot pins the on-disk artifact: a journal
// file written after compaction (snapshot record + suffix) restores to
// the identical machine.
func TestRestoreJournalWithSnapshot(t *testing.T) {
	m := richMachine(t)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	applyAll(m, []Event{evReg("node03/tail[2]")})
	got, err := RestoreJournal(m.JournalBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq() != m.Seq() || got.Base() != m.Base() {
		t.Fatalf("restored seq=%d base=%d, want %d/%d", got.Seq(), got.Base(), m.Seq(), m.Base())
	}
	if !reflect.DeepEqual(got.State(), m.State()) {
		t.Fatal("journal-file restore diverges")
	}

	// Pre-compaction journals (plain entry stream) restore too.
	plain := richMachine(t)
	got2, err := RestoreJournal(plain.JournalBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.State(), plain.State()) {
		t.Fatal("plain journal restore diverges")
	}
}

// TestTruncateClampsToBase pins the rewind floor: fencing can never
// rewind below the snapshot (those entries are gone); the clamp is
// safe because pushers ship a snapshot when fencing below a peer's
// base.
func TestTruncateClampsToBase(t *testing.T) {
	m := richMachine(t)
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	base := m.Base()
	applyAll(m, []Event{evReg("a"), evReg("b")})
	if err := m.TruncateTo(base - 3); err != nil {
		t.Fatal(err)
	}
	if m.Seq() != base {
		t.Fatalf("seq after clamp-truncate = %d, want %d", m.Seq(), base)
	}
	// The state must equal a pure snapshot install.
	fresh := NewMachine()
	b, snap := m.Snapshot()
	if err := fresh.InstallSnapshot(b, snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.State(), m.State()) {
		t.Fatal("truncate-to-base state differs from snapshot state")
	}
}
