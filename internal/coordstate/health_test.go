package coordstate

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// beatAt places beat i of a periodMS-millisecond heartbeat train on
// the virtual clock (starting at 1s so LastBeat is never the zero
// time).
func beatAt(i, periodMS int64) sim.Time {
	return sim.Time(time.Second).Add(time.Duration(i*periodMS) * time.Millisecond)
}

// train folds n beats of a periodMS train from a 4-core node into a
// fresh live registry entry.
func train(n, periodMS int64) *HostHealth {
	h := &HostHealth{}
	for i := int64(0); i < n; i++ {
		h.Observe(beatAt(i, periodMS), 4)
	}
	return h
}

// summary is the EvHealth a leader journals for host's live entry h.
func summary(host string, h *HostHealth) Event {
	return Event{Kind: EvHealth, Now: h.LastBeat, Host: host, Health: *h}
}

// TestHealthObserveWelford pins the registry's statistics and their
// summary: Count is beats folded, the mean tracks the inter-arrival
// period, a perfectly regular train has zero variance, and the
// journaled summary carries all of it except the leader-local clock.
func TestHealthObserveWelford(t *testing.T) {
	live := train(8, 25)
	if live.Count != 8 {
		t.Errorf("Count = %d, want 8", live.Count)
	}
	if want := float64(25 * time.Millisecond); live.MeanNS != want {
		t.Errorf("MeanNS = %f, want %f", live.MeanNS, want)
	}
	if sd := live.StdNS(); sd != 0 {
		t.Errorf("StdNS = %f for a perfectly regular train, want 0", sd)
	}
	if live.LastBeat != beatAt(7, 25) || live.Cores != 4 {
		t.Errorf("LastBeat = %d cores = %d, want %d and 4", live.LastBeat, live.Cores, beatAt(7, 25))
	}

	m := NewMachine()
	applyAll(m, []Event{summary("node01", live)})
	h := m.State().Health["node01"]
	if h == nil {
		t.Fatal("no registry entry after a summary")
	}
	want := *live
	want.LastBeat = 0
	if *h != want {
		t.Errorf("journaled summary = %+v, want %+v (statistics without the clock)", *h, want)
	}
}

// TestHealthSeededEntryRearms pins what a promoted leader relies on:
// an entry seeded from a summary has no clock, so the first beat after
// a long leaderless gap only arms it, and the gap never enters the
// statistics or the deadline.
func TestHealthSeededEntryRearms(t *testing.T) {
	const (
		factor = 1.5
		floor  = 60 * time.Millisecond
		cap    = 250 * time.Millisecond
	)
	live := train(8, 25)
	seeded := *live
	seeded.LastBeat = 0
	gap := beatAt(7, 25).Add(2 * time.Second)
	for i := int64(0); i < 4; i++ {
		seeded.Observe(gap.Add(time.Duration(i)*25*time.Millisecond), 4)
		live.Observe(beatAt(8+i, 25), 4)
	}
	if seeded.Count != 11 || seeded.MeanNS != live.MeanNS || seeded.M2NS != live.M2NS {
		t.Errorf("seeded entry after the gap = %+v, want the unbroken train's statistics %+v", seeded, *live)
	}
	if d := seeded.Deadline(factor, floor, cap); d != floor {
		t.Errorf("deadline after the gap = %v, want the floor %v", d, floor)
	}
}

// TestHealthDeadline pins the adaptive-deadline clamp semantics: too
// few samples → the static cap; a quiet train → factor*(mean+4σ)
// clamped up to the floor; jitter only ever widens it, and nothing
// exceeds the cap.
func TestHealthDeadline(t *testing.T) {
	const (
		factor = 1.5
		floor  = 60 * time.Millisecond
		cap    = 250 * time.Millisecond
	)
	var h *HostHealth
	if d := h.Deadline(factor, floor, cap); d != cap {
		t.Errorf("nil entry deadline = %v, want static cap %v", d, cap)
	}
	h = train(3, 25)
	if d := h.Deadline(factor, floor, cap); d != cap {
		t.Errorf("3-sample deadline = %v, want static cap %v (not enough evidence)", d, cap)
	}
	h.Observe(beatAt(3, 25), 4)
	// Quiet 25ms train: 1.5*25ms = 37.5ms, clamped up to the floor.
	if d := h.Deadline(factor, floor, cap); d != floor {
		t.Errorf("quiet-train deadline = %v, want floor %v", d, floor)
	}

	// A jittery train widens the deadline but never past the cap.
	j := &HostHealth{}
	at := sim.Time(time.Second)
	for _, gap := range []time.Duration{25, 25, 80, 25, 120, 25, 90} {
		at = at.Add(gap * time.Millisecond)
		j.Observe(at, 4)
	}
	quiet := h.Deadline(factor, floor, cap)
	loaded := j.Deadline(factor, floor, cap)
	if loaded <= quiet {
		t.Errorf("loaded deadline %v <= quiet %v: jitter must widen detection", loaded, quiet)
	}
	if loaded > cap {
		t.Errorf("loaded deadline %v exceeds static cap %v", loaded, cap)
	}
}

// TestHealthEventRoundTrip pins the journal encoding of EvHealth.
func TestHealthEventRoundTrip(t *testing.T) {
	in := Event{Kind: EvHealth, Now: beatAt(5, 25), Host: "node03",
		Health: HostHealth{Count: 9, MeanNS: 2.5e7, M2NS: 1.25e12, Cores: 4}}
	out, err := DecodeEvent(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverges:\n in %+v\nout %+v", in, out)
	}
}

// TestHealthSurvivesReplay is the takeover-inheritance contract: a
// standby that replays the leader's journal derives the identical
// adaptive deadline — promotion does not reset the failure detector to
// the static delay.  A later summary of a host supersedes its earlier
// one.
func TestHealthSurvivesReplay(t *testing.T) {
	const (
		factor = 1.5
		floor  = 60 * time.Millisecond
		cap    = 250 * time.Millisecond
	)
	leader := NewMachine()
	applyAll(leader, []Event{summary("node01", train(3, 25)), summary("node02", train(10, 35))})
	applyAll(leader, []Event{summary("node01", train(10, 25))})
	want := leader.State().HostDeadline("node01", factor, floor, cap)
	if want >= cap {
		t.Fatalf("leader deadline %v not adaptive (cap %v): test premise broken", want, cap)
	}

	standby := NewMachine()
	for _, e := range leader.EntriesSince(0) {
		if _, err := standby.ApplyEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := standby.State().HostDeadline("node01", factor, floor, cap); got != want {
		t.Errorf("replayed standby deadline %v != leader %v", got, want)
	}
	if !reflect.DeepEqual(standby.State().Health, leader.State().Health) {
		t.Errorf("replayed health registry diverges:\n got %+v\nwant %+v",
			standby.State().Health, leader.State().Health)
	}

	// The same inheritance must hold across a snapshot install (the
	// cold-standby path).
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	cold := NewMachine()
	base, snap := leader.Snapshot()
	if err := cold.InstallSnapshot(base, snap); err != nil {
		t.Fatal(err)
	}
	if got := cold.State().HostDeadline("node01", factor, floor, cap); got != want {
		t.Errorf("snapshot-installed standby deadline %v != leader %v", got, want)
	}
	if !reflect.DeepEqual(cold.State().Health, leader.State().Health) {
		t.Errorf("snapshot-installed health registry diverges:\n got %+v\nwant %+v",
			cold.State().Health, leader.State().Health)
	}
}
