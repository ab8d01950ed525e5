package dmtcp

import (
	"testing"
	"time"

	"repro/internal/coordstate"
	"repro/internal/mtcp"
	"repro/internal/sim"
	"repro/internal/store"
)

// recordHarness drives the in-process report path without a cluster:
// manager reports go straight to the System, arrival events straight
// to the coordinator's state machine.
type recordHarness struct {
	s  *System
	co *Coordinator
}

func newRecordHarness() *recordHarness {
	s := &System{reports: make(map[int64]map[string]*ckptReport), records: make(map[int64]*CkptRound)}
	return &recordHarness{s: s, co: &Coordinator{Sys: s, Mach: coordstate.NewMachine()}}
}

func (h *recordHarness) register(desc string) {
	h.co.Mach.Apply(coordstate.Event{Kind: coordstate.EvRegister, Desc: desc})
}

func (h *recordHarness) request(at time.Duration) {
	h.co.Mach.Apply(coordstate.Event{Kind: coordstate.EvCkptRequest, Now: sim.Time(at)})
}

// arrive reports one manager's arrival in process and journals it, as
// Manager.barrier and Coordinator.onBarrier do; res is nil except at
// the checkpointed barrier, where img places the image.
func (h *recordHarness) arrive(tag, cid int64, desc, name string, at time.Duration,
	img *coordstate.ImageInfo, res *mtcp.WriteResult) {
	h.s.reportBarrier(tag, desc, name, time.Millisecond, res)
	ev := coordstate.Event{Kind: coordstate.EvBarrier, Now: sim.Time(at), CID: cid,
		Barrier: name, RoundTag: tag}
	if res != nil {
		ev.Stage, ev.Image = time.Millisecond, img
	}
	h.co.Mach.Apply(ev)
}

// arriveAll walks one manager through every barrier of the round,
// reporting res at the checkpointed barrier (when non-nil).
func (h *recordHarness) arriveAll(tag, cid int64, desc string, at time.Duration,
	img *coordstate.ImageInfo, res *mtcp.WriteResult) {
	for _, name := range coordstate.Barriers {
		if name == coordstate.BarrierCheckpointed && res != nil {
			h.arrive(tag, cid, desc, name, at, img, res)
			continue
		}
		h.arrive(tag, cid, desc, name, at, nil, nil)
	}
}

// TestRoundRecordTable checks the round record Checkpoint returns: the
// replicated round joined with the reports its managers handed over in
// process.
func TestRoundRecordTable(t *testing.T) {
	img := &coordstate.ImageInfo{Host: "node00", Path: "/ckpt/img", Prog: "x", VirtPid: 1}
	desc := clientDesc("node00", "x", 1)
	tag := coordstate.RoundTag(0, 0)
	cases := []struct {
		name  string
		drive func(h *recordHarness)
		check func(t *testing.T, h *recordHarness, rounds []*CkptRound)
	}{
		{
			name: "full round completes and records images",
			drive: func(h *recordHarness) {
				h.register(desc)
				h.request(0)
				h.arriveAll(tag, 1, desc, 2*time.Second, img,
					&mtcp.WriteResult{Path: img.Path, Bytes: 100, RawBytes: 400})
			},
			check: func(t *testing.T, _ *recordHarness, rounds []*CkptRound) {
				if len(rounds) != 1 {
					t.Fatalf("rounds = %d", len(rounds))
				}
				r := rounds[0]
				if r.NumProcs != 1 || r.Bytes != 100 || r.RawBytes != 400 || len(r.Images) != 1 {
					t.Fatalf("round = %+v", r)
				}
				if r.Images[0].Bytes != 100 || r.Images[0].Path != img.Path {
					t.Fatalf("image = %+v", r.Images[0])
				}
				if r.Stages.Total != 2*time.Second {
					t.Fatalf("total = %v", r.Stages.Total)
				}
			},
		},
		{
			name: "duplicate arrival never double-counts the image",
			drive: func(h *recordHarness) {
				h.register(desc)
				h.register("node01/y[2]")
				h.request(0)
				res := &mtcp.WriteResult{Path: img.Path, Bytes: 100}
				// Re-sent across a reconnect: the report is handed twice.
				h.arrive(tag, 1, desc, coordstate.BarrierCheckpointed, 0, img, res)
				h.arriveAll(tag, 1, desc, 0, img, res)
				h.arriveAll(tag, 2, "node01/y[2]", 0, nil, nil)
			},
			check: func(t *testing.T, _ *recordHarness, rounds []*CkptRound) {
				if len(rounds) != 1 || len(rounds[0].Images) != 1 || rounds[0].Bytes != 100 {
					t.Fatalf("duplicate arrival double-counted: %+v", rounds)
				}
			},
		},
		{
			name: "round GC credits every covered round",
			drive: func(h *recordHarness) {
				h.request(0) // two empty rounds
				h.request(0)
				h.co.creditGC([]int{0, 1}, store.GCStats{Swept: 7, SweptBytes: 700})
			},
			check: func(t *testing.T, _ *recordHarness, rounds []*CkptRound) {
				for i := 0; i < 2; i++ {
					if rounds[i].GC == nil || rounds[i].GC.Swept != 7 {
						t.Fatalf("round %d GC = %+v", i, rounds[i].GC)
					}
				}
				rounds[0].GC.Swept = 99 // copies, not shared
				if rounds[1].GC.Swept != 7 {
					t.Fatal("GC stats aliased between rounds")
				}
			},
		},
		{
			name: "a report under a stale tag is never joined",
			drive: func(h *recordHarness) {
				h.register(desc)
				h.co.Mach.Apply(coordstate.Event{Kind: coordstate.EvTakeover, Leader: "node01", Epoch: 1})
				h.request(0)
				h.arriveAll(coordstate.RoundTag(1, 0), 1, desc, time.Second, img,
					&mtcp.WriteResult{Path: img.Path, Bytes: 100, RawBytes: 400})
				// A straggler still finishing a round the dead leader
				// never shipped reports late, under the old epoch's tag.
				h.s.reportBarrier(tag, desc, coordstate.BarrierCheckpointed, time.Hour,
					&mtcp.WriteResult{Path: img.Path, Bytes: 500, RawBytes: 500})
			},
			check: func(t *testing.T, h *recordHarness, rounds []*CkptRound) {
				r := rounds[0]
				if r.Bytes != 100 || r.RawBytes != 400 || r.Stages.Write != time.Millisecond {
					t.Fatalf("stale report joined: %+v", r)
				}
				if len(h.s.reports) != 0 {
					t.Fatalf("reports left after the join: %d tags", len(h.s.reports))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newRecordHarness()
			tc.drive(h)
			rounds := h.co.Rounds()
			tc.check(t, h, rounds)
			if again := h.co.Rounds(); len(again) > 0 && again[0] != rounds[0] {
				t.Fatal("round record is not stable across calls")
			}
		})
	}
}
