package dmtcpsim_test

// Accounting guards for the lazy post-copy restore path: the resume
// pause and prefetch drain must partition the restart wall exactly,
// the five restart segments (prefetch included) must reconcile against
// restart.total within 1%, every demand fault must leave a span, and
// the whole traced scenario must stay byte-deterministic.

import (
	"bytes"
	"testing"
	"time"

	dmtcpsim "repro"
	"repro/internal/kernel"
	"repro/internal/model"
)

// driveLazyTraced runs the canonical lazy-restore scenario — an
// uncompressed checkpoint replicated to three more holders, the
// process killed, a post-copy restart on cold node0 — and returns the
// restart stats and the tracer.
func driveLazyTraced(seed int64) (*dmtcpsim.RestartStages, *dmtcpsim.Tracer) {
	tr := dmtcpsim.NewTracer()
	s := dmtcpsim.New(dmtcpsim.Options{Seed: seed, Nodes: 5,
		Checkpoint: dmtcpsim.Config{Compress: false, Store: true, StoreKeep: 2,
			ReplicaFactor: 3, CkptWorkers: 4, LazyRestore: true},
		Tracer: tr})
	var stats *dmtcpsim.RestartStages
	s.Run(func(t *dmtcpsim.Task) {
		if _, err := s.Launch(1, dmtcpsim.LazyAppName, "96"); err != nil {
			panic(err)
		}
		t.Compute(200 * time.Millisecond)
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		s.Sys.Replica.WaitIdle(t)
		s.KillAll()
		if stats, err = s.Restart(t, round, dmtcpsim.Placement{"node01": 0}); err != nil {
			panic(err)
		}
	})
	return stats, tr
}

// TestLazyRestartSpanAccounting extends the restart partition guard to
// post-copy restarts: with the prefetch segment included, the five
// restart stages must still sum to restart.total within 1%, and the
// span args must agree with the stats RestartAll aggregated.
func TestLazyRestartSpanAccounting(t *testing.T) {
	stats, tr := driveLazyTraced(29)
	evs := tr.Events()
	totals := spansNamed(evs, "restart.total")
	if len(totals) != 1 {
		t.Fatalf("expected 1 restart.total span, got %d", len(totals))
	}
	rs := totals[0]
	var sum int64
	segs := []string{"restart.images", "restart.files", "restart.conns", "restart.procs", "restart.prefetch"}
	for _, name := range segs {
		for _, e := range spansNamed(evs, name) {
			if e.Pid == rs.Pid && e.Tid == rs.Tid {
				sum += int64(e.Dur)
			}
		}
	}
	if !within1pct(sum, int64(rs.Dur)) {
		t.Errorf("lazy restart segments sum %d ns != restart wall %d ns (>1%% off)", sum, rs.Dur)
	}

	prefetch := spansNamed(evs, "restart.prefetch")
	if len(prefetch) != 1 {
		t.Fatalf("expected 1 restart.prefetch span, got %d", len(prefetch))
	}
	if got := argVal(t, prefetch[0], "demand_faults"); got != int64(stats.DemandFaults) {
		t.Errorf("restart.prefetch demand_faults=%d, stats say %d", got, stats.DemandFaults)
	}
	if got := argVal(t, rs, "demand_bytes"); got != stats.DemandBytes {
		t.Errorf("restart.total demand_bytes=%d, stats say %d", got, stats.DemandBytes)
	}
	if got := argVal(t, rs, "prefetch_bytes"); got != stats.PrefetchBytes {
		t.Errorf("restart.total prefetch_bytes=%d, stats say %d", got, stats.PrefetchBytes)
	}

	// Every demand fault leaves a lazy.fault span on the restored
	// process's track, and the skeleton restore leaves its own span.
	if faults := spansNamed(evs, "lazy.fault"); len(faults) != stats.DemandFaults {
		t.Errorf("%d lazy.fault spans, stats report %d demand faults", len(faults), stats.DemandFaults)
	}
	if skel := spansNamed(evs, "restore.skeleton"); len(skel) != 1 {
		t.Errorf("expected 1 restore.skeleton span, got %d", len(skel))
	}
}

// TestLazyRestartStatsReconcile audits the satellite accounting fix:
// demand-fault bytes and prefetch bytes are reported separately, the
// resume pause plus the drain IS the restart total, and what remains
// of FetchedBytes after subtracting both is exactly the skeleton —
// positive and within the configured hot-chunk budget.
func TestLazyRestartStatsReconcile(t *testing.T) {
	stats, _ := driveLazyTraced(31)
	if stats.ResumePause <= 0 || stats.PrefetchDrain <= 0 {
		t.Fatalf("no pause/drain split: %+v", stats)
	}
	if got := stats.ResumePause + stats.PrefetchDrain; got != stats.Total {
		t.Errorf("pause %v + drain %v != total %v", stats.ResumePause, stats.PrefetchDrain, stats.Total)
	}
	if stats.DemandFaults == 0 || stats.DemandBytes <= 0 || stats.PrefetchBytes <= 0 {
		t.Fatalf("demand/prefetch accounting empty: %+v", stats)
	}
	skeleton := stats.FetchedBytes - stats.DemandBytes - stats.PrefetchBytes
	budget := int64(model.Default().LazySkeletonChunks) * kernel.CkptChunkBytes
	if skeleton <= 0 || skeleton > budget {
		t.Errorf("skeleton = fetched %d - demand %d - prefetch %d = %d, want in (0, %d]",
			stats.FetchedBytes, stats.DemandBytes, stats.PrefetchBytes, skeleton, budget)
	}
}

// TestLazyTraceDeterministic pins the new concurrent machinery — the
// striped pull stream, the background installer, fault preemption —
// to the engine's determinism contract: same seed, same bytes.
func TestLazyTraceDeterministic(t *testing.T) {
	_, tr1 := driveLazyTraced(37)
	_, tr2 := driveLazyTraced(37)
	b1, b2 := tr1.ChromeTrace(), tr2.ChromeTrace()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same lazy seed produced different traces: %d vs %d bytes", len(b1), len(b2))
	}
}
