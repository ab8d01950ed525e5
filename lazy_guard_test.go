package dmtcpsim_test

// Accounting guards for the lazy post-copy restore path: the resume
// pause and prefetch drain must partition the restart wall exactly,
// the five restart segments (prefetch included) must reconcile against
// restart.total within 1%, every demand fault must leave a span, the
// whole traced scenario must stay byte-deterministic, and a compressed
// tail must drain about as fast as an eager restore installs.

import (
	"bytes"
	"slices"
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

// restartCompressed checkpoints a 256 MB lazyapp on node1 through the
// gzip chunk store, replicated to two peers, kills it and restarts it
// on node0, which holds none of its chunks.  It returns the restart
// stats with the heap's chunk versions at the checkpoint and after the
// restart (after the drain, when lazy).
func restartCompressed(seed int64, lazy bool) (stats *dmtcpsim.RestartStages, want, got []uint64) {
	s := dmtcpsim.New(dmtcpsim.Options{Seed: seed, Nodes: 4,
		Checkpoint: dmtcpsim.Config{Compress: true, Store: true, ReplicaFactor: 2, LazyRestore: lazy}})
	s.Run(func(t *dmtcpsim.Task) {
		p, err := s.Launch(1, dmtcpsim.LazyAppName, "256")
		if err != nil {
			panic(err)
		}
		t.Compute(200 * time.Millisecond)
		dmtcpsim.TouchHeap(p, 0.3, uint64(seed))
		want = p.Mem.Area("[heap]").ChunkVersions()
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		s.Sys.Replica.WaitIdle(t)
		s.KillAll()
		if stats, err = s.Restart(t, round, dmtcpsim.Placement{"node01": 0}); err != nil {
			panic(err)
		}
		for _, rp := range s.Sys.ManagedProcesses() {
			if rp.Node.ID == 0 && rp.ProgName == dmtcpsim.LazyAppName {
				got = rp.Mem.Area("[heap]").ChunkVersions()
			}
		}
	})
	return stats, want, got
}

// TestLazyCompressedDrainsLikeEager guards the compressed post-copy
// tail: its installers gunzip on as many cores as the eager restore
// pipeline, so the lazy restart's Total (skeleton resume plus drain)
// stays within 1.3x of the eager restart's, while the process still
// resumes on the skeleton in under 10% of the eager MTTR, takes demand
// faults, and ends with the checkpointed heap.
func TestLazyCompressedDrainsLikeEager(t *testing.T) {
	const seed = 41
	eager, wantE, gotE := restartCompressed(seed, false)
	lazy, want, got := restartCompressed(seed, true)
	t.Logf("eager total %v; lazy total %v = pause %v + drain %v, %d demand faults",
		eager.Total, lazy.Total, lazy.ResumePause, lazy.PrefetchDrain, lazy.DemandFaults)
	if !slices.Equal(want, wantE) {
		t.Fatal("the eager and lazy runs checkpointed different heaps; same seed must mean same run")
	}
	if !slices.Equal(gotE, wantE) {
		t.Error("eager restart: heap chunk versions differ from the checkpointed ones")
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("lazy restart: heap chunk versions differ from the checkpointed ones (%d vs %d chunks)",
			len(got), len(want))
	}
	if lazy.Total > eager.Total*13/10 {
		t.Errorf("lazy restart total %v is %.2fx the eager %v, want <= 1.3x",
			lazy.Total, float64(lazy.Total)/float64(eager.Total), eager.Total)
	}
	if lazy.ResumePause > eager.Total/10 {
		t.Errorf("lazy resume pause %v is over 10%% of the eager restart %v", lazy.ResumePause, eager.Total)
	}
	if lazy.DemandFaults == 0 {
		t.Errorf("no demand faults on the compressed lazy restart: %+v", lazy)
	}
	if sum := lazy.ResumePause + lazy.PrefetchDrain; sum != lazy.Total {
		t.Errorf("pause %v + drain %v != total %v", lazy.ResumePause, lazy.PrefetchDrain, lazy.Total)
	}
}
