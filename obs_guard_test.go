package dmtcpsim_test

// Accounting guards for the observability layer: the trace is only
// trustworthy if its spans reconcile against the wall times the
// checkpoint and restart paths report, if counters respect their
// physical bounds, and if identical seeds produce byte-identical
// traces.  These tests drive a full traced scenario (two checkpoint
// generations through the replicated store, then a cross-node streamed
// restart) and audit the result.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	dmtcpsim "repro"
	"repro/internal/obs"
)

// driveTraced runs the canonical traced scenario and returns the two
// checkpoint rounds, the restart stats, and the tracer.
func driveTraced(seed int64, workers int, heapMB string) ([]*dmtcpsim.CkptRound, *dmtcpsim.RestartStages, *dmtcpsim.Tracer) {
	tr := dmtcpsim.NewTracer()
	s := dmtcpsim.New(dmtcpsim.Options{Seed: seed, Nodes: 3,
		Checkpoint: dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 2,
			ReplicaFactor: 1, CkptWorkers: workers},
		Tracer: tr})
	var rounds []*dmtcpsim.CkptRound
	var stats *dmtcpsim.RestartStages
	s.Run(func(t *dmtcpsim.Task) {
		if _, err := s.Launch(1, dmtcpsim.DirtyAppName, heapMB); err != nil {
			panic(err)
		}
		t.Compute(200 * time.Millisecond)
		r1, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		rounds = append(rounds, r1)
		for _, p := range s.Sys.ManagedProcesses() {
			dmtcpsim.TouchHeap(p, 0.25, 1)
		}
		t.Compute(50 * time.Millisecond)
		r2, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		rounds = append(rounds, r2)
		s.Sys.Replica.WaitIdle(t)
		s.KillAll()
		if stats, err = s.Restart(t, r2, dmtcpsim.Placement{"node01": 0}); err != nil {
			panic(err)
		}
	})
	return rounds, stats, tr
}

func spansNamed(evs []obs.Event, name string) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Phase == 'X' && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

func argVal(t *testing.T, e obs.Event, key string) int64 {
	t.Helper()
	for _, a := range e.Args {
		if a.Key == key {
			return a.Val
		}
	}
	t.Fatalf("span %q missing arg %q", e.Name, key)
	return 0
}

// within1pct reports whether got reconciles against want within 1%.
func within1pct(got, want int64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff*100 <= want
}

func TestTraceDeterministic(t *testing.T) {
	_, _, tr1 := driveTraced(7, 4, "48")
	_, _, tr2 := driveTraced(7, 4, "48")
	b1, b2 := tr1.ChromeTrace(), tr2.ChromeTrace()
	if !json.Valid(b1) {
		t.Fatalf("trace is not valid JSON")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different traces: %d vs %d bytes", len(b1), len(b2))
	}
}

func TestNoSpanEndsBeforeItStarts(t *testing.T) {
	_, _, tr := driveTraced(3, 4, "48")
	for _, e := range tr.Events() {
		if e.Phase == 'X' && e.Dur < 0 {
			t.Errorf("span %s/%s at %d has negative duration %d", e.Cat, e.Name, e.Ts, e.Dur)
		}
	}
}

// TestCkptSpanAccounting checks the round-reconciliation guard: the
// five stage spans of a checkpoint round partition the round span, so
// their summed exclusive time must equal the round wall time within 1%.
func TestCkptSpanAccounting(t *testing.T) {
	rounds, _, tr := driveTraced(11, 4, "48")
	evs := tr.Events()
	roundSpans := spansNamed(evs, "ckpt.round")
	if len(roundSpans) != len(rounds) {
		t.Fatalf("expected %d ckpt.round spans, got %d", len(rounds), len(roundSpans))
	}
	stages := []string{"ckpt.suspend", "ckpt.elect", "ckpt.drain", "ckpt.write", "ckpt.refill"}
	for i, rs := range roundSpans {
		var sum int64
		for _, name := range stages {
			for _, e := range spansNamed(evs, name) {
				if e.Pid == rs.Pid && e.Tid == rs.Tid &&
					e.Ts >= rs.Ts && e.Ts.Add(time.Duration(e.Dur)) <= rs.Ts.Add(time.Duration(rs.Dur)) {
					sum += int64(e.Dur)
				}
			}
		}
		if !within1pct(sum, int64(rs.Dur)) {
			t.Errorf("round %d: stage spans sum %d ns != round wall %d ns (>1%% off)", i, sum, rs.Dur)
		}
	}
}

// TestRestartSpanAccounting checks the restart side of the guard: the
// four restart segments partition restart.total within 1%.
func TestRestartSpanAccounting(t *testing.T) {
	_, _, tr := driveTraced(13, 4, "48")
	evs := tr.Events()
	totals := spansNamed(evs, "restart.total")
	if len(totals) != 1 {
		t.Fatalf("expected 1 restart.total span, got %d", len(totals))
	}
	rs := totals[0]
	var sum int64
	for _, name := range []string{"restart.images", "restart.files", "restart.conns", "restart.procs"} {
		for _, e := range spansNamed(evs, name) {
			if e.Pid == rs.Pid && e.Tid == rs.Tid {
				sum += int64(e.Dur)
			}
		}
	}
	if !within1pct(sum, int64(rs.Dur)) {
		t.Errorf("restart segments sum %d ns != restart wall %d ns (>1%% off)", sum, rs.Dur)
	}
}

// TestRoundAndRestartInvariants audits the stats structures the spans
// are derived from, table-driven over every round plus the restart.
func TestRoundAndRestartInvariants(t *testing.T) {
	rounds, stats, _ := driveTraced(17, 4, "48")
	maxDur := func(ds ...time.Duration) time.Duration {
		var m time.Duration
		for _, d := range ds {
			if d > m {
				m = d
			}
		}
		return m
	}
	for i, r := range rounds {
		r := r
		t.Run(map[int]string{0: "round1", 1: "round2"}[i], func(t *testing.T) {
			if m := maxDur(r.Stages.Suspend, r.Stages.Elect, r.Stages.Drain,
				r.Stages.Write, r.Stages.Refill); r.Stages.Total < m {
				t.Errorf("round total %v < max stage %v", r.Stages.Total, m)
			}
			if r.OverlapBytes < 0 || r.OverlapBytes > r.Bytes+r.DedupBytes {
				t.Errorf("round overlap %d outside [0, written+dedup=%d]",
					r.OverlapBytes, r.Bytes+r.DedupBytes)
			}
		})
	}
	t.Run("restart", func(t *testing.T) {
		if m := maxDur(stats.Files, stats.Conns, stats.Memory,
			stats.Refill, stats.Fetch); stats.Total < m {
			t.Errorf("restart total %v < max stage %v", stats.Total, m)
		}
		if stats.FetchedBytes <= 0 {
			t.Fatalf("cross-node restart fetched nothing")
		}
		if stats.OverlapBytes < 0 || stats.OverlapBytes > stats.FetchedBytes {
			t.Errorf("restore overlap %d outside [0, fetched=%d]",
				stats.OverlapBytes, stats.FetchedBytes)
		}
	})
}

// TestCriticalPathReconciliation is the analyzer-side round guard: the
// blocking chain's stage walls must sum to each round's (and each
// restart's) global wall within 1%, every round the scenario ran must
// be analyzed, and straggler scores must be positive where defined.
func TestCriticalPathReconciliation(t *testing.T) {
	rounds, _, tr := driveTraced(19, 4, "48")
	sum := dmtcpsim.AnalyzeTrace(tr)
	if len(sum.Rounds) != len(rounds) {
		t.Fatalf("analyzer found %d rounds, scenario ran %d", len(sum.Rounds), len(rounds))
	}
	if len(sum.Restarts) != 1 {
		t.Fatalf("analyzer found %d restarts, scenario ran 1", len(sum.Restarts))
	}
	for i, r := range sum.Rounds {
		var chain int64
		for _, s := range r.Stages {
			if s.WallNS < 0 {
				t.Errorf("round %d stage %s: negative wall %d", i, s.Stage, s.WallNS)
			}
			if s.Host == "" {
				t.Errorf("round %d stage %s: no blocking host attributed", i, s.Stage)
			}
			chain += s.WallNS
		}
		if !within1pct(chain, r.WallNS) {
			t.Errorf("round %d: blocking chain %d ns != round wall %d ns (>1%% off)",
				i, chain, r.WallNS)
		}
		for _, n := range r.Nodes {
			if n.Straggler < 0 {
				t.Errorf("round %d node %s: negative straggler score %f", i, n.Host, n.Straggler)
			}
		}
	}
	for i, r := range sum.Restarts {
		var chain int64
		for _, s := range r.Stages {
			chain += s.WallNS
		}
		if !within1pct(chain, r.WallNS) {
			t.Errorf("restart %d: blocking chain %d ns != restart wall %d ns (>1%% off)",
				i, chain, r.WallNS)
		}
	}
}

// TestQuickBenchCriticalPaths is the critical-path check over the
// quick-scale bench tables (dmtcp-bench -run store,table1,failover,
// coordha,pipeline,restore,restorelazy,chaos -trials 1 -quick -json):
// every table carries a critical_path block with analyzed rounds, and
// each round's blocking chain sums to its wall within 1%.  Table 1's
// compressed write overlaps its page-cache writes with gzip, so its
// write stage is one of the chains this covers.
func TestQuickBenchCriticalPaths(t *testing.T) {
	ids := []string{"store", "table1", "failover", "coordha", "pipeline", "restore", "restorelazy", "chaos"}
	tables := dmtcpsim.Regenerate(ids, dmtcpsim.Opts{Trials: 1, Seed: 1, Quick: true}, dmtcpsim.NewTracer(), nil)
	if len(tables) != len(ids) {
		t.Fatalf("%d tables for %d experiments", len(tables), len(ids))
	}
	checked := 0
	for _, tab := range tables {
		cp := tab.CriticalPath
		if cp == nil || len(cp.Rounds) == 0 {
			t.Errorf("table %s: no critical_path rounds", tab.ID)
			continue
		}
		for i, r := range cp.Rounds {
			var chain int64
			for _, s := range r.Stages {
				chain += s.WallNS
			}
			if r.WallNS <= 0 || !within1pct(chain, r.WallNS) {
				t.Errorf("table %s round %d: blocking chain %d ns != round wall %d ns (>1%% off)",
					tab.ID, i, chain, r.WallNS)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no rounds analyzed")
	}
}

// TestCriticalPathDeterministic pins the analyzer's byte-determinism:
// the same seed must analyze to the same JSON, and annotating flow
// arrows must leave the span analysis unchanged.
func TestCriticalPathDeterministic(t *testing.T) {
	_, _, tr1 := driveTraced(23, 4, "48")
	_, _, tr2 := driveTraced(23, 4, "48")
	j1, err := json.Marshal(dmtcpsim.AnalyzeTrace(tr1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(dmtcpsim.AnalyzeTrace(tr2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed analyzed differently:\n%s\nvs\n%s", j1, j2)
	}
	dmtcpsim.AnnotateFlows(tr2)
	j3, err := json.Marshal(dmtcpsim.AnalyzeTrace(tr2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j3) {
		t.Fatalf("flow annotation changed the analysis")
	}
}

// TestEffectiveRestoreWorkers pins the satellite fix: when the image
// has fewer chunks than the configured pool, RestartStages.Workers
// must report the pool that actually ran, not the config value — and
// it must agree with the restore.pipeline span.
func TestEffectiveRestoreWorkers(t *testing.T) {
	const configured = 32
	_, stats, tr := driveTraced(5, configured, "1")
	pipes := spansNamed(tr.Events(), "restore.pipeline")
	if len(pipes) != 1 {
		t.Fatalf("expected 1 restore.pipeline span, got %d", len(pipes))
	}
	chunks := argVal(t, pipes[0], "chunks")
	if chunks >= configured {
		t.Fatalf("test premise broken: tiny image has %d chunks >= %d workers", chunks, configured)
	}
	if int64(stats.Workers) != chunks {
		t.Errorf("RestartStages.Workers = %d, want effective pool %d (config %d)",
			stats.Workers, chunks, configured)
	}
	if got := argVal(t, pipes[0], "workers"); got != int64(stats.Workers) {
		t.Errorf("restore.pipeline span reports workers=%d, stats say %d", got, stats.Workers)
	}
}
