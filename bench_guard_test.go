package dmtcpsim

// Regression guards over the committed benchmark artifacts.  CI runs
// these with the ordinary test suite, so a change that silently
// regresses the committed pipeline numbers — or regenerates them with
// a regression baked in — fails the build.

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

// loadBenchTable reads one committed BENCH_*.json artifact.
func loadBenchTable(t *testing.T, path, id string) *Table {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing committed artifact %s: %v", path, err)
	}
	var tables []*Table
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, tab := range tables {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("%s holds no table %q", path, id)
	return nil
}

// col returns the index of a named column.
func col(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q", tab.ID, name)
	return -1
}

// ratio parses a "3.96x" cell.
func ratio(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return f
}

// mean parses the leading mean out of a "0.220 ±0.004" cell.
func mean(t *testing.T, cell string) float64 {
	t.Helper()
	first, _, _ := strings.Cut(strings.TrimSpace(cell), " ")
	f, err := strconv.ParseFloat(first, 64)
	if err != nil {
		t.Fatalf("bad mean±std cell %q: %v", cell, err)
	}
	return f
}

// TestBenchRestoreGuard pins the committed BENCH_restore.json
// acceptance floor:
//
//   - streaming may never lose to the serial fetch-then-install
//     baseline (speedup >= 1.0 at every worker count, and >= 1.0
//     against the same-worker-count serial column);
//   - the 4-worker streamed remote-fetch restart is >= 2x the 1-worker
//     fetch-then-install path (the headline acceptance criterion);
//   - 8 workers on 4 cores show no real further speedup over 4.
func TestBenchRestoreGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_restore.json", "restore")
	cWorkers := col(t, tab, "workers")
	cSpeedup := col(t, tab, "speedup")
	cVsFI := col(t, tab, "vs f+i")

	speedups := map[string]float64{}
	for _, row := range tab.Rows {
		sp := ratio(t, row[cSpeedup])
		if sp < 1.0 {
			t.Errorf("workers %s: streamed speedup %.2f < 1.0", row[cWorkers], sp)
		}
		if vf := ratio(t, row[cVsFI]); vf < 1.0 {
			t.Errorf("workers %s: streamed %.2fx vs same-width fetch-then-install, want >= 1.0",
				row[cWorkers], vf)
		}
		speedups[row[cWorkers]] = sp
	}
	if speedups["4"] == 0 {
		t.Fatal("no 4-worker row committed")
	}
	if speedups["4"] < 2.0 {
		t.Errorf("4-worker streamed restart %.2fx vs 1-worker fetch-then-install, want >= 2x", speedups["4"])
	}
	if w8 := speedups["8"]; w8 != 0 && w8 > speedups["4"]*1.10 {
		t.Errorf("8 workers on 4 cores sped up %.2fx over 4 workers' %.2fx: core accounting leak",
			w8, speedups["4"])
	}
}

// TestBenchPipelineGuard pins the committed BENCH_pipeline.json
// acceptance floor:
//
//   - no speedup cell may regress below 1.0 (more workers can never be
//     slower than the serial path);
//   - the 4-worker 100%-dirty checkpoint is >= 2.5x the serial path;
//   - 100%-dirty incremental is >= 1.0x the full rewrite at every
//     worker count (the old serial path was 0.9x — slower);
//   - 8 workers on 4 cores show no real further speedup over 4 (the
//     core accounting is honest; a few percent of extra compute/IO
//     overlap is the tolerance).
func TestBenchPipelineGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_pipeline.json", "pipeline")
	cDirty := col(t, tab, "dirty %")
	cWorkers := col(t, tab, "workers")
	cSpeedup := col(t, tab, "speedup")
	cVsFull := col(t, tab, "vs full")

	speedups := map[string]map[string]float64{} // dirty → workers → speedup
	for _, row := range tab.Rows {
		sp := ratio(t, row[cSpeedup])
		if sp < 1.0 {
			t.Errorf("dirty %s%% workers %s: speedup %.2f < 1.0", row[cDirty], row[cWorkers], sp)
		}
		if row[cDirty] == "100" {
			if vf := ratio(t, row[cVsFull]); vf < 1.0 {
				t.Errorf("dirty 100%% workers %s: incremental %.2fx vs full rewrite, want >= 1.0",
					row[cWorkers], vf)
			}
		}
		if speedups[row[cDirty]] == nil {
			speedups[row[cDirty]] = map[string]float64{}
		}
		speedups[row[cDirty]][row[cWorkers]] = sp
	}
	d100 := speedups["100"]
	if d100 == nil || d100["4"] == 0 {
		t.Fatal("no 100 percent dirty 4-worker row committed")
	}
	if d100["4"] < 2.5 {
		t.Errorf("4-worker 100%%-dirty speedup %.2fx, want >= 2.5x", d100["4"])
	}
	if w8 := d100["8"]; w8 != 0 && w8 > d100["4"]*1.10 {
		t.Errorf("8 workers on 4 cores sped up %.2fx over 4 workers' %.2fx: core accounting leak",
			w8, d100["4"])
	}

	// Straggler response: the health plane's worker hint must beat the
	// no-telemetry baseline on the slow-node round by a clear margin.
	slow := speedups["slow3x"]
	if slow == nil || slow["auto+hint"] == 0 {
		t.Fatal("no slow3x auto+hint row committed")
	}
	if slow["auto+hint"] < 1.5 {
		t.Errorf("slow3x auto+hint speedup %.2fx over the no-telemetry baseline, want >= 1.5x",
			slow["auto+hint"])
	}
	base, hint := tab.Metrics["straggler.base_write_s"], tab.Metrics["straggler.hint_write_s"]
	if base == 0 || hint == 0 {
		t.Fatal("straggler metrics missing from committed artifact")
	}
	if hint >= base {
		t.Errorf("straggler hint write %.3fs >= baseline %.3fs: response path bought nothing", hint, base)
	}
}

// TestBenchRestoreLazyGuard pins the committed lazy post-copy curve in
// BENCH_restore.json:
//
//   - the resume pause is near-constant in image size: the largest
//     image's pause is <= 1.5x the smallest's, while the full-install
//     MTTR keeps scaling with the image;
//   - at 256 MB the skeleton resume costs <= 10% of the full-install
//     restart (the headline acceptance criterion);
//   - the drain striped across all four complete holders beats the
//     single-holder pull by >= 1.8x at every size.
func TestBenchRestoreLazyGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_restore.json", "restore_lazy")
	cMB := col(t, tab, "image MB")
	cFull := col(t, tab, "streamed MTTR (s)")
	cPause := col(t, tab, "resume pause (s)")
	cStripe := col(t, tab, "stripe speedup")

	if len(tab.Rows) < 2 {
		t.Fatalf("restore_lazy table has %d rows, want a size sweep", len(tab.Rows))
	}
	var pauses, fulls []float64
	for _, row := range tab.Rows {
		if sp := ratio(t, row[cStripe]); sp < 1.8 {
			t.Errorf("%s MB: striped drain %.2fx vs single holder, want >= 1.8x", row[cMB], sp)
		}
		pauses = append(pauses, mean(t, row[cPause]))
		fulls = append(fulls, mean(t, row[cFull]))
	}
	first, last := pauses[0], pauses[len(pauses)-1]
	if first <= 0 || last > first*1.5 {
		t.Errorf("resume pause grew %.3fs -> %.3fs across the size sweep, want <= 1.5x", first, last)
	}
	if fulls[len(fulls)-1] < fulls[0]*2 {
		t.Errorf("full-install MTTR %.3fs -> %.3fs does not scale with image size: lazy has nothing to buy",
			fulls[0], fulls[len(fulls)-1])
	}
	saw256 := false
	for i, row := range tab.Rows {
		if row[cMB] != "256" {
			continue
		}
		saw256 = true
		if frac := pauses[i] / fulls[i]; frac > 0.10 {
			t.Errorf("256 MB resume pause %.3fs is %.1f%% of the %.3fs full-install MTTR, want <= 10%%",
				pauses[i], frac*100, fulls[i])
		}
	}
	if !saw256 {
		t.Error("no 256 MB row committed; the <=10%% pause criterion is unverified")
	}
	if g := tab.Metrics["lazy.pause_growth"]; g == 0 || g > 1.5 {
		t.Errorf("lazy.pause_growth metric = %v, want in (0, 1.5]", g)
	}
}

// TestBenchStoreGuard pins the committed BENCH_store.json claims that
// the README's store table and the table notes make:
//
//   - a clean (0% dirty) generation costs under 1% of a full rewrite:
//     only the manifest is written;
//   - incremental time and bytes rise with the dirty fraction, and the
//     dedup share falls;
//   - only dirty chunks are written: for dirty > 0, incr MB/gen is at
//     most dirty % of full MB/gen;
//   - 100% dirty converges on the full rewrite from below.
func TestBenchStoreGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_store.json", "store")
	cDirty := col(t, tab, "dirty %/gen")
	cFull := col(t, tab, "full ckpt (s)")
	cIncr := col(t, tab, "incr ckpt (s)")
	cFullMB := col(t, tab, "full MB/gen")
	cIncrMB := col(t, tab, "incr MB/gen")
	cDedup := col(t, tab, "dedup %")

	if len(tab.Rows) < 2 {
		t.Fatalf("store table has %d rows, want a dirty-rate sweep", len(tab.Rows))
	}
	var prev []string
	for _, row := range tab.Rows {
		dirty := mean(t, row[cDirty])
		full, incr := mean(t, row[cFull]), mean(t, row[cIncr])
		fullMB, incrMB := mean(t, row[cFullMB]), mean(t, row[cIncrMB])
		switch {
		case dirty == 0:
			if incr >= full*0.01 {
				t.Errorf("0%% dirty: incremental %.3fs is not under 1%% of the %.3fs full rewrite", incr, full)
			}
		case incrMB > dirty/100*fullMB:
			t.Errorf("%s%% dirty: incr %.1f MB/gen exceeds %s%% of the %.1f MB full image",
				row[cDirty], incrMB, row[cDirty], fullMB)
		}
		if dirty == 100 && (incr > full || incrMB > fullMB) {
			t.Errorf("100%% dirty: incremental %.3fs / %.1f MB exceeds the full rewrite's %.3fs / %.1f MB",
				incr, incrMB, full, fullMB)
		}
		if prev != nil {
			if mean(t, prev[cDirty]) >= dirty {
				t.Fatalf("rows not sorted by dirty %%: %s after %s", row[cDirty], prev[cDirty])
			}
			if mean(t, prev[cIncr]) >= incr || mean(t, prev[cIncrMB]) >= incrMB {
				t.Errorf("%s%% dirty: incremental %.3fs / %.1f MB does not rise from %s%%'s %s / %s",
					row[cDirty], incr, incrMB, prev[cDirty], prev[cIncr], prev[cIncrMB])
			}
			if mean(t, prev[cDedup]) <= mean(t, row[cDedup]) {
				t.Errorf("%s%% dirty: dedup %s%% does not fall from %s%%'s %s%%",
					row[cDirty], row[cDedup], prev[cDirty], prev[cDedup])
			}
		}
		prev = row
	}
}

// TestBenchFailoverGuard pins the committed BENCH_failover.json claims
// that the README and the table notes make:
//
//   - recovery restarted the lost process in every trial at every
//     replication factor;
//   - replication is dedup-aware and factor-linear: first-generation
//     and incremental replication bytes are within 2% of replicas
//     times the 1-replica row;
//   - recovery fetches nothing: the restart target already holds the
//     replicas.
func TestBenchFailoverGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_failover.json", "failover")
	cReplicas := col(t, tab, "replicas")
	cGen1 := col(t, tab, "gen1 repl MB")
	cIncr := col(t, tab, "incr repl MB/gen")
	cFetched := col(t, tab, "fetched MB")
	cRecovered := col(t, tab, "recovered")

	var gen1, incr float64 // the 1-replica row
	for _, row := range tab.Rows {
		if row[cReplicas] == "1" {
			gen1, incr = mean(t, row[cGen1]), mean(t, row[cIncr])
		}
	}
	if gen1 <= 0 || incr <= 0 {
		t.Fatal("no 1-replica row with positive replication bytes committed")
	}
	within := func(got, want float64) bool { return got >= want*0.98 && got <= want*1.02 }
	for _, row := range tab.Rows {
		if num, den, ok := strings.Cut(row[cRecovered], "/"); !ok || num != den {
			t.Errorf("replicas %s: recovered %q, want every trial", row[cReplicas], row[cRecovered])
		}
		k := mean(t, row[cReplicas])
		if g := mean(t, row[cGen1]); !within(g, k*gen1) {
			t.Errorf("replicas %s: gen1 repl %.1f MB, want %.1f ±2%% (%s x the 1-replica row)",
				row[cReplicas], g, k*gen1, row[cReplicas])
		}
		if g := mean(t, row[cIncr]); !within(g, k*incr) {
			t.Errorf("replicas %s: incr repl %.1f MB/gen, want %.1f ±2%% (%s x the 1-replica row)",
				row[cReplicas], g, k*incr, row[cReplicas])
		}
		if row[cFetched] != "0.00" {
			t.Errorf("replicas %s: recovery fetched %s MB, want 0.00 (target holds the replicas)",
				row[cReplicas], row[cFetched])
		}
	}
}

// TestBenchChaosGuard pins the committed BENCH_chaos.json robustness
// claims:
//
//   - every injected fault recovered and every whole schedule survived
//     (all "recovered" cells are N/N);
//   - a leader-isolating partition loses zero checkpoint rounds — the
//     promoted standby resumes the in-flight round every time;
//   - the scrubber detected every bit flip without a reader touching
//     the data, with a measured, positive detection latency;
//   - node death recovered with a measured, positive MTTR, and the
//     leader takeover under partition completed inside the static
//     detection + election budget.
func TestBenchChaosGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_chaos.json", "chaos")
	cFault := col(t, tab, "fault")
	cRecovered := col(t, tab, "recovered")
	cLatency := col(t, tab, "latency (s)")

	for _, row := range tab.Rows {
		if num, den, ok := strings.Cut(row[cRecovered], "/"); !ok || num != den {
			t.Errorf("%s: recovered %q, want all injections recovered", row[cFault], row[cRecovered])
		}
		switch row[cFault] {
		case "partition leader":
			p := model.Default()
			budget := (p.FailureDetectDelay + p.ElectionTimeout).Seconds()
			if take := mean(t, row[cLatency]); take <= 0 || take >= budget {
				t.Errorf("leader takeover under partition %.3fs, want in (0, %.3fs) (detect+election budget)",
					take, budget)
			}
		case "bit rot":
			if d := mean(t, row[cLatency]); d <= 0 {
				t.Errorf("scrub detection latency %.3fs, want > 0 (never measured)", d)
			}
		case "node death":
			if mttr := mean(t, row[cLatency]); mttr <= 0 {
				t.Errorf("MTTR %.3fs, want > 0 (never measured)", mttr)
			}
		}
	}
	if tr := tab.Metrics["chaos.trials"]; tr <= 0 {
		t.Fatalf("chaos.trials metric = %v, want > 0", tr)
	}
	if s, tr := tab.Metrics["chaos.survived"], tab.Metrics["chaos.trials"]; s != tr {
		t.Errorf("chaos.survived metric = %v, want every trial (%v)", s, tr)
	}
	if rl := tab.Metrics["chaos.rounds_lost"]; rl != 0 {
		t.Errorf("chaos.rounds_lost metric = %v, want 0", rl)
	}
	if d := tab.Metrics["chaos.scrub_detect_s"]; d <= 0 {
		t.Errorf("chaos.scrub_detect_s metric = %v, want > 0", d)
	}
	if m := tab.Metrics["chaos.mttr_s"]; m <= 0 {
		t.Errorf("chaos.mttr_s metric = %v, want > 0", m)
	}
}

// TestBenchCoordHAGuard pins the committed BENCH_coordha.json adaptive
// failure-detector claims:
//
//   - adaptive takeover beats the static path on every row, and on a
//     quiet network it completes strictly inside the static budget of
//     FailureDetectDelay + ElectionTimeout;
//   - the loaded-network probe recorded zero false-positive takeovers
//     (the phi deadline only ever widens under load);
//   - every trial's workload survived the takeover.
//
// It also pins the zero-loss control-plane claims:
//
//   - a mid-round coordinator kill loses zero rounds — the promoted
//     standby resumes and completes the in-flight round in every trial;
//   - replica re-fan-out after a holder death completes with a
//     measured, positive rebalance time;
//   - a checkpoint round taken while the QoS-paced repair is shipping
//     costs at most 10% more than the undisturbed baseline.
func TestBenchCoordHAGuard(t *testing.T) {
	tab := loadBenchTable(t, "BENCH_coordha.json", "coordha")
	cTake := col(t, tab, "takeover (s)")
	cStatic := col(t, tab, "static takeover (s)")
	cFalse := col(t, tab, "false+ (loaded)")
	cLost := col(t, tab, "rounds lost")
	cRebal := col(t, tab, "rebalance (s)")
	cSurvived := col(t, tab, "survived")

	p := model.Default()
	budget := (p.FailureDetectDelay + p.ElectionTimeout).Seconds()
	for _, row := range tab.Rows {
		adaptive, static := mean(t, row[cTake]), mean(t, row[cStatic])
		if adaptive >= static {
			t.Errorf("standbys %s: adaptive takeover %.3fs >= static %.3fs", row[0], adaptive, static)
		}
		if adaptive >= budget {
			t.Errorf("standbys %s: adaptive takeover %.3fs >= static budget %.3fs (detect+election)",
				row[0], adaptive, budget)
		}
		if num, _, ok := strings.Cut(row[cFalse], "/"); !ok || num != "0" {
			t.Errorf("standbys %s: false-positive takeovers %q under load, want 0/N", row[0], row[cFalse])
		}
		if num, _, ok := strings.Cut(row[cLost], "/"); !ok || num != "0" {
			t.Errorf("standbys %s: rounds lost on takeover %q, want 0/N", row[0], row[cLost])
		}
		if rb := mean(t, row[cRebal]); rb <= 0 {
			t.Errorf("standbys %s: rebalance time %.3fs, want > 0 (re-fan-out never measured)", row[0], rb)
		}
		if num, den, ok := strings.Cut(row[cSurvived], "/"); !ok || num != den {
			t.Errorf("standbys %s: survived %q, want all trials", row[0], row[cSurvived])
		}
	}
	if fp := tab.Metrics["coordha.false_takeovers"]; fp != 0 {
		t.Errorf("coordha.false_takeovers metric = %v, want 0", fp)
	}
	if rl := tab.Metrics["coordha.rounds_lost"]; rl != 0 {
		t.Errorf("coordha.rounds_lost metric = %v, want 0", rl)
	}
	if rb := tab.Metrics["coordha.rebalance_s"]; rb <= 0 {
		t.Errorf("coordha.rebalance_s metric = %v, want > 0", rb)
	}
	if ratio := tab.Metrics["coordha.repair_ckpt_ratio"]; ratio <= 0 || ratio > 1.10 {
		t.Errorf("coordha.repair_ckpt_ratio metric = %v, want in (0, 1.10]: repair pacing must not cost a concurrent round more than 10%%", ratio)
	}
}
