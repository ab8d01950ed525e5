package main

import (
	"regexp"
	"strings"
	"testing"

	dmtcpsim "repro"
	"repro/internal/obs"
)

// scenarioOutput runs one scenario in process at the default cluster
// size and returns what it printed.
func scenarioOutput(run func(scenOpts)) string {
	var b strings.Builder
	run(scenOpts{nodes: 4, w: &b})
	return b.String()
}

// TestRestartScenarios pins the scenarios that check the restart path
// end to end: the restarted NAS/LU job prints the checksum an
// uninterrupted run yields, the VNC session (whose ptys ride the same
// drain and refill as the MPI ranks' sockets) comes back, the chunk
// store keeps its per-round GC accounting and restarts from the newest
// generation, the restore pipeline reports its baseline and every pool
// size, and a post-copy restart traces its skeleton, its faults, its
// prefetch drain and the tail's own install pool.
func TestRestartScenarios(t *testing.T) {
	t.Run("mpi", func(t *testing.T) {
		out := scenarioOutput(mpiScenario)
		got := regexp.MustCompile(`(?m)^(nas-lu VERIFIED .*)$`).FindStringSubmatch(out)
		want := regexp.MustCompile(`(?m)^expected: (.*)$`).FindStringSubmatch(out)
		if got == nil || want == nil || got[1] != want[1] {
			t.Errorf("restarted nas-lu did not print the expected verify line:\n%s", out)
		}
	})
	t.Run("vnc", func(t *testing.T) {
		if out := scenarioOutput(vnc); !regexp.MustCompile(`(?m)^session restored`).MatchString(out) {
			t.Errorf("vnc session not restored:\n%s", out)
		}
	})
	t.Run("store", func(t *testing.T) {
		out := scenarioOutput(storeScenario)
		var gc []string
		for _, m := range regexp.MustCompile(`(?m)^\s*(gc: .*)$`).FindAllStringSubmatch(out, -1) {
			gc = append(gc, m[1])
		}
		want := []string{
			"gc: 1 manifests, 265 live chunks, 0 swept (0 pruned)",
			"gc: 2 manifests, 291 live chunks, 0 swept (0 pruned)",
			"gc: 2 manifests, 291 live chunks, 26 swept (1 pruned)",
			"gc: 2 manifests, 291 live chunks, 26 swept (1 pruned)",
		}
		if strings.Join(gc, "\n") != strings.Join(want, "\n") {
			t.Errorf("gc lines = %q, want %q", gc, want)
		}
		if !regexp.MustCompile(`(?m)^restarted from manifest generation 4 `).MatchString(out) {
			t.Errorf("store scenario did not restart from manifest generation 4:\n%s", out)
		}
	})
	t.Run("restore", func(t *testing.T) {
		out := scenarioOutput(restoreScenario)
		if !regexp.MustCompile(`(?m)^  fetch-then-install baseline, 1 worker: restart +[0-9.]+m?s `).MatchString(out) {
			t.Errorf("restore scenario printed no fetch-then-install baseline:\n%s", out)
		}
		var workers []string
		for _, m := range regexp.MustCompile(`(?m)^  streamed, (\d+) worker\(s\): restart +[0-9.]+m?s  speedup [0-9.]+x `).FindAllStringSubmatch(out, -1) {
			workers = append(workers, m[1])
		}
		if strings.Join(workers, ",") != "1,2,4,8" {
			t.Errorf("streamed restore lines for %v workers, want 1, 2, 4 and 8:\n%s", workers, out)
		}
	})
	t.Run("lazy-restore", func(t *testing.T) {
		tr := dmtcpsim.NewTracer()
		var b strings.Builder
		lazyRestoreScenario(scenOpts{nodes: 4, tracer: tr, w: &b})
		if !regexp.MustCompile(`(?m)^resume pause [0-9.]+% of full-install MTTR; striped drain [0-9.]+x faster than one holder$`).MatchString(b.String()) {
			t.Errorf("lazy-restore scenario printed no summary line:\n%s", b.String())
		}
		spans := map[string]int{}
		var skeletons, installs []obs.Event
		for _, e := range tr.Events() {
			if e.Phase != 'X' {
				continue
			}
			spans[e.Name]++
			switch e.Name {
			case "restore.skeleton":
				skeletons = append(skeletons, e)
			case "restore.install":
				installs = append(installs, e)
			}
		}
		for _, want := range []string{"restore.skeleton", "lazy.fault", "restart.prefetch"} {
			if spans[want] == 0 {
				t.Errorf("lazy-restore trace has no %s span", want)
			}
		}
		// Each post-copy tail is a second run of the restore pipeline:
		// its install pool traces after its skeleton's restore ended.
		for _, sk := range skeletons {
			tail := 0
			for _, in := range installs {
				if in.Pid == sk.Pid && in.Ts >= sk.Ts+sk.Dur {
					tail++
				}
			}
			if tail == 0 {
				t.Errorf("no restore.install span from the post-copy tail after the skeleton at %v", sk.Ts)
			}
		}
	})
}

// traceScenario runs one scenario traced in process at the default
// cluster size and returns its trace and the set of event names in it.
func traceScenario(run func(scenOpts)) (*dmtcpsim.Tracer, map[string]bool) {
	tr := dmtcpsim.NewTracer()
	var b strings.Builder
	run(scenOpts{nodes: 4, tracer: tr, w: &b})
	names := map[string]bool{}
	for _, e := range tr.Events() {
		names[e.Name] = true
	}
	return tr, names
}

// TestHAScenarios pins the scenarios that drive coordinator HA over
// the journal.  zero-loss kills the coordinator mid-round: the standby
// replays the journal, takes over and resumes the round, whose
// blocking chain must still partition its wall, then re-fans the
// replicas out.  chaos partitions the leader away beside lossy links,
// bit rot and a node death: a healed link deposes it, and its writes
// are fenced.
func TestHAScenarios(t *testing.T) {
	t.Run("zero-loss", func(t *testing.T) {
		tr, names := traceScenario(zeroLossScenario)
		for _, want := range []string{"coord.resume", "coord.takeover", "coord.rebalance", "replica.repair"} {
			if !names[want] {
				t.Errorf("zero-loss trace has no %s event", want)
			}
		}
		resumed := map[int64]bool{}
		for _, e := range tr.Events() {
			for _, a := range e.Args {
				if e.Name == "coord.resume" && a.Key == "tag" {
					resumed[a.Val] = true
				}
			}
		}
		checked := 0
		for _, r := range dmtcpsim.AnalyzeTrace(tr).Rounds {
			if !resumed[r.Tag] {
				continue
			}
			var chain int64
			for _, s := range r.Stages {
				chain += s.WallNS
			}
			if d := chain - r.WallNS; r.WallNS <= 0 || max(d, -d)*100 > r.WallNS {
				t.Errorf("resumed round %d: blocking chain %d ns, round wall %d ns (more than 1%% apart)", r.Tag, chain, r.WallNS)
			}
			checked++
		}
		if checked == 0 {
			t.Error("no resumed round in the critical-path analysis")
		}
	})
	t.Run("chaos", func(t *testing.T) {
		_, names := traceScenario(chaosScenario)
		for _, want := range []string{"net.fault_injected", "net.fault_healed", "scrub.pass",
			"store.quarantine", "coord.takeover", "coord.resume", "coord.stepdown"} {
			if !names[want] {
				t.Errorf("chaos trace has no %s event", want)
			}
		}
	})
}
