package main

import (
	"regexp"
	"strings"
	"testing"
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
// drain and refill as the MPI ranks' sockets) comes back, and the
// chunk store keeps its per-round GC accounting and restarts from the
// newest generation.
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
}
