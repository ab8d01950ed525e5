// Command perfbench is the repository's end-to-end benchmark.  It drives
// one of three DMTCP workloads through the simulator's public API,
// checks every output, and prints two kinds of metric: modeled DMTCP
// performance in virtual seconds, which is a function of the seed, and
// the simulator's host cost, in seconds of a reference core
// (calibrate.go).  Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload mpi-lu --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics.  With --trace 1 every job runs twice, untraced
// and then traced with the same seed, under a CPU profile, and the JSON
// holds the per-layer metrics; the benchmark's own spans are written to
// <out>/spans/.  METRICS.md describes every metric and workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// maxRun stops a run from starting further jobs even when its passes
// are not complete, so a run that keeps hitting its guards still ends in
// bounded time; its metrics are then not comparable.  minPasses is the
// fewest passes an untraced run makes, so each job's host cost is the
// best of at least that many.
const (
	maxRun    = 100 * time.Second
	minPasses = 3
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 10, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1 runs every job untraced and traced and prints per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	)
	flag.Parse()
	// The simulator runs one virtual thread at a time.  A second P only
	// moves each handoff between OS threads, which makes host cost slower
	// and far noisier on a shared machine.
	runtime.GOMAXPROCS(1)
	w := findWorkload(*name)
	if w == nil || flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, notes, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func runJob(w *workload, seed int64, index int, traced bool) *job {
	j := &job{index: index, seed: seed, traced: traced}
	w.job(j)
	return j
}

// run measures w for the window and checks its outputs and determinism.
func run(w *workload, seed int64, window time.Duration, traced bool, out string) (*result, []string, error) {
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
	}
	// A pass runs the workload's core jobs in order.  Passes repeat until
	// the window is spent, and at least minPasses times, so each job's
	// host cost can be its best pass: a tenant that slows the machine for
	// a few seconds inflates one pass of a job, seldom all of them.  The
	// per-layer metrics need no best pass, so a traced run may stop after
	// one.
	start := time.Now()
	var plain, twins []*job
	clock.start(w.ref)
	need := minPasses
	if traced {
		need = 1
	}
	passes := 0
	for ; passes < need || time.Since(start) < window; passes++ {
		for i := 0; i < w.core && time.Since(start) < maxRun; i++ {
			if passes >= need && time.Since(start) >= window {
				break // only a traced run ends inside a pass
			}
			plain = append(plain, runJob(w, seed, i, false))
			if traced {
				twins = append(twins, runJob(w, seed, i, true))
			}
		}
		if time.Since(start) >= maxRun {
			break
		}
	}
	var notes []string
	if passes < need {
		notes = append(notes, fmt.Sprintf("only %d of %d passes ran within %v", passes, need, maxRun))
	}
	core := plain[:min(w.core, len(plain))]
	if traced {
		pprof.StopCPUProfile()
	}

	// The same seed must give the same virtual outputs: every job must
	// repeat its first pass, and in the traced run its untraced twin.
	checked := append(append([]*job(nil), plain...), twins...)
	var diffs []string
	for i, j := range plain[len(core):] {
		if d := diffRuns(core[i%len(core)], j); d != "" {
			diffs = append(diffs, d)
		}
	}
	for i := range twins {
		if d := diffRuns(plain[i], twins[i]); d != "" {
			diffs = append(diffs, d)
		}
	}

	res := &result{}
	var errs []string
	for _, j := range checked {
		res.Attempted += j.attempted
		res.Failed += j.failed
		errs = append(errs, j.errs...)
	}
	res.Correct = len(diffs) == 0 && res.Failed == 0
	for _, e := range append(diffs, errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", e)
	}

	if traced {
		shares, err := moduleShares(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = perLayer(core, plain, twins, shares)
		path, err := writeSpans(out, w.name, seed, twins)
		if err != nil {
			return nil, nil, err
		}
		notes = append(notes, "benchmark spans written to "+path)
	} else {
		var note string
		res.Metrics, note = endToEnd(core, plain)
		notes = append(notes, note)
	}
	notes = append(notes, fmt.Sprintf("%d passes of %d jobs, %d/%d operations failed",
		passes, len(core), res.Failed, res.Attempted))
	return res, notes, nil
}

// fingerprint lists a job's virtual-time outputs, which must repeat
// exactly for the same seed.
func fingerprint(j *job) []string {
	fp := []string{
		fmt.Sprintf("events=%d virtual=%v ops=%d/%d", j.events, j.virtual, j.failed, j.attempted),
		fmt.Sprintf("journal=%.3fKB lags=%v", j.journalKB, j.lags),
	}
	for i, r := range j.rounds {
		fp = append(fp, fmt.Sprintf("round %d: stages=%+v bytes=%d raw=%d dedup=%d overlap=%d entries=%d",
			i, r.Stages, r.Bytes, r.RawBytes, r.DedupBytes, r.OverlapBytes, r.entries))
	}
	for i, r := range j.restarts {
		fp = append(fp, fmt.Sprintf("restart %d: %+v", i, r.RestartStages))
	}
	return fp
}

// diffRuns reports the first difference between two runs of one job.
func diffRuns(a, b *job) string {
	fa, fb := fingerprint(a), fingerprint(b)
	for i := 0; i < max(len(fa), len(fb)); i++ {
		var x, y string
		if i < len(fa) {
			x = fa[i]
		}
		if i < len(fb) {
			y = fb[i]
		}
		if x != y {
			return fmt.Sprintf("job %d seed %d is not deterministic: %q then %q", a.index, a.seed, x, y)
		}
	}
	return ""
}

func writeSpans(dir, workload string, seed int64, jobs []*job) (string, error) {
	var spans []span
	for _, j := range jobs {
		spans = append(spans, j.spans...)
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, b, 0o644)
}
