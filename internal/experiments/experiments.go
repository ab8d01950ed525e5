// Package experiments regenerates every table and figure of the
// paper's evaluation (§5): per-application checkpoint/restart timings
// and image sizes (Fig. 3), distributed applications compressed vs.
// uncompressed (Fig. 4), ParGeant4 scalability on local and central
// storage (Fig. 5), checkpoint time vs. memory (Fig. 6), the
// checkpoint/restart stage breakdown (Table 1), plus the runCMS,
// sync-cost, DejaVu-comparison, and coordinator-scalability results
// quoted in the text.
//
// Each experiment builds a fresh simulated cluster per trial
// (different seeds produce the run-to-run variance the paper reports
// as error bars), drives the workload and the DMTCP session from an
// orchestration task, and returns a Table whose rows mirror the
// paper's series.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/dmtcp"
	"repro/internal/ipython"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sim"
	"repro/internal/topc"
)

// Tracing, when non-nil, is attached to every cluster NewEnv builds
// (each Env as a separate tracer run), so a bench driver can record
// spans across all trials of an experiment and attribute them back by
// run number afterwards.
var Tracing *obs.Tracer

// Opts controls experiment scale.
type Opts struct {
	// Trials per configuration (the paper uses 10).
	Trials int
	// Seed is the base random seed; trial i uses Seed+i.
	Seed int64
	// Quick shrinks cluster/footprint scale for smoke tests.
	Quick bool
}

// DefaultOpts mirrors the paper's methodology at a tractable scale.
// These are dmtcp-bench's defaults, which generate every committed
// BENCH_*.json.
func DefaultOpts() Opts { return Opts{Trials: 5, Seed: 1} }

func (o Opts) trials() int {
	if o.Trials <= 0 {
		return 1
	}
	return o.Trials
}

// Env is one simulated cluster wired with every workload and a DMTCP
// session.
type Env struct {
	Eng *sim.Engine
	C   *kernel.Cluster
	Sys *dmtcp.System
}

// NewEnv builds a cluster with all programs registered and the
// coordinator started.
func NewEnv(seed int64, nodes int, cfg dmtcp.Config) *Env {
	eng := sim.NewEngine(seed)
	params := model.Default()
	params.JitterPct = 0.06
	c := kernel.NewCluster(eng, params, nodes)
	if Tracing != nil {
		Tracing.BeginRun()
		c.Trace = Tracing
	}
	kernel.StartInfra(c)
	sys := dmtcp.Install(c, cfg)
	mpi.RegisterPrograms(c)
	npb.Register(c)
	topc.Register(c)
	ipython.Register(c)
	apps.Register(c)
	c.Register(DirtyAppName, dirtyProg{})
	c.Register(LazyAppName, lazyProg{})
	if err := sys.SpawnCoordinator(); err != nil {
		panic(err)
	}
	return &Env{Eng: eng, C: c, Sys: sys}
}

// Drive runs fn as an orchestration task on node 0 and stops the
// engine when it returns; it panics on simulation errors.
func (e *Env) Drive(fn func(*kernel.Task)) {
	e.C.RegisterFunc("exp-driver", func(task *kernel.Task, _ []string) {
		task.Compute(2 * time.Millisecond)
		fn(task)
		e.Eng.Stop()
	})
	if _, err := e.C.Node(0).Kern.Spawn("exp-driver", nil, nil); err != nil {
		panic(err)
	}
	if err := e.Eng.Run(); err != nil {
		panic(fmt.Sprintf("experiment run: %v", err))
	}
	e.Eng.Shutdown()
}

// awaitVerify waits up to 60 virtual seconds, idling, for rank 0 of
// the NAS job kernel (np ranks) to write its verify line on node 0,
// and panics unless the line equals what an uninterrupted run prints
// (npb.Kernel.FormatVerify): a stage time measured on a restart is
// reported only if the restarted job resumed and finished correctly.
func (e *Env) awaitVerify(task *kernel.Task, kernelName string, np int) {
	spec, ok := npb.SpecFor(kernelName)
	if !ok {
		panic(fmt.Sprintf("unknown NAS kernel %q", kernelName))
	}
	want := (&npb.Kernel{Spec: spec}).FormatVerify(np)
	path := "/out/" + kernelName + ".verify"
	fs := e.C.Node(0).FS
	for deadline := task.Now().Add(60 * time.Second); !fs.Exists(path); task.Idle(100 * time.Millisecond) {
		if task.Now() >= deadline {
			panic(fmt.Sprintf("restarted %s did not verify within 60 s", kernelName))
		}
	}
	ino, _ := fs.ReadFile(path)
	if got := string(ino.Data); got != want {
		panic(fmt.Sprintf("restarted %s printed %q, want %q", kernelName, got, want))
	}
}

// Sample accumulates trial measurements.
type Sample struct{ xs []float64 }

// Add records one measurement.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddDur records one duration in seconds.
func (s *Sample) AddDur(d time.Duration) { s.Add(d.Seconds()) }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 {
	if len(s.xs) < 2 {
		return 0
	}
	m := s.Mean()
	var v float64
	for _, x := range s.xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(s.xs)-1))
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// Metrics embeds stage-level aggregates (seconds, MB, counts) in
	// the benchmark's JSON output, so the perf trajectory records
	// where time went, not only the end-to-end numbers.
	Metrics map[string]float64 `json:",omitempty"`

	// CriticalPath is the blocking-chain analysis of every checkpoint
	// round and restart this experiment's trials recorded (present when
	// the bench driver ran with tracing enabled, e.g. -json).
	CriticalPath *analyze.Summary `json:"critical_path,omitempty"`
}

// Metric records one named stage-level aggregate on the table.
func (t *Table) Metric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = v
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		if i < len(t.Columns)-1 {
			b.WriteString("  ")
		}
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(t.Metrics) > 0 {
		keys := make([]string, 0, len(t.Metrics))
		for k := range t.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "metric: %s = %.4f\n", k, t.Metrics[k])
		}
	}
	return b.String()
}

// stageSamples accumulates per-stage checkpoint times across trials
// for a table's embedded metrics block.
type stageSamples struct {
	suspend, elect, drain, write, refill, total Sample
}

func (ss *stageSamples) add(st dmtcp.StageTimes) {
	ss.suspend.AddDur(st.Suspend)
	ss.elect.AddDur(st.Elect)
	ss.drain.AddDur(st.Drain)
	ss.write.AddDur(st.Write)
	ss.refill.AddDur(st.Refill)
	ss.total.AddDur(st.Total)
}

// metrics records the stage means on t under prefix ("ckpt" →
// "ckpt.write_s", ...).
func (ss *stageSamples) metrics(t *Table, prefix string) {
	t.Metric(prefix+".suspend_s", ss.suspend.Mean())
	t.Metric(prefix+".elect_s", ss.elect.Mean())
	t.Metric(prefix+".drain_s", ss.drain.Mean())
	t.Metric(prefix+".write_s", ss.write.Mean())
	t.Metric(prefix+".refill_s", ss.refill.Mean())
	t.Metric(prefix+".total_s", ss.total.Mean())
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func meanStd(s *Sample) string {
	return fmt.Sprintf("%.3f ±%.3f", s.Mean(), s.Std())
}

func mb(n int64) string { return fmt.Sprintf("%.1f", float64(n)/float64(model.MB)) }

// waitForFile polls the node store until path exists or the deadline
// passes.
func waitForFile(t *kernel.Task, n *kernel.Node, path string, d time.Duration) bool {
	deadline := t.Now().Add(d)
	for t.Now() < deadline {
		if n.FS.Exists(path) {
			return true
		}
		t.Compute(50 * time.Millisecond)
	}
	return n.FS.Exists(path)
}
