// Command dmtcp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dmtcp-bench [-run id] [-trials n] [-quick] [-list] [-json]
//	            [-trace out.json] [-report]
//
// Experiment ids: fig3, fig4, fig5a, fig5b, fig6, table1, runcms,
// sync, forked, barrier, dejavu, store, failover, coordha, pipeline,
// restore, restorelazy, chaos, all (default).
//
// -json, -trace, and -report all enable tracing: every trial's spans
// are recorded in virtual time.  With -json each experiment's table
// embeds a critical_path block (the analyzer's blocking-chain summary
// over that experiment's rounds and restarts); -trace writes a Chrome
// trace-event file with the critical path drawn as flow arrows, and
// -report prints the span/counter/critical-path summary at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	dmtcpsim "repro"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment id (or comma list)")
		trials = flag.Int("trials", 5, "trials per configuration (paper: 10)")
		quick  = flag.Bool("quick", false, "reduced scale for smoke runs")
		seed   = flag.Int64("seed", 1, "base random seed")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		asJSON = flag.Bool("json", false, "emit results as a JSON array of tables (with critical_path blocks)")
		trace  = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		report = flag.Bool("report", false, "print the span/counter/critical-path report at the end")
	)
	flag.Parse()

	o := dmtcpsim.Opts{Trials: *trials, Seed: *seed, Quick: *quick}
	type exp struct {
		id, desc string
		fn       func() *dmtcpsim.Table
	}
	exps := []exp{
		{"fig3", "desktop apps ckpt/restart/size (Fig. 3)", func() *dmtcpsim.Table { return dmtcpsim.RunFig3(o) }},
		{"runcms", "runCMS anecdote (§5.1)", func() *dmtcpsim.Table { return dmtcpsim.RunRunCMS(o) }},
		{"fig4", "distributed apps, 32 nodes (Fig. 4)", func() *dmtcpsim.Table { return dmtcpsim.RunFig4(o) }},
		{"fig5a", "ParGeant4 scaling, local disk (Fig. 5a)", func() *dmtcpsim.Table { return dmtcpsim.RunFig5(o, false) }},
		{"fig5b", "ParGeant4 scaling, SAN/NFS (Fig. 5b)", func() *dmtcpsim.Table { return dmtcpsim.RunFig5(o, true) }},
		{"fig6", "memory sweep (Fig. 6)", func() *dmtcpsim.Table { return dmtcpsim.RunFig6(o) }},
		{"table1", "stage breakdown (Table 1)", func() *dmtcpsim.Table { return dmtcpsim.RunTable1(o) }},
		{"sync", "sync-after-checkpoint cost (§5.2)", func() *dmtcpsim.Table { return dmtcpsim.RunSyncCost(o) }},
		{"forked", "forked checkpointing (§5.3)", func() *dmtcpsim.Table { return dmtcpsim.RunForked(o) }},
		{"barrier", "coordinator scalability (§5.4)", func() *dmtcpsim.Table { return dmtcpsim.RunBarrier(o) }},
		{"dejavu", "DejaVu overhead comparison (§2)", func() *dmtcpsim.Table { return dmtcpsim.RunDejaVu(o) }},
		{"store", "incremental chunk store vs full rewrite", func() *dmtcpsim.Table { return dmtcpsim.RunStore(o) }},
		{"failover", "replicated storage + node-failure recovery", func() *dmtcpsim.Table { return dmtcpsim.RunFailover(o) }},
		{"coordha", "coordinator HA: journaled state machine + standby takeover", func() *dmtcpsim.Table { return dmtcpsim.RunCoordFailover(o) }},
		{"pipeline", "parallel pipelined checkpoint write (workers x dirty%)", func() *dmtcpsim.Table { return dmtcpsim.RunPipeline(o) }},
		{"restore", "streamed restore pipeline (remote-fetch restart x workers)", func() *dmtcpsim.Table { return dmtcpsim.RunRestore(o) }},
		{"restorelazy", "lazy post-copy restore (skeleton resume + striped prefetch x size)", func() *dmtcpsim.Table { return dmtcpsim.RunRestoreLazy(o) }},
		{"chaos", "chaos schedules: partitions, lossy links, bit rot, node death", func() *dmtcpsim.Table { return dmtcpsim.RunChaos(o) }},
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.desc)
		}
		return
	}
	var tracer *dmtcpsim.Tracer
	if *asJSON || *trace != "" || *report {
		tracer = dmtcpsim.NewTracer()
		dmtcpsim.TraceExperiments(tracer)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	var tables []*dmtcpsim.Table
	for _, e := range exps {
		if !want["all"] && !want[e.id] {
			continue
		}
		start := time.Now()
		// An untouched tracer's first Env stays on run 0; afterwards
		// every Env gets a fresh run number, so Runs() marks where this
		// experiment's trials begin.
		lo := 0
		if tracer != nil && len(tracer.Events()) > 0 {
			lo = tracer.Runs()
		}
		tab := e.fn()
		if tracer != nil {
			tab.CriticalPath = criticalPathSince(tracer, lo)
		}
		if *asJSON {
			tables = append(tables, tab)
			fmt.Fprintf(os.Stderr, "(%s regenerated in %v wall time)\n", e.id, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Println(tab.Render())
			fmt.Printf("(%s regenerated in %v wall time)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
	if *trace != "" {
		dmtcpsim.AnnotateFlows(tracer)
		if err := os.WriteFile(*trace, tracer.ChromeTrace(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d events, %d run(s))\n",
			*trace, len(tracer.Events()), tracer.Runs())
	}
	if *report {
		dmtcpsim.AttachAnalyzer(tracer)
		fmt.Fprint(os.Stderr, tracer.Report())
	}
}

// criticalPathSince analyzes the whole trace and keeps only the rounds
// and restarts recorded in run lo or later — i.e. the trials of the
// experiment that just ran (each Env is one tracer run).  Run numbers
// are rebased to that experiment's first run, so a table does not
// depend on which experiments ran before it in the same invocation.
func criticalPathSince(tr *dmtcpsim.Tracer, lo int) *dmtcpsim.CriticalPath {
	full := dmtcpsim.AnalyzeTrace(tr)
	out := &dmtcpsim.CriticalPath{}
	for _, r := range full.Rounds {
		if r.Run >= lo {
			r.Run -= lo
			out.Rounds = append(out.Rounds, r)
		}
	}
	for _, r := range full.Restarts {
		if r.Run >= lo {
			r.Run -= lo
			out.Restarts = append(out.Restarts, r)
		}
	}
	if len(out.Rounds) == 0 && len(out.Restarts) == 0 {
		return nil
	}
	return out
}
