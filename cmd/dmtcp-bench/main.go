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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	dmtcpsim "repro"
)

func main() {
	defaults := dmtcpsim.DefaultOpts()
	var (
		run    = flag.String("run", "all", "experiment id (or comma list)")
		trials = flag.Int("trials", defaults.Trials, "trials per configuration (paper: 10)")
		quick  = flag.Bool("quick", false, "reduced scale for smoke runs")
		seed   = flag.Int64("seed", defaults.Seed, "base random seed")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		asJSON = flag.Bool("json", false, "emit results as a JSON array of tables (with critical_path blocks)")
		trace  = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		report = flag.Bool("report", false, "print the span/counter/critical-path report at the end")
	)
	flag.Parse()

	o := dmtcpsim.Opts{Trials: *trials, Seed: *seed, Quick: *quick}
	if *list {
		for _, e := range dmtcpsim.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	var tracer *dmtcpsim.Tracer
	if *asJSON || *trace != "" || *report {
		tracer = dmtcpsim.NewTracer()
	}
	var ids []string
	for _, id := range strings.Split(*run, ",") {
		ids = append(ids, strings.TrimSpace(id))
	}
	tables := dmtcpsim.Regenerate(ids, o, tracer, func(tab *dmtcpsim.Table, wall time.Duration) {
		if *asJSON {
			fmt.Fprintf(os.Stderr, "(%s regenerated in %v wall time)\n", tab.ID, wall.Round(time.Millisecond))
		} else {
			fmt.Println(tab.Render())
			fmt.Printf("(%s regenerated in %v wall time)\n\n", tab.ID, wall.Round(time.Millisecond))
		}
	})
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
		os.Exit(2)
	}
	if *asJSON {
		if err := dmtcpsim.WriteTables(os.Stdout, tables); err != nil {
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
