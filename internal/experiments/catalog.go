package experiments

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// Experiment is one table or figure dmtcp-bench regenerates.
type Experiment struct {
	ID, Desc string
	Run      func(Opts) *Table
}

// Catalog lists every experiment in the order dmtcp-bench runs
// them: the paper's evaluation first, then the extensions.
var Catalog = []Experiment{
	{"fig3", "desktop apps ckpt/restart/size (Fig. 3)", RunFig3},
	{"runcms", "runCMS anecdote (§5.1)", RunRunCMS},
	{"fig4", "distributed apps, 32 nodes (Fig. 4)", RunFig4},
	{"fig5a", "ParGeant4 scaling, local disk (Fig. 5a)", func(o Opts) *Table { return RunFig5(o, false) }},
	{"fig5b", "ParGeant4 scaling, SAN/NFS (Fig. 5b)", func(o Opts) *Table { return RunFig5(o, true) }},
	{"fig6", "memory sweep (Fig. 6)", RunFig6},
	{"table1", "stage breakdown (Table 1)", RunTable1},
	{"sync", "sync-after-checkpoint cost (§5.2)", RunSyncCost},
	{"forked", "forked checkpointing (§5.3)", RunForked},
	{"barrier", "coordinator scalability (§5.4)", RunBarrier},
	{"dejavu", "DejaVu overhead comparison (§2)", RunDejaVu},
	{"store", "incremental chunk store vs full rewrite", RunStore},
	{"failover", "replicated storage + node-failure recovery", RunFailover},
	{"coordha", "coordinator HA: journaled state machine + standby takeover", RunCoordFailover},
	{"pipeline", "parallel pipelined checkpoint write (workers x dirty%)", RunPipeline},
	{"restore", "streamed restore pipeline (remote-fetch restart x workers)", RunRestore},
	{"restorelazy", "lazy post-copy restore (skeleton resume + striped prefetch x size)", RunRestoreLazy},
	{"chaos", "chaos schedules: partitions, lossy links, bit rot, node death", RunChaos},
}

// Regenerate runs, in catalog order, the experiments whose ids are
// listed ("all" selects every one) and returns their tables; done,
// when non-nil, sees each table as it completes, with its host wall
// time.  A non-nil tr records every trial (each Env is one tracer run)
// and each table's CriticalPath summarizes that experiment's own
// trials, so a table does not depend on what ran before it.
func Regenerate(ids []string, o Opts, tr *obs.Tracer, done func(*Table, time.Duration)) []*Table {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	prev := Tracing
	Tracing = tr
	defer func() { Tracing = prev }()
	var tables []*Table
	for _, e := range Catalog {
		if !want["all"] && !want[e.ID] {
			continue
		}
		start := time.Now()
		// An untouched tracer's first Env stays on run 0; afterwards
		// every Env gets a fresh run number, so Runs() marks where this
		// experiment's trials begin.
		lo := 0
		if tr != nil && len(tr.Events()) > 0 {
			lo = tr.Runs()
		}
		tab := e.Run(o)
		if tr != nil {
			tab.CriticalPath = criticalPathSince(tr, lo)
		}
		if done != nil {
			done(tab, time.Since(start))
		}
		tables = append(tables, tab)
	}
	return tables
}

// WriteTables encodes tables as dmtcp-bench -json prints them: one
// indented JSON array, newline-terminated.  Each committed
// BENCH_*.json is one Regenerate call's tables at DefaultOpts, written
// by this function.
func WriteTables(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}

// criticalPathSince analyzes the whole trace and keeps only the rounds
// and restarts recorded in run lo or later, rebasing run numbers to
// that first run.
func criticalPathSince(tr *obs.Tracer, lo int) *analyze.Summary {
	full := analyze.Analyze(tr)
	out := &analyze.Summary{}
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
