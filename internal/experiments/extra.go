package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/baseline/dejavu"
	"repro/internal/dmtcp"
	"repro/internal/kernel"
)

// RunSyncCost reproduces the §5.2 sync experiment: the additional
// cost of issuing a sync after a compressed ParGeant4 checkpoint
// (paper: mean +0.79 s, σ 0.24).
func RunSyncCost(o Opts) *Table {
	nodes := 8
	if o.Quick {
		nodes = 2
	}
	t := &Table{
		ID:      "sync",
		Title:   fmt.Sprintf("Sync-after-checkpoint cost, ParGeant4 on %d nodes (compressed)", nodes),
		Columns: []string{"metric", "measured", "paper"},
	}
	var sync, total Sample
	for trial := 0; trial < o.trials(); trial++ {
		round, _ := runParGeant4(o.Seed+int64(trial), nodes,
			dmtcp.Config{Compress: true, Fsync: true}, false)
		sync.AddDur(round.SyncCost)
		total.AddDur(round.Stages.Total)
	}
	t.Rows = append(t.Rows,
		[]string{"sync cost (s)", meanStd(&sync), "0.79 ±0.24"},
		[]string{"ckpt total incl. sync (s)", meanStd(&total), "-"},
	)
	return t
}

// RunBarrier measures coordinator barrier overhead as the number of
// checkpointed processes grows — §5.4's claim that the centralized
// coordinator is not a bottleneck.  The per-process images are tiny,
// so the round is dominated by fixed stage costs; the barrier's
// contribution is the residual growth.
func RunBarrier(o Opts) *Table {
	sweeps := []int{8, 32, 64, 128, 256}
	if o.Quick {
		sweeps = []int{4, 16}
	}
	t := &Table{
		ID:      "barrier",
		Title:   "Coordinator barrier scalability (tiny-image checkpoint rounds)",
		Columns: []string{"processes", "elect stage (s)", "round total (s)"},
		Notes: []string{
			"paper §5.4: the single coordinator implementing barriers is not a bottleneck;",
			"round time should stay nearly flat as processes grow",
		},
	}
	for _, procs := range sweeps {
		nodes := procs / 8
		if nodes < 1 {
			nodes = 1
		}
		if nodes > 32 {
			nodes = 32
		}
		var elect, total Sample
		for trial := 0; trial < o.trials(); trial++ {
			env := NewEnv(o.Seed+int64(trial), nodes, dmtcp.Config{Compress: false})
			env.Drive(func(task *kernel.Task) {
				perNode := procs / nodes
				for n := 0; n < nodes; n++ {
					for i := 0; i < perNode; i++ {
						if _, err := env.Sys.Launch(kernel.NodeID(n), "app:bc"); err != nil {
							panic(err)
						}
					}
				}
				task.Compute(300 * time.Millisecond)
				round, err := env.Sys.Checkpoint(task)
				if err != nil {
					panic(err)
				}
				elect.AddDur(round.Stages.Elect)
				total.AddDur(round.Stages.Total)
			})
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(procs), meanStd(&elect), meanStd(&total),
		})
	}
	return t
}

// RunDejaVu reproduces the §2 related-work comparison: run-time
// overhead of a DejaVu-style logging checkpointer versus DMTCP on a
// Chombo-like stencil.
func RunDejaVu(o Opts) *Table {
	t := &Table{
		ID:      "dejavu",
		Title:   "Run-time overhead: DMTCP vs DejaVu-style logging checkpointer (Chombo-like stencil)",
		Columns: []string{"regime", "runtime (s)", "checkpoints", "overhead vs native"},
		Notes: []string{
			"paper §2: DejaVu ≈45% overhead and ten checkpoints/hour on Chombo;",
			"DMTCP: essentially zero overhead between checkpoints (its ≈2 s",
			"checkpoint cost is what Fig. 4 measures separately)",
		},
	}
	for _, r := range dejavu.Run(o.Seed) {
		t.Rows = append(t.Rows, []string{
			r.Regime,
			fmt.Sprintf("%.2f", r.Runtime.Seconds()),
			strconv.Itoa(r.Checkpoints),
			fmt.Sprintf("%.1f%%", r.OverheadPct),
		})
	}
	return t
}

// RunForked isolates the forked-checkpointing headline (§5.3 / §6):
// perceived checkpoint time ≈0.2 s versus seconds when writing
// synchronously.
func RunForked(o Opts) *Table {
	nodes := 8
	if o.Quick {
		nodes = 2
	}
	t := &Table{
		ID:      "forked",
		Title:   fmt.Sprintf("Forked checkpointing, ParGeant4 on %d nodes", nodes),
		Columns: []string{"mode", "perceived ckpt (s)", "paper"},
	}
	var plain, forked Sample
	for trial := 0; trial < o.trials(); trial++ {
		round, _ := runParGeant4(o.Seed+int64(trial), nodes, dmtcp.Config{Compress: true}, false)
		plain.AddDur(round.Stages.Total)
		round2, _ := runParGeant4(o.Seed+int64(trial), nodes, dmtcp.Config{Compress: true, Forked: true}, false)
		forked.AddDur(round2.Stages.Total)
	}
	t.Rows = append(t.Rows,
		[]string{"compressed", meanStd(&plain), "≈2-6 s"},
		[]string{"forked compressed", meanStd(&forked), "≈0.2 s"},
	)
	return t
}
