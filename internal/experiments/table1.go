package experiments

import (
	"strconv"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/mpi"
)

// RunTable1 reproduces Table 1: the per-stage breakdown of checkpoint
// (a) and restart (b) for NAS/MG under OpenMPI on 8 nodes, in
// uncompressed, compressed, and forked-compressed modes.  Each
// restarted job must run on to MG's verified result, or the run
// panics.
func RunTable1(o Opts) *Table {
	nodes := 8
	if o.Quick {
		nodes = 2
	}
	type mode struct {
		name     string
		compress bool
		forked   bool
	}
	modes := []mode{
		{"uncompressed", false, false},
		{"compressed", true, false},
		{"forked-compr", true, true},
	}
	rounds := map[string]*dmtcp.CkptRound{}
	restarts := map[string]*dmtcp.RestartStages{}
	for _, m := range modes {
		env := NewEnv(o.Seed, nodes, dmtcp.Config{Compress: m.compress, Forked: m.forked})
		env.C.Params.JitterPct = 0 // the paper's Table 1 is a single breakdown
		np := nodes * 4
		env.Drive(func(task *kernel.Task) {
			if _, err := env.Sys.Launch(0, "orterun", strconv.Itoa(np), "4", "0",
				strconv.Itoa(mpi.BasePort), "nas-mg"); err != nil {
				panic(err)
			}
			task.Compute(600 * time.Millisecond)
			round, err := env.Sys.Checkpoint(task)
			if err != nil {
				panic(err)
			}
			rounds[m.name] = round
			if m.forked {
				// The forked child's write completes in the
				// background; restart uses the compressed run's
				// images for comparability (§5.3).
				return
			}
			env.Sys.KillManaged()
			stats, err := env.Sys.RestartAll(task, round, nil)
			if err != nil {
				panic(err)
			}
			env.awaitVerify(task, "nas-mg", np)
			restarts[m.name] = stats
		})
	}

	t := &Table{
		ID:      "table1",
		Title:   "Stage breakdown: NAS/MG under OpenMPI, 8 nodes (seconds)",
		Columns: []string{"stage", "uncompressed", "compressed", "forked-compr"},
		Notes: []string{
			"paper Table 1a (ckpt): suspend .025/.022/.025, elect .0014, drain .102,",
			"  write .633/3.94/.062, refill ≈.001, total .76/4.07/.19",
			"paper Table 1b (restart): files .006/.009, conns .04/.02,",
			"  memory .814/2.12, refill ≈.001, total .86/2.15",
		},
	}
	get := func(name string, f func(*dmtcp.CkptRound) time.Duration) string {
		if r := rounds[name]; r != nil {
			return secs(f(r))
		}
		return "-"
	}
	ckRow := func(label string, f func(*dmtcp.CkptRound) time.Duration) []string {
		return []string{label, get("uncompressed", f), get("compressed", f), get("forked-compr", f)}
	}
	t.Rows = append(t.Rows,
		ckRow("ckpt: suspend user threads", func(r *dmtcp.CkptRound) time.Duration { return r.Stages.Suspend }),
		ckRow("ckpt: elect FD leaders", func(r *dmtcp.CkptRound) time.Duration { return r.Stages.Elect }),
		ckRow("ckpt: drain kernel buffers", func(r *dmtcp.CkptRound) time.Duration { return r.Stages.Drain }),
		ckRow("ckpt: write checkpoint", func(r *dmtcp.CkptRound) time.Duration { return r.Stages.Write }),
		ckRow("ckpt: refill kernel buffers", func(r *dmtcp.CkptRound) time.Duration { return r.Stages.Refill }),
		ckRow("ckpt: TOTAL", func(r *dmtcp.CkptRound) time.Duration { return r.Stages.Total }),
	)
	rget := func(name string, f func(*dmtcp.RestartStages) time.Duration) string {
		if r := restarts[name]; r != nil {
			return secs(f(r))
		}
		return "-"
	}
	rsRow := func(label string, f func(*dmtcp.RestartStages) time.Duration) []string {
		return []string{label, rget("uncompressed", f), rget("compressed", f), "-"}
	}
	t.Rows = append(t.Rows,
		rsRow("restart: files and ptys", func(r *dmtcp.RestartStages) time.Duration { return r.Files }),
		rsRow("restart: reconnect sockets", func(r *dmtcp.RestartStages) time.Duration { return r.Conns }),
		rsRow("restart: memory/threads", func(r *dmtcp.RestartStages) time.Duration { return r.Memory }),
		rsRow("restart: refill buffers", func(r *dmtcp.RestartStages) time.Duration { return r.Refill }),
		rsRow("restart: TOTAL", func(r *dmtcp.RestartStages) time.Duration { return r.Total }),
	)
	t.Notes = append(t.Notes,
		"restart stages here are serial, as in the paper (monolithic images); within",
		"memory/threads the image read overlaps gunzip, as gzip -d through a pipe does;",
		"under Config.Store the streamed restore pipeline overlaps the remote-fetch and",
		"memory/threads stages (restart TOTAL < their sum) — see BENCH_restore.json",
	)
	return t
}
