package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/mpi"
)

// runParGeant4 boots MPICH2 on `nodes` nodes, the first 8 attached to
// the SAN directly and the rest through NFS (§5.2), starts ParGeant4
// with 4 compute processes per node and checkpoints after warmup.  With
// restart it then kills the job and restarts it, and reports the
// restart's stages too; without, the stages are nil.
func runParGeant4(seed int64, nodes int, cfg dmtcp.Config, restart bool) (*dmtcp.CkptRound, *dmtcp.RestartStages) {
	env := NewEnv(seed, nodes, cfg)
	for i, n := range env.C.Nodes() {
		n.SANDirect = i < 8
	}
	var round *dmtcp.CkptRound
	var stats *dmtcp.RestartStages
	env.Drive(func(task *kernel.Task) {
		boot, err := env.Sys.Launch(0, "mpdboot", strconv.Itoa(nodes))
		if err != nil {
			panic(err)
		}
		task.WatchExit(boot)
		np := nodes * 4
		if _, err := env.Sys.Launch(0, "mpiexec", strconv.Itoa(np), "4", "0",
			strconv.Itoa(mpi.BasePort), "pargeant4", "1000000"); err != nil {
			panic(err)
		}
		task.Compute(800 * time.Millisecond)
		round, err = env.Sys.Checkpoint(task)
		if err != nil {
			panic(err)
		}
		if !restart {
			return
		}
		env.Sys.KillManaged()
		stats, err = env.Sys.RestartAll(task, round, nil)
		if err != nil {
			panic(err)
		}
	})
	return round, stats
}

// RunFig5 reproduces Figure 5: ParGeant4 checkpoint and restart times
// as the number of compute processes grows from 16 to 128 (4 per
// node), with checkpoints on local disks (a) or on the central
// SAN/NFS volume (b).  Compression is enabled, as in the paper.
func RunFig5(o Opts, central bool) *Table {
	id, where := "fig5a", "local disk"
	dir := "/ckpt"
	if central {
		id, where = "fig5b", "central SAN (8 direct, rest via NFS)"
		dir = "/san/ckpt"
	}
	sweeps := []int{16, 32, 48, 64, 80, 96, 112, 128}
	if o.Quick {
		sweeps = []int{8, 16}
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("ParGeant4 under MPICH2, checkpoints to %s", where),
		Columns: []string{"compute procs", "total procs", "ckpt (s)", "restart (s)"},
		Notes: []string{
			"paper Fig. 5a: times nearly constant in node count (≈2–8 s);",
			"Fig. 5b: central storage is slower and grows with writers;",
			"caption: 21–161 additional MPICH2 resource-management processes",
		},
	}
	for _, np := range sweeps {
		nodes := np / 4
		if nodes == 0 {
			nodes = 1
		}
		var ck, rs Sample
		procs := 0
		for trial := 0; trial < o.trials(); trial++ {
			round, stats := runParGeant4(o.Seed+int64(trial), nodes,
				dmtcp.Config{Compress: true, CkptDir: dir}, true)
			ck.AddDur(round.Stages.Total)
			rs.AddDur(stats.Total)
			if round.NumProcs > procs {
				procs = round.NumProcs
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", np), fmt.Sprintf("%d", procs), meanStd(&ck), meanStd(&rs),
		})
	}
	return t
}
