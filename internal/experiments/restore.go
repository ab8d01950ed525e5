package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/replica"
	"repro/internal/store"
)

// RunRestore measures the streamed restore pipeline: a remote-fetch
// restart (the image lives on another node's replica daemon — the
// node-failure recovery and migration path) through the overlapped
// fetch/decompress/install pipeline versus the old serial
// fetch-then-install, across restore pool sizes.  The per-node core
// model bounds the install speedup at 4 cores, and the overlap column
// shows how much decompression the pipeline hid inside the transfer.
//
// Each trial checkpoints a process on node1 through the store, kills
// the process (not the node — the stores survive), and restarts it on
// node0, which holds nothing: every chunk crosses the network.
func RunRestore(o Opts) *Table {
	workerSweep := []int{1, 2, 4, 8}
	mb := 256
	if o.Quick {
		workerSweep = []int{1, 4}
		mb = 32
	}
	t := &Table{
		ID: "restore",
		Title: fmt.Sprintf(
			"Streamed restore pipeline: remote-fetch restart of a %d MB process (compressed, replicated)", mb),
		Columns: []string{"workers", "serial f+i (s)", "streamed (s)",
			"speedup", "vs f+i", "fetched MB", "overlap MB"},
		Notes: []string{
			"serial f+i = pull every chunk to the target first (same connection count), then",
			"  restart with every chunk local; streamed = fetch, decompress, install overlapped;",
			"speedup = 1-worker serial fetch-then-install time / this row's streamed time;",
			"vs f+i = serial time at the same worker count / streamed time;",
			"overlap = stored bytes already decompressed/installed when the fetch finished;",
			"4 cores/node: 8 workers must show no further speedup over 4 (core accounting)",
		},
	}
	// Restart stage breakdown at the widest pool, for the embedded
	// metrics block.
	var wide restartSamples
	lastWorkers := workerSweep[len(workerSweep)-1]
	var serial1 float64
	for _, workers := range workerSweep {
		var serialT, streamT, fetchMB, overlapMB Sample
		var rs *restartSamples
		if workers == lastWorkers {
			rs = &wide
		}
		for trial := 0; trial < o.trials(); trial++ {
			seed := o.Seed + int64(trial)
			runRestoreTrial(seed, mb, workers, true, &serialT, nil, nil, nil)
			runRestoreTrial(seed, mb, workers, false, &streamT, &fetchMB, &overlapMB, rs)
		}
		if workers == workerSweep[0] {
			serial1 = serialT.Mean()
		}
		speedup, vsFI := "-", "-"
		if streamT.Mean() > 0 {
			speedup = fmt.Sprintf("%.2fx", serial1/streamT.Mean())
			vsFI = fmt.Sprintf("%.2fx", serialT.Mean()/streamT.Mean())
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(workers),
			meanStd(&serialT),
			meanStd(&streamT),
			speedup,
			vsFI,
			fmt.Sprintf("%.1f", fetchMB.Mean()),
			fmt.Sprintf("%.1f", overlapMB.Mean()),
		})
	}
	wide.metrics(t, fmt.Sprintf("restart.w%d", lastWorkers))
	return t
}

// restartSamples accumulates restart stage times across trials.
type restartSamples struct {
	files, conns, memory, refill, fetch, total Sample
	fetchedMB, overlapMB, workers              Sample
}

func (rs *restartSamples) add(st *dmtcp.RestartStages) {
	rs.files.AddDur(st.Files)
	rs.conns.AddDur(st.Conns)
	rs.memory.AddDur(st.Memory)
	rs.refill.AddDur(st.Refill)
	rs.fetch.AddDur(st.Fetch)
	rs.total.AddDur(st.Total)
	rs.fetchedMB.Add(float64(st.FetchedBytes) / float64(model.MB))
	rs.overlapMB.Add(float64(st.OverlapBytes) / float64(model.MB))
	rs.workers.Add(float64(st.Workers))
}

func (rs *restartSamples) metrics(t *Table, prefix string) {
	t.Metric(prefix+".files_s", rs.files.Mean())
	t.Metric(prefix+".conns_s", rs.conns.Mean())
	t.Metric(prefix+".memory_s", rs.memory.Mean())
	t.Metric(prefix+".refill_s", rs.refill.Mean())
	t.Metric(prefix+".fetch_s", rs.fetch.Mean())
	t.Metric(prefix+".total_s", rs.total.Mean())
	t.Metric(prefix+".fetched_mb", rs.fetchedMB.Mean())
	t.Metric(prefix+".overlap_mb", rs.overlapMB.Mean())
	t.Metric(prefix+".effective_workers", rs.workers.Mean())
}

// FetchThenInstall is the serial restore baseline, built from outside
// restart: it pulls every chunk of round's store images onto the
// calling task's node through a replica.PullStream — CkptWorkers
// connections on each image's writer, the shape of an eager restart's
// fetch — and only then restarts the round there, every chunk local.
// The baseline's restart time is pull + stats.Total.
func FetchThenInstall(t *kernel.Task, sys *dmtcp.System, round *dmtcp.CkptRound) (pull time.Duration, stats *dmtcp.RestartStages, err error) {
	start := t.Now()
	local := sys.StoreOn(t.P.Node)
	place := dmtcp.Placement{}
	for _, img := range round.Images {
		place[img.Host] = t.P.Node.ID
		if !store.IsManifestPath(img.Path) {
			continue
		}
		if _, err := sys.Replica.EnsureManifest(t, img.Path, img.Host); err != nil {
			return 0, nil, err
		}
		m, err := local.LoadManifest(img.Path)
		if err != nil {
			return 0, nil, err
		}
		ps := replica.NewPullStream(t, sys.Replica, []string{img.Host}, m.Refs(),
			replica.PullOptions{Stripe: 1, Conns: sys.Cfg.CkptWorkers})
		if err := ps.Wait(t); err != nil {
			return 0, nil, err
		}
	}
	pull = t.Now().Sub(start)
	stats, err = sys.RestartAll(t, round, place)
	return pull, stats, err
}

// runRestoreTrial drives one seed: checkpoint on node1, kill the
// process, restart on cold node0 pulling every chunk over the network
// — through the restore pipeline, or serially with FetchThenInstall —
// recording the restart's total latency.
func runRestoreTrial(seed int64, mb, workers int, serial bool,
	tm, fetchMB, overlapMB *Sample, rs *restartSamples) {
	cfg := dmtcp.Config{Compress: true, Store: true, StoreKeep: 2, ReplicaFactor: 1,
		CkptWorkers: workers}
	env := NewEnv(seed, 3, cfg)
	env.Drive(func(task *kernel.Task) {
		if _, err := env.Sys.Launch(1, DirtyAppName, strconv.Itoa(mb)); err != nil {
			panic(err)
		}
		task.Compute(200 * time.Millisecond)
		round, err := env.Sys.Checkpoint(task)
		if err != nil {
			panic(err)
		}
		env.Sys.Replica.WaitIdle(task)
		env.Sys.KillManaged()
		var pull time.Duration
		var stats *dmtcp.RestartStages
		if serial {
			pull, stats, err = FetchThenInstall(task, env.Sys, round)
		} else {
			stats, err = env.Sys.RestartAll(task, round, dmtcp.Placement{"node01": 0})
		}
		if err != nil {
			panic(err)
		}
		tm.AddDur(pull + stats.Total)
		if fetchMB != nil {
			fetchMB.Add(float64(stats.FetchedBytes) / float64(model.MB))
		}
		if overlapMB != nil {
			overlapMB.Add(float64(stats.OverlapBytes) / float64(model.MB))
		}
		if rs != nil {
			rs.add(stats)
		}
	})
}
