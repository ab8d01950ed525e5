package main

import (
	"fmt"
	"slices"
	"time"
)

const mb = 1 << 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd computes the metrics a user of the system sees.  Virtual-time
// figures come from the first pass, the core jobs; host costs are
// medians over the core jobs of each job's best pass.  note names the
// percentile ckpt_tail_s reports.
func endToEnd(core, plain []*job) (m map[string]metric, note string) {
	ckpt := perRound(core, func(r roundRec) float64 { return r.Stages.Total.Seconds() })
	tailV, pct := tail(ckpt)
	note = fmt.Sprintf("ckpt_tail_s is p%.1f of %d rounds", pct, len(ckpt))
	return map[string]metric{
		"ckpt_s":        {median(ckpt), "s"},
		"ckpt_tail_s":   {tailV, "s"},
		"ckpt_mb":       {mean(perRound(core, func(r roundRec) float64 { return float64(r.Bytes) / mb })), "MB"},
		"restart_s":     {median(perRestart(core, false, func(r restartRec) float64 { return r.Total.Seconds() })), "s"},
		"job_s":         {median(perJob(core, func(j *job) float64 { return j.virtual.Seconds() })), "s"},
		"host_s":        {median(best(len(core), plain, func(j *job) []float64 { return []float64{j.host} })), "s"},
		"host_alloc_mb": {median(perJob(plain, func(j *job) float64 { return j.allocMB })), "MB"},
		"setup_s":       {median(best(len(core), plain, func(j *job) []float64 { return j.setup })), "s"},
	}, note
}

// perLayer computes the per-layer metrics of a traced run: each core job
// ran untraced (plain) and then traced (twin) with the same seed.
// Virtual figures come from the core jobs, host costs from the untraced
// jobs, and shares from the CPU profile of the whole run.
func perLayer(core, plain, twins []*job, shares map[string]float64) map[string]metric {
	stage := func(f func(roundRec) time.Duration) float64 {
		return median(perRound(core, func(r roundRec) float64 { return f(r).Seconds() }))
	}
	round := func(f func(roundRec) float64) float64 { return median(perRound(core, f)) }
	restartS := func(lazy bool, f func(restartRec) time.Duration) float64 {
		return median(perRestart(core, lazy, func(r restartRec) float64 { return f(r).Seconds() }))
	}
	eager := func(f func(restartRec) time.Duration) float64 { return restartS(false, f) }
	lazy := func(f func(restartRec) time.Duration) float64 { return restartS(true, f) }
	restartMB := func(lazy bool, f func(restartRec) int64) float64 {
		return median(perRestart(core, lazy, func(r restartRec) float64 { return float64(f(r)) / mb }))
	}
	host := func(f func(*job) float64) float64 { return median(perJob(plain, f)) }
	var images, workers []float64
	for _, j := range core {
		for _, r := range j.rounds {
			for _, img := range r.Images {
				images = append(images, float64(img.Bytes)/mb)
				workers = append(workers, float64(img.Workers))
			}
		}
	}
	var events, driveHost float64
	for _, j := range plain {
		events += float64(j.events)
		driveHost += j.drive
	}
	var overhead []float64
	for i, t := range twins {
		if plain[i].host > 0 {
			overhead = append(overhead, t.host/plain[i].host)
		}
	}
	attempted, failed := 0, 0
	for _, j := range append(plain, twins...) {
		attempted += j.attempted
		failed += j.failed
	}
	m := map[string]metric{
		"sim.events":            {median(perJob(core, func(j *job) float64 { return float64(j.events) })), "count"},
		"sim.events_per_host_s": {events / driveHost, "1/s"},
		"host.app_s":            {host(func(j *job) float64 { return j.hostApp }), "s"},
		"host.ckpt_s":           {host(func(j *job) float64 { return j.hostCkpt }), "s"},
		"host.restart_s":        {host(func(j *job) float64 { return j.hostRestart }), "s"},

		"dmtcp.suspend_s":          {stage(func(r roundRec) time.Duration { return r.Stages.Suspend }), "s"},
		"dmtcp.elect_s":            {stage(func(r roundRec) time.Duration { return r.Stages.Elect }), "s"},
		"dmtcp.drain_s":            {stage(func(r roundRec) time.Duration { return r.Stages.Drain }), "s"},
		"dmtcp.write_s":            {stage(func(r roundRec) time.Duration { return r.Stages.Write }), "s"},
		"dmtcp.refill_s":           {stage(func(r roundRec) time.Duration { return r.Stages.Refill }), "s"},
		"dmtcp.write_skew":         {round(writeSkew), "ratio"},
		"dmtcp.restart.files_s":    {eager(func(r restartRec) time.Duration { return r.Files }), "s"},
		"dmtcp.restart.conns_s":    {eager(func(r restartRec) time.Duration { return r.Conns }), "s"},
		"dmtcp.restart.memory_s":   {eager(func(r restartRec) time.Duration { return r.Memory }), "s"},
		"dmtcp.restart.refill_s":   {eager(func(r restartRec) time.Duration { return r.Refill }), "s"},
		"mtcp.image_mb":            {median(images), "MB"},
		"mtcp.compress_ratio":      {round(func(r roundRec) float64 { return ratio(r.RawBytes, r.Bytes) }), "ratio"},
		"mtcp.write_workers":       {median(workers), "count"},
		"store.new_chunk_ratio":    {round(newChunkRatio), "ratio"},
		"store.dedup_mb":           {round(func(r roundRec) float64 { return float64(r.DedupBytes) / mb }), "MB"},
		"store.gc_swept_mb":        {round(gcMB(func(r roundRec) int64 { return r.GC.SweptBytes })), "MB"},
		"store.live_mb":            {round(gcMB(func(r roundRec) int64 { return r.GC.LiveBytes })), "MB"},
		"replica.overlap_mb":       {round(func(r roundRec) float64 { return float64(r.OverlapBytes) / mb }), "MB"},
		"replica.lag_s":            {median(collect(core, func(j *job) []float64 { return durations(j.lags) })), "s"},
		"replica.fetch_s":          {eager(func(r restartRec) time.Duration { return r.Fetch }), "s"},
		"replica.fetched_mb":       {restartMB(false, func(r restartRec) int64 { return r.FetchedBytes }), "MB"},
		"restore.overlap_mb":       {restartMB(false, func(r restartRec) int64 { return r.OverlapBytes }), "MB"},
		"resume_pause_s":           {lazy(func(r restartRec) time.Duration { return r.ResumePause }), "s"},
		"lazy_restart_s":           {lazy(func(r restartRec) time.Duration { return r.Total }), "s"},
		"replica.prefetch_drain_s": {lazy(func(r restartRec) time.Duration { return r.PrefetchDrain }), "s"},
		"replica.demand_faults": {median(perRestart(core, true, func(r restartRec) float64 {
			return float64(r.DemandFaults)
		})), "count"},
		"replica.demand_mb":   {restartMB(true, func(r restartRec) int64 { return r.DemandBytes }), "MB"},
		"replica.prefetch_mb": {restartMB(true, func(r restartRec) int64 { return r.PrefetchBytes }), "MB"},

		"coordstate.entries_per_round":   {round(func(r roundRec) float64 { return float64(r.entries) }), "count"},
		"coordstate.journal_kb":          {median(perJob(core, func(j *job) float64 { return j.journalKB })), "KB"},
		"coordstate.replay_ns_per_entry": {median(collect(plain, func(j *job) []float64 { return j.replayNs })), "ns"},
		"obs.trace_overhead":             {median(overhead), "ratio"},
		"obs.spans":                      {median(perJob(twins, func(j *job) float64 { return float64(j.obsSpans) })), "count"},
		"failed_ops":                     {float64(failed) / float64(max(attempted, 1)), "ratio"},
	}
	for _, mod := range modules {
		m["host.share."+mod] = metric{shares[mod], "share"}
	}
	return m
}

func writeSkew(r roundRec) float64 {
	var ws []float64
	for _, d := range r.WriteByHost {
		ws = append(ws, d.Seconds())
	}
	if med := median(ws); med > 0 {
		return slices.Max(ws) / med
	}
	return 1
}

func newChunkRatio(r roundRec) float64 {
	var fresh, all int64
	for _, img := range r.Images {
		fresh += int64(img.NewChunks)
		all += int64(img.Chunks)
	}
	return ratio(fresh, all)
}

// gcMB reads a store GC figure in MB; rounds without a GC pass read 0.
func gcMB(f func(roundRec) int64) func(roundRec) float64 {
	return func(r roundRec) float64 {
		if r.GC == nil {
			return 0
		}
		return float64(f(r)) / mb
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perJob(jobs []*job, f func(*job) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j)
	}
	return out
}

// best returns, for each of the core jobs and each value f reads from
// it, the least that value is over the job's passes.  Jobs repeat the
// core in order, so job i is core job i mod core.
func best(core int, jobs []*job, f func(*job) []float64) []float64 {
	least := make([][]float64, core)
	for i, j := range jobs {
		vs, b := f(j), least[i%core]
		if b == nil {
			least[i%core] = slices.Clone(vs)
			continue
		}
		for k := 0; k < min(len(b), len(vs)); k++ {
			b[k] = min(b[k], vs[k])
		}
	}
	var out []float64
	for _, b := range least {
		out = append(out, b...)
	}
	return out
}

func collect(jobs []*job, f func(*job) []float64) []float64 {
	var out []float64
	for _, j := range jobs {
		out = append(out, f(j)...)
	}
	return out
}

func perRound(jobs []*job, f func(roundRec) float64) []float64 {
	return collect(jobs, func(j *job) []float64 {
		out := make([]float64, len(j.rounds))
		for i, r := range j.rounds {
			out[i] = f(r)
		}
		return out
	})
}

// perRestart reads f from the eager or the lazy restarts.
func perRestart(jobs []*job, lazy bool, f func(restartRec) float64) []float64 {
	return collect(jobs, func(j *job) []float64 {
		var out []float64
		for _, r := range j.restarts {
			if r.lazy == lazy {
				out = append(out, f(r))
			}
		}
		return out
	})
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// mean of xs; 0 for none.  Volumes per round are means, so they add up
// to what was written.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that leaves at least ten
// samples beyond it, and that percentile; with ten samples or fewer it
// returns the maximum as p100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}
