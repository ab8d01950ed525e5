package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	dmtcpsim "repro"
	"repro/internal/coordstate"
)

// jitter is the run-to-run variance the paper experiments use, so a
// cluster's seed changes its modeled timings and not only its inputs.
const jitter = 0.06

// job is one unit of a workload: one or more clusters, each built,
// driven through the public API and checked.  Everything recorded here
// comes from outside the program, by timing calls into its public
// functions and inspecting what they return.
type job struct {
	index  int
	seed   int64
	traced bool

	attempted, failed int
	errs              []string

	// Host seconds are seconds of the reference core (calibrate.go).
	clusters int
	setup    []float64     // host s per cluster to build it, launch and warm the app
	host     float64       // host s after set-up, to the verified result
	drive    float64       // host s inside the drive loops
	allocMB  float64       // MB allocated after set-up
	events   uint64        // simulation events fired
	virtual  time.Duration // launch to verified result, summed over clusters

	rounds                         []roundRec
	restarts                       []restartRec
	lags                           []time.Duration // Checkpoint return to WaitIdle return
	hostApp, hostCkpt, hostRestart float64

	journalKB float64
	replayNs  []float64 // host ns per replayed journal entry, per cluster
	obsSpans  int
	spans     []span
}

type roundRec struct {
	*dmtcpsim.CkptRound
	entries int64 // coordinator journal entries appended during Checkpoint
}

type restartRec struct {
	lazy bool
	dmtcpsim.RestartStages
}

// span is one benchmark-side span: an operation of one cycle, in
// virtual seconds, with the host seconds it took.
type span struct {
	ID    string  `json:"id"`
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Host  float64 `json:"host_s"`
}

func (j *job) errorf(cycle, format string, args ...any) {
	j.errs = append(j.errs, fmt.Sprintf("seed %d cycle %s: %s", j.seed, cycle, fmt.Sprintf(format, args...)))
}

// cluster builds one simulated cluster, drives scenario on it within
// the virtual deadline, and records what the drive cost.
func (j *job) cluster(nodes int, cfg dmtcpsim.Config, deadline time.Duration, scenario func(*cycle)) {
	seed := mix(j.seed, int64(j.index), int64(j.clusters))
	rng := rand.New(rand.NewSource(seed))
	c := &cycle{j: j, id: fmt.Sprintf("j%d.c%d", j.index, j.clusters), lazy: cfg.LazyRestore, rng: rng, salt: rng.Uint64(), measured: -1}
	j.clusters++
	var tr *dmtcpsim.Tracer
	if j.traced {
		tr = dmtcpsim.NewTracer()
	}
	// Set-up and the measured phase each start on a freshly collected
	// heap, so the collections inside them depend on their own
	// allocations only, not on what ran before.  Both start and end on a
	// sample of the host clock, so their host seconds are exact.
	runtime.GC()
	c.built = clock.sample()
	if err := catch(func() {
		c.s = dmtcpsim.New(dmtcpsim.Options{Seed: seed, Nodes: nodes, Checkpoint: cfg, Jitter: jitter, Tracer: tr})
	}); err != nil {
		j.attempted++
		j.failed++
		j.errorf(c.id, "build: %v", err)
		return
	}
	cut := drive(c.s, deadline, func(t *dmtcpsim.Task) {
		c.t = t
		scenario(c)
		c.finish()
	})
	j.drive += clock.now() - c.built
	j.events += c.s.Eng.EventsFired()
	if cut != nil {
		if c.cur == "" {
			j.attempted++ // the cut landed between operations
		}
		j.failed++
		j.errorf(c.id, "%s cut short: %s", c.cur, firstLine(cut.Error()))
	}
	if tr != nil {
		for _, e := range tr.Events() {
			if e.Phase == 'X' {
				j.obsSpans++
			}
		}
	}
	m := c.s.Sys.Coord.Mach
	j.journalKB += float64(len(m.JournalBytes())) / 1024
	j.attempted++
	if ns, err := replayCost(m); err != nil {
		j.failed++
		j.errorf(c.id, "journal replay: %v", err)
	} else if ns > 0 {
		j.replayNs = append(j.replayNs, ns)
	}
}

// replayCost replays the coordinator's materialized journal onto its
// snapshot, as a standby taking over does, and returns the host
// nanoseconds per entry (0 when there is nothing to replay).
func replayCost(m *coordstate.Machine) (float64, error) {
	base, snap := m.Snapshot()
	entries := m.EntriesSince(base)
	if len(entries) == 0 {
		return 0, nil
	}
	fresh := coordstate.NewMachine()
	if snap != nil {
		if err := fresh.InstallSnapshot(base, snap); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for _, e := range entries {
		if _, err := fresh.ApplyEntry(e); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(entries)), nil
}

// cycle is one cluster of a job, as seen from the task driving it.
// Operations run in order; once one fails, the rest are skipped.
type cycle struct {
	j    *job
	s    *dmtcpsim.Sim
	t    *dmtcpsim.Task
	id   string // shared by every span of this cycle
	lazy bool
	rng  *rand.Rand // draws the cycle's inputs
	salt uint64     // rotates the heap working sets this cycle dirties

	err      error
	cur      string        // operation in flight
	built    float64       // host clock when the cluster build began
	measured float64       // host clock when set-up ended; < 0 until it has
	alloc0   uint64        // bytes allocated when set-up ended
	launched time.Duration // virtual time of the first launch
}

// op runs one driven operation: it is counted, timed in virtual and
// host time, recorded as a span in traced jobs, and its error kept.
func (c *cycle) op(name string, fn func() error) {
	if c.err != nil {
		return
	}
	c.j.attempted++
	c.cur = name
	v0, h0 := c.t.Now(), clock.now()
	err := fn()
	host := clock.now() - h0
	c.cur = ""
	switch name {
	case "warm", "app", "run":
		c.j.hostApp += host
	case "checkpoint":
		c.j.hostCkpt += host
	case "restart":
		c.j.hostRestart += host
	}
	if c.j.traced {
		c.j.spans = append(c.j.spans, span{c.id, name, v0.Seconds(), c.t.Now().Seconds(), host})
	}
	if err != nil {
		c.err = err
		c.j.failed++
		c.j.errorf(c.id, "%s: %s", name, firstLine(err.Error()))
	}
}

func (c *cycle) launch(node dmtcpsim.NodeID, prog string, args ...string) {
	c.op("launch", func() error {
		if c.launched == 0 {
			c.launched = c.t.Now().Duration()
		}
		_, err := c.s.Launch(node, prog, args...)
		return err
	})
}

// wait lets the application run for d of virtual time while the scenario
// task idles.
func (c *cycle) wait(name string, d time.Duration) {
	c.op(name, func() error {
		c.t.Idle(d)
		return nil
	})
}

// setupDone ends the cycle's set-up: from here on host time and
// allocations count as measured work.
func (c *cycle) setupDone() {
	c.j.setup = append(c.j.setup, clock.sample()-c.built)
	runtime.GC()
	c.measured = clock.sample()
	c.alloc0 = readMetric("/gc/heap/allocs:bytes")
}

// finish closes a scenario that ran to its end.
func (c *cycle) finish() {
	if c.measured < 0 {
		return
	}
	c.j.host += clock.sample() - c.measured
	c.j.allocMB += float64(readMetric("/gc/heap/allocs:bytes")-c.alloc0) / (1 << 20)
	if c.err == nil {
		c.j.virtual += c.t.Now().Duration() - c.launched
	}
}

func (c *cycle) checkpoint() *dmtcpsim.CkptRound {
	var round *dmtcpsim.CkptRound
	seq := c.s.Sys.Coord.Mach.Seq()
	c.op("checkpoint", func() (err error) {
		round, err = c.s.Checkpoint(c.t)
		return err
	})
	if round != nil {
		c.j.rounds = append(c.j.rounds, roundRec{round, c.s.Sys.Coord.Mach.Seq() - seq})
	}
	return round
}

// waitIdle waits for replication to drain, recording how far it lagged
// the checkpoint before it.
func (c *cycle) waitIdle() {
	c.op("waitidle", func() error {
		v0 := c.t.Now()
		c.s.Sys.Replica.WaitIdle(c.t)
		c.j.lags = append(c.j.lags, c.t.Now().Sub(v0))
		return nil
	})
}

func (c *cycle) kill() {
	c.op("kill", func() error {
		if c.s.KillAll() == 0 {
			return errors.New("no checkpointed process to kill")
		}
		return nil
	})
}

func (c *cycle) restart(round *dmtcpsim.CkptRound, place dmtcpsim.Placement) {
	c.op("restart", func() error {
		st, err := c.s.Restart(c.t, round, place)
		if err == nil {
			c.j.restarts = append(c.j.restarts, restartRec{c.lazy, *st})
		}
		return err
	})
}

// runUntil lets the application run until path exists on node.  The
// drive's deadline bounds the wait; polling every 10 ms keeps the time
// to solution exact to that grain.
func (c *cycle) runUntil(node dmtcpsim.NodeID, path string) {
	c.op("run", func() error {
		fs := c.s.C.Node(node).FS
		for !fs.Exists(path) {
			c.t.Idle(10 * time.Millisecond)
		}
		return nil
	})
}

// heaps snapshots the [heap] chunk versions of every checkpointed
// process, keyed by the node it runs on.
func (c *cycle) heaps() map[string][]uint64 {
	out := make(map[string][]uint64)
	for _, p := range c.s.Sys.ManagedProcesses() {
		if a := p.Mem.Area("[heap]"); a != nil {
			out[p.Node.Hostname] = a.ChunkVersions()
		}
	}
	return out
}

// sameHeaps checks restored heaps against checkpointed ones; moved maps
// an original node to the node its process had to restart on.
func sameHeaps(want, got map[string][]uint64, moved map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d heaps restored, want %d", len(got), len(want))
	}
	for host, v := range want {
		if to, ok := moved[host]; ok {
			host = to
		}
		g, ok := got[host]
		switch {
		case !ok:
			return fmt.Errorf("no restored heap on %s", host)
		case !slices.Equal(g, v):
			return fmt.Errorf("heap chunk versions on %s differ from the checkpointed ones", host)
		}
	}
	return nil
}

// mix derives a positive per-cluster seed from the run seed
// (splitmix64 finalizer).
func mix(vals ...int64) int64 {
	var h uint64
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h>>2) | 1
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
