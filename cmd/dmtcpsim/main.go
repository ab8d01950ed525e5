// Command dmtcpsim runs interactive demonstration scenarios of the
// DMTCP reproduction: launching workloads under checkpoint control,
// checkpointing them, killing everything, and restarting from images.
//
// Usage:
//
//	dmtcpsim -scenario <name> [-nodes n] [-trace out.json] [-report]
//
// Pass an unknown scenario name to print the catalog.  -trace writes
// a Chrome trace-event JSON of the whole run (virtual time; load it
// at https://ui.perfetto.dev), and -report prints the span/counter
// summary after the scenario output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	dmtcpsim "repro"
	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// scenOpts carries the command-line knobs into a scenario.
type scenOpts struct {
	nodes  int
	tracer *dmtcpsim.Tracer
}

// options assembles per-Sim options with the shared tracer attached;
// scenarios that build several Sims call it once per Sim, which keeps
// each simulation a separate process group in the trace.
func (o scenOpts) options(nodes int, cfg dmtcpsim.Config) dmtcpsim.Options {
	return dmtcpsim.Options{Nodes: nodes, Checkpoint: cfg, Tracer: o.tracer}
}

// scenario is one registry entry; the -scenario flag help, the
// catalog listing, and the dispatch all derive from the registry, so
// adding a scenario is a one-line change.
type scenario struct {
	name string
	desc string
	run  func(scenOpts)
}

var scenarios = []scenario{
	{"quickstart", "checkpoint and restart a desktop application (matlab)", quickstart},
	{"mpi", "checkpoint an OpenMPI NAS-LU run across the cluster and restart it", mpiScenario},
	{"migrate", "checkpoint a cluster job and restart every rank on one node", migrate},
	{"vnc", "checkpoint a headless VNC session (server + twm + xterm)", vnc},
	{"store", "incremental checkpoint generations through the chunk store", storeScenario},
	{"failover", "node failure and recovery from replicated checkpoint storage", failoverScenario},
	{"coord-failover", "coordinator node failure and journaled standby takeover", coordFailoverScenario},
	{"zero-loss", "mid-round coordinator kill resumed by the standby, then replica re-fan-out", zeroLossScenario},
	{"pipeline", "parallel pipelined checkpoint writes across worker counts", pipelineScenario},
	{"restore", "streamed restore pipeline vs serial fetch-then-install", restoreScenario},
	{"lazy-restore", "post-copy restart: skeleton resume, demand faults, striped prefetch", lazyRestoreScenario},
	{"straggler", "slow loaded node: straggler scoring and the worker-hint response", stragglerScenario},
	{"chaos", "chaos schedule: leader partition, lossy links, bit rot, node death", chaosScenario},
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}

func main() {
	var (
		name   = flag.String("scenario", "quickstart", "one of "+scenarioNames())
		nodes  = flag.Int("nodes", 4, "cluster size")
		trace  = flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		report = flag.Bool("report", false, "print the span/counter report after the scenario")
		cp     = flag.String("cp", "", "write the critical-path analysis as JSON (CI span-partition checks)")
	)
	flag.Parse()
	var run func(scenOpts)
	for _, s := range scenarios {
		if s.name == *name {
			run = s.run
			break
		}
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "unknown scenario %q; available:\n", *name)
		for _, s := range scenarios {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", s.name, s.desc)
		}
		os.Exit(2)
	}
	o := scenOpts{nodes: *nodes}
	if *trace != "" || *report || *cp != "" {
		o.tracer = dmtcpsim.NewTracer()
	}
	run(o)
	if *cp != "" {
		data, err := json.Marshal(dmtcpsim.AnalyzeTrace(o.tracer))
		if err == nil {
			err = os.WriteFile(*cp, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write critical path: %v\n", err)
			os.Exit(1)
		}
	}
	if *trace != "" {
		// Draw the critical path as flow arrows before serializing.
		dmtcpsim.AnnotateFlows(o.tracer)
		if err := os.WriteFile(*trace, o.tracer.ChromeTrace(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %s (%d events, %d run(s)) — load it at https://ui.perfetto.dev\n",
			*trace, len(o.tracer.Events()), o.tracer.Runs())
	}
	if *report {
		dmtcpsim.AttachAnalyzer(o.tracer)
		fmt.Print(o.tracer.Report())
	}
}

func quickstart(o scenOpts) {
	s := dmtcpsim.New(o.options(o.nodes, dmtcpsim.Config{Compress: true}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("launching matlab under dmtcp_checkpoint ...")
		if _, err := s.Launch(0, apps.ProgName("matlab")); err != nil {
			panic(err)
		}
		t.Compute(500 * time.Millisecond)
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("checkpointed %d process(es) in %v (%d MB compressed)\n",
			round.NumProcs, round.Stages.Total.Round(time.Millisecond), round.Bytes>>20)
		fmt.Printf("restart script:\n%s", dmtcpsim.RestartScript(round))
		s.KillAll()
		stats, err := s.Restart(t, round, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("restarted in %v (memory restore %v)\n",
			stats.Total.Round(time.Millisecond), stats.Memory.Round(time.Millisecond))
	})
}

func mpiScenario(o scenOpts) {
	nodes := o.nodes
	s := dmtcpsim.New(o.options(nodes, dmtcpsim.Config{Compress: true}))
	s.Run(func(t *dmtcpsim.Task) {
		np := nodes * 4
		fmt.Printf("orterun -np %d nas-lu under DMTCP ...\n", np)
		if _, err := s.Launch(0, "orterun", strconv.Itoa(np), "4", "0",
			strconv.Itoa(mpi.BasePort), "nas-lu", "5"); err != nil {
			panic(err)
		}
		t.Compute(400 * time.Millisecond)
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("checkpointed %d processes (ranks + orteds + orterun) in %v\n",
			round.NumProcs, round.Stages.Total.Round(time.Millisecond))
		s.KillAll()
		if _, err := s.Restart(t, round, nil); err != nil {
			panic(err)
		}
		fmt.Println("restarted; waiting for the benchmark to verify ...")
		deadline := t.Now().Add(120 * time.Second)
		for t.Now() < deadline && !s.C.Node(0).FS.Exists("/out/nas-lu.verify") {
			t.Compute(100 * time.Millisecond)
		}
		if ino, err := s.C.Node(0).FS.ReadFile("/out/nas-lu.verify"); err == nil {
			spec, _ := npb.SpecFor("nas-lu")
			fmt.Printf("%s\n", ino.Data)
			fmt.Printf("expected: %s\n", (&npb.Kernel{Spec: spec}).FormatVerify(np))
		} else {
			fmt.Println("benchmark did not finish in time")
		}
	})
}

func migrate(o scenOpts) {
	nodes := o.nodes
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{Compress: true, CkptDir: "/san/ckpt"}))
	s.Run(func(t *dmtcpsim.Task) {
		np := nodes
		fmt.Printf("running a %d-rank job across the cluster ...\n", np)
		if _, err := s.Launch(0, "orterun", strconv.Itoa(np), "1", "0",
			strconv.Itoa(mpi.BasePort), "nas-ep", "10"); err != nil {
			panic(err)
		}
		t.Compute(400 * time.Millisecond)
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		s.KillAll()
		laptop := dmtcpsim.NodeID(nodes - 1)
		place := dmtcpsim.Placement{}
		for _, img := range round.Images {
			place[img.Host] = laptop
		}
		fmt.Printf("restarting all %d processes on node%02d (the laptop) ...\n",
			len(round.Images), laptop)
		if _, err := s.Restart(t, round, place); err != nil {
			panic(err)
		}
		t.Compute(100 * time.Millisecond)
		for _, p := range s.Sys.ManagedProcesses() {
			fmt.Printf("  %-12s now on %s\n", p.ProgName, p.Node.Hostname)
		}
	})
}

func storeScenario(o scenOpts) {
	s := dmtcpsim.New(o.options(1,
		dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 2}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("launching a 256 MB process; checkpoints go through the chunk store ...")
		if _, err := s.Launch(0, dmtcpsim.DirtyAppName, "256"); err != nil {
			panic(err)
		}
		t.Compute(300 * time.Millisecond)
		for gen := 1; gen <= 4; gen++ {
			round, err := s.Checkpoint(t)
			if err != nil {
				panic(err)
			}
			img := round.Images[0]
			fmt.Printf("gen %d: write %v  new chunks %d/%d  wrote %.1f MB  dedup %.1f MB\n",
				img.Generation, round.Stages.Write.Round(time.Millisecond),
				img.NewChunks, img.Chunks,
				float64(round.Bytes)/(1<<20), float64(round.DedupBytes)/(1<<20))
			if round.GC != nil {
				fmt.Printf("       gc: %d manifests, %d live chunks, %d swept (%d pruned)\n",
					round.GC.Manifests, round.GC.Live, round.GC.Swept, round.GC.Pruned)
			}
			// Dirty 10% of the heap between generations.
			for _, p := range s.Sys.ManagedProcesses() {
				dmtcpsim.TouchHeap(p, 0.10, uint64(gen))
			}
			t.Compute(100 * time.Millisecond)
		}
		last := s.Sys.Coord.LastRound()
		s.KillAll()
		stats, err := s.Restart(t, last, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("restarted from manifest generation %d in %v\n",
			last.Images[0].Generation, stats.Total.Round(time.Millisecond))
	})
}

func failoverScenario(o scenOpts) {
	nodes := o.nodes
	if nodes < 3 {
		nodes = 3
	}
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 3, ReplicaFactor: 2}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("launching a 128 MB process on node01; generations replicate to 2 peers ...")
		if _, err := s.Launch(1, dmtcpsim.DirtyAppName, "128"); err != nil {
			panic(err)
		}
		t.Compute(300 * time.Millisecond)
		var prev int64
		for gen := 1; gen <= 3; gen++ {
			if _, err := s.Checkpoint(t); err != nil {
				panic(err)
			}
			s.Sys.Replica.WaitIdle(t)
			sent := s.Sys.Replica.Stats.BytesSent
			fmt.Printf("gen %d committed and replicated: %.1f MB shipped to peers\n",
				gen, float64(sent-prev)/(1<<20))
			prev = sent
			for _, p := range s.Sys.ManagedProcesses() {
				dmtcpsim.TouchHeap(p, 0.10, uint64(gen))
			}
			t.Compute(100 * time.Millisecond)
		}
		fmt.Println("killing node01 (processes, checkpoints, and chunk store all lost) ...")
		s.KillNode(1)
		rec, err := s.Recover(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("recovered on %s from generation %d in %v (fetched %.2f MB from peers)\n",
			rec.Targets["node01"], rec.Round.Images[0].Generation,
			rec.Took.Round(time.Millisecond), float64(rec.Stats.FetchedBytes)/(1<<20))
		t.Compute(100 * time.Millisecond)
		for _, p := range s.Sys.ManagedProcesses() {
			fmt.Printf("  %-12s now on %s\n", p.ProgName, p.Node.Hostname)
		}
	})
}

func coordFailoverScenario(o scenOpts) {
	nodes := o.nodes
	if nodes < 4 {
		nodes = 4
	}
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{CoordNode: 1, Compress: true, Store: true,
			StoreKeep: 3, ReplicaFactor: 2, CoordStandbys: 1}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("coordinator on node01 journals its state machine to a standby on node02 ...")
		if _, err := s.Launch(3, dmtcpsim.DirtyAppName, "128"); err != nil {
			panic(err)
		}
		t.Compute(300 * time.Millisecond)
		for gen := 1; gen <= 2; gen++ {
			round, err := s.Checkpoint(t)
			if err != nil {
				panic(err)
			}
			s.Sys.Replica.WaitIdle(t)
			fmt.Printf("gen %d checkpointed in %v under %s (journal: %d entries, %.1f KB shipped)\n",
				gen, round.Stages.Total.Round(time.Millisecond), s.Sys.Coord.Node.Hostname,
				s.Sys.Replica.Stats.JournalEntries,
				float64(s.Sys.Replica.Stats.JournalBytes)/1024)
			for _, p := range s.Sys.ManagedProcesses() {
				dmtcpsim.TouchHeap(p, 0.10, uint64(gen))
			}
			t.Compute(100 * time.Millisecond)
		}
		fmt.Println("killing node01 — the coordinator dies with its node ...")
		killAt := t.Now()
		s.KillNode(1)
		for s.Sys.Coord.Node.Down {
			t.Compute(10 * time.Millisecond)
		}
		fmt.Printf("standby on %s took over in %v (replayed %d rounds from the journal)\n",
			s.Sys.Coord.Node.Hostname, t.Now().Sub(killAt).Round(time.Millisecond),
			len(s.Sys.Coord.Rounds()))
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("post-takeover checkpoint: %d process(es) in %v — the manager resynced mid-computation\n",
			round.NumProcs, round.Stages.Total.Round(time.Millisecond))
		fmt.Println("killing node03 too — data-plane recovery now runs under the promoted standby ...")
		s.Sys.Replica.WaitIdle(t)
		s.KillNode(3)
		rec, err := s.Recover(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("recovered on %s from generation %d in %v\n",
			rec.Targets["node03"], rec.Round.Images[0].Generation,
			rec.Took.Round(time.Millisecond))
		t.Compute(100 * time.Millisecond)
		for _, p := range s.Sys.ManagedProcesses() {
			fmt.Printf("  %-12s now on %s\n", p.ProgName, p.Node.Hostname)
		}
	})
}

func zeroLossScenario(o scenOpts) {
	nodes := o.nodes
	if nodes < 5 {
		nodes = 5
	}
	s := dmtcpsim.New(o.options(nodes,
		dmtcpsim.Config{CoordNode: 1, Compress: true, Store: true,
			StoreKeep: 3, ReplicaFactor: 2, CoordStandbys: 1}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("zero-loss control plane: synchronous barrier commits, mid-round takeover, replica re-fan-out ...")
		if _, err := s.Launch(3, dmtcpsim.DirtyAppName, "128"); err != nil {
			panic(err)
		}
		t.Compute(300 * time.Millisecond)
		if _, err := s.Checkpoint(t); err != nil {
			panic(err)
		}
		s.Sys.Replica.WaitIdle(t)

		// Part 1: kill the leader after the drain barrier commits; the
		// standby must resume the same round, losing none.
		co := s.Sys.Coord
		preRounds := len(co.Rounds())
		fmt.Println("requesting a checkpoint; killing the coordinator once the drain barrier has committed ...")
		var round *dmtcpsim.CkptRound
		var cerr error
		done := false
		t.P.SpawnTask("req", false, func(rt *dmtcpsim.Task) {
			round, cerr = s.Checkpoint(rt)
			done = true
		})
		killTag := int64(-1)
		for !done {
			if r := co.Mach.State().Round; r != nil && r.Released["drained"] {
				killTag = r.Tag
				break
			}
			t.Compute(time.Millisecond)
		}
		killAt := t.Now()
		s.KillNode(1)
		for s.Sys.Coord.Node.Down {
			t.Compute(10 * time.Millisecond)
		}
		fmt.Printf("standby on %s took over in %v with round tag %d mid-flight\n",
			s.Sys.Coord.Node.Hostname, t.Now().Sub(killAt).Round(time.Millisecond), killTag)
		for !done {
			t.Compute(10 * time.Millisecond)
		}
		if cerr != nil {
			panic(cerr)
		}
		lost := preRounds + 1 - len(s.Sys.Coord.Rounds())
		fmt.Printf("round resumed and completed under the standby: %d process(es), write %v\n",
			round.NumProcs, round.Stages.Write.Round(time.Millisecond))
		fmt.Printf("rounds lost on takeover: %d\n", lost)

		// Part 2: kill a replica holder; the promoted coordinator
		// detects the degraded generations and re-fans-out from
		// surviving holders until redundancy is back.
		s.Sys.Replica.WaitIdle(t)
		co = s.Sys.Coord
		st := co.Mach.State()
		victim := ""
		for _, name := range sortedKeys(st.Placement) {
			pi := st.Placement[name]
			for _, h := range pi.HolderHosts() {
				n := s.C.LookupHost(h)
				if n == nil || n.Down || h == "node00" || h == co.Node.Hostname || h == pi.Host {
					continue
				}
				victim = h
			}
		}
		if victim == "" {
			panic("no expendable replica holder found")
		}
		fmt.Printf("killing replica holder %s — background re-fan-out restores redundancy ...\n", victim)
		before := s.Sys.Replica.Stats.RepairPushes
		s.KillNode(s.C.LookupHost(victim).ID)
		for co.LastRebalance <= 0 || !co.RepairIdle() {
			t.Compute(10 * time.Millisecond)
		}
		fmt.Printf("rebalance restored %d copies in %v (QoS-paced at %.0f%% of push bandwidth)\n",
			s.Sys.Replica.Stats.RepairPushes-before, co.LastRebalance.Round(time.Millisecond),
			100*s.C.Params.RepairQoS)
		if _, err := s.Checkpoint(t); err != nil {
			panic(err)
		}
		fmt.Println("post-repair checkpoint round clean: the control plane lost nothing")
	})
}

func pipelineScenario(o scenOpts) {
	// One run per worker count: each sweeps a fresh 2-node cluster so
	// the generations line up (gen 1 cold start, gen 2 at 100% dirty).
	fmt.Println("parallel pipelined checkpoint write: 256 MB process, 100% dirty, 4-core nodes ...")
	var serial time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		s := dmtcpsim.New(o.options(2,
			dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 2,
				ReplicaFactor: 1, CkptWorkers: workers}))
		s.Run(func(t *dmtcpsim.Task) {
			if _, err := s.Launch(0, dmtcpsim.DirtyAppName, "256"); err != nil {
				panic(err)
			}
			t.Compute(300 * time.Millisecond)
			if _, err := s.Checkpoint(t); err != nil {
				panic(err)
			}
			for _, p := range s.Sys.ManagedProcesses() {
				dmtcpsim.TouchHeap(p, 1.0, 1)
			}
			t.Compute(100 * time.Millisecond)
			round, err := s.Checkpoint(t)
			if err != nil {
				panic(err)
			}
			if workers == 1 {
				serial = round.Stages.Write
			}
			fmt.Printf("  %d worker(s): write %6v  speedup %.2fx  overlap %5.1f MB of %5.1f MB shipped before commit\n",
				workers, round.Stages.Write.Round(time.Millisecond),
				float64(serial)/float64(round.Stages.Write),
				float64(round.OverlapBytes)/(1<<20), float64(round.Bytes)/(1<<20))
			s.Sys.Replica.WaitIdle(t)
		})
	}
	fmt.Println("4 cores per node: 8 workers buy nothing over 4 — the core accounting is honest")
}

func restoreScenario(o scenOpts) {
	// One fresh 3-node cluster per run: the image is written on node01,
	// the restart lands on cold node00, so every chunk crosses the
	// network — the node-failure recovery / migration path.
	fmt.Println("streamed restore pipeline: remote-fetch restart of a 256 MB process, 4-core nodes ...")
	// run restarts once and returns the time spent pulling chunks
	// before the restart (serial baseline only) and the restart stats.
	run := func(workers int, serial bool) (time.Duration, *dmtcpsim.RestartStages) {
		s := dmtcpsim.New(o.options(3,
			dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 2,
				ReplicaFactor: 1, CkptWorkers: workers}))
		var pull time.Duration
		var stats *dmtcpsim.RestartStages
		s.Run(func(t *dmtcpsim.Task) {
			if _, err := s.Launch(1, dmtcpsim.DirtyAppName, "256"); err != nil {
				panic(err)
			}
			t.Compute(300 * time.Millisecond)
			round, err := s.Checkpoint(t)
			if err != nil {
				panic(err)
			}
			s.Sys.Replica.WaitIdle(t)
			s.KillAll()
			if serial {
				pull, stats, err = experiments.FetchThenInstall(t, s.Sys, round)
			} else {
				stats, err = s.Restart(t, round, dmtcpsim.Placement{"node01": 0})
			}
			if err != nil {
				panic(err)
			}
		})
		return pull, stats
	}
	pull, base := run(1, true)
	baseTotal := pull + base.Total
	fmt.Printf("  fetch-then-install baseline, 1 worker: restart %7v  (fetch %v, then install)\n",
		baseTotal.Round(time.Millisecond), pull.Round(time.Millisecond))
	for _, workers := range []int{1, 2, 4, 8} {
		_, st := run(workers, false)
		fmt.Printf("  streamed, %d worker(s): restart %7v  speedup %.2fx  (%5.1f MB of %5.1f MB installed before the fetch ended)\n",
			workers, st.Total.Round(time.Millisecond),
			float64(baseTotal)/float64(st.Total),
			float64(st.OverlapBytes)/(1<<20), float64(st.FetchedBytes)/(1<<20))
	}
	fmt.Println("already-local chunks skip the network stage; recovery and migration ride the same pipeline")
}

func lazyRestoreScenario(o scenOpts) {
	// Post-copy restart of a 256 MB process on a cold node: install a
	// skeleton (manifest, files, conns, hottest chunks), resume
	// immediately, and drain the rest in the background — striped
	// across every placement-verified complete holder, hottest first,
	// with first-touch demand faults preempting the prefetch queue.
	// Uncompressed images: post-copy cannot afford gunzip on the
	// demand-fault path.
	fmt.Println("lazy post-copy restore: 256 MB process, checkpoint replicated to 3 holders ...")
	run := func(lazy bool, holders int) *dmtcpsim.RestartStages {
		cfg := dmtcpsim.Config{Compress: false, Store: true, StoreKeep: 2,
			ReplicaFactor: 3, CkptWorkers: 4, LazyRestore: lazy, LazyHolders: holders}
		s := dmtcpsim.New(o.options(5, cfg))
		var stats *dmtcpsim.RestartStages
		s.Run(func(t *dmtcpsim.Task) {
			if _, err := s.Launch(1, dmtcpsim.LazyAppName, "256"); err != nil {
				panic(err)
			}
			t.Compute(300 * time.Millisecond)
			round, err := s.Checkpoint(t)
			if err != nil {
				panic(err)
			}
			s.Sys.Replica.WaitIdle(t)
			s.KillAll()
			if stats, err = s.Restart(t, round, dmtcpsim.Placement{"node01": 0}); err != nil {
				panic(err)
			}
		})
		return stats
	}
	full := run(false, 0)
	fmt.Printf("  full install (streamed):  resumed after %7v  (%5.1f MB fetched before resume)\n",
		full.Total.Round(time.Millisecond), float64(full.FetchedBytes)/(1<<20))
	single := run(true, 1)
	fmt.Printf("  lazy, 1 holder:           resumed after %7v  drain %7v  (%d demand faults, %5.1f MB on-demand)\n",
		single.ResumePause.Round(time.Millisecond), single.PrefetchDrain.Round(time.Millisecond),
		single.DemandFaults, float64(single.DemandBytes)/(1<<20))
	striped := run(true, 0)
	fmt.Printf("  lazy, striped x4 holders: resumed after %7v  drain %7v  (%d demand faults, %5.1f MB on-demand)\n",
		striped.ResumePause.Round(time.Millisecond), striped.PrefetchDrain.Round(time.Millisecond),
		striped.DemandFaults, float64(striped.DemandBytes)/(1<<20))
	fmt.Printf("resume pause %.1f%% of full-install MTTR; striped drain %.2fx faster than one holder\n",
		100*float64(striped.ResumePause)/float64(full.Total),
		float64(single.PrefetchDrain)/float64(striped.PrefetchDrain))
}

func stragglerScenario(o scenOpts) {
	// node01 runs at 1/3 speed under three background burners; the
	// health plane's heartbeats give the coordinator its core count, the
	// first round's per-host write times score it a straggler, and the
	// next round's checkpoint frame carries a worker hint that floors
	// its adaptive pool at the full core count.  The control run
	// disables the health plane (HeartbeatInterval=0): no registry, no
	// hints, the loaded straggler keeps its 1-worker adaptive pool.
	run := func(response bool) (r1, r2 *dmtcpsim.CkptRound) {
		s := dmtcpsim.New(o.options(3,
			dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 2, ReplicaFactor: 1}))
		if !response {
			s.C.Params.HeartbeatInterval = 0
		}
		s.SlowNode("node01", 3)
		s.Register("burner", dmtcpsim.ProgramFunc(func(t *dmtcpsim.Task, _ []string) {
			for {
				t.Compute(2 * time.Millisecond)
			}
		}))
		s.Run(func(t *dmtcpsim.Task) {
			for n := 0; n < 3; n++ {
				if _, err := s.Launch(dmtcpsim.NodeID(n), dmtcpsim.DirtyAppName, "96"); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 3; i++ {
				if _, err := s.C.Node(1).Kern.Spawn("burner", nil, nil); err != nil {
					panic(err)
				}
			}
			t.Compute(300 * time.Millisecond)
			// Touch every chunk once so each process's heap carries its
			// own write versions: untouched chunks hash under a shared
			// scope and would dedup against replica copies of the other
			// nodes' identical heaps, hiding the straggler's write cost.
			for _, p := range s.Sys.ManagedProcesses() {
				dmtcpsim.TouchHeap(p, 1.0, 1)
			}
			t.Compute(100 * time.Millisecond)
			var err error
			if r1, err = s.Checkpoint(t); err != nil {
				panic(err)
			}
			s.Sys.Replica.WaitIdle(t)
			for _, p := range s.Sys.ManagedProcesses() {
				dmtcpsim.TouchHeap(p, 1.0, 2)
			}
			t.Compute(100 * time.Millisecond)
			if r2, err = s.Checkpoint(t); err != nil {
				panic(err)
			}
			s.Sys.Replica.WaitIdle(t)
		})
		return r1, r2
	}
	fmt.Println("straggler: node01 at 1/3 speed under background load; 3x 96 MB processes, adaptive worker pools ...")
	r1, r2 := run(true)
	fmt.Println("  with the health plane (heartbeat -> straggler score -> next-round worker hint):")
	scores := r1.StragglerScores()
	for _, h := range sortedKeys(r1.WriteByHost) {
		mark := ""
		if scores[h] >= dmtcpsim.StragglerThreshold {
			mark = "  <- straggler"
		}
		fmt.Printf("    round 1 write %-7s %8v  score %.2f%s\n",
			h, r1.WriteByHost[h].Round(time.Millisecond), scores[h], mark)
	}
	for _, h := range sortedKeys(r1.WorkerHints) {
		fmt.Printf("    next-round hint: %s -> %d workers\n", h, r1.WorkerHints[h])
	}
	fmt.Printf("    round 2 write: %v\n", r2.Stages.Write.Round(time.Millisecond))
	_, b2 := run(false)
	fmt.Printf("  without it (HeartbeatInterval=0): round 2 write %v\n",
		b2.Stages.Write.Round(time.Millisecond))
	fmt.Printf("  the hint bought %.2fx on the straggler-bound round\n",
		float64(b2.Stages.Write)/float64(r2.Stages.Write))
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func vnc(o scenOpts) {
	s := dmtcpsim.New(o.options(1, dmtcpsim.Config{Compress: true}))
	s.Run(func(t *dmtcpsim.Task) {
		fmt.Println("checkpointing a headless VNC session (server + twm + xterm) ...")
		if _, err := s.Launch(0, apps.ProgName("tightvnc+twm")); err != nil {
			panic(err)
		}
		t.Compute(500 * time.Millisecond)
		round, err := s.Checkpoint(t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("checkpointed %d processes in %v (%d MB)\n",
			round.NumProcs, round.Stages.Total.Round(time.Millisecond), round.Bytes>>20)
		s.KillAll()
		if _, err := s.Restart(t, round, nil); err != nil {
			panic(err)
		}
		fmt.Println("session restored; clients may reconnect")
	})
}
