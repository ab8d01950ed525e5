package main

import (
	"fmt"
	"strconv"
	"time"

	dmtcpsim "repro"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// workload is one set of inputs the benchmark runs: core jobs, each with
// inputs drawn from the seed, run in passes (main.go).  The first pass
// alone carries the virtual-time metrics, so those are a function of the
// seed; every pass feeds the host-cost metrics.
type workload struct {
	name string
	core int
	job  func(*job)
	ref  refWork // calibrates its host costs (calibrate.go)
}

var workloads = []*workload{
	{name: "mpi-lu", core: 20, job: luJob(1), ref: dataRef},
	{name: "store-incr", core: 12, job: storeIncr, ref: handoffRef},
	{name: "restore-remote", core: 40, job: restoreRemote, ref: handoffRef},
}

// The paper's cluster path at the shape of its Table 1: OpenMPI on 8
// nodes with 4 ranks each, compressed monolithic images on local disk.
// NAS/LU stands in for Table 1's NAS/MG because MG does not verify after
// a restart at this scale.
const (
	luNodes    = 8
	luRanks    = 32
	luProgram  = "nas-lu"
	luVerify   = "/out/nas-lu.verify"
	luDeadline = 120 * time.Second
)

// luJob launches NAS/LU and warms it, checkpoints, kills and restarts it
// in place restarts times, then lets it run to completion and checks
// rank 0's verification line.  The benchmark restarts once; a second
// restart is a known hang the runner must turn into a counted failure.
func luJob(restarts int) func(*job) {
	spec, _ := npb.SpecFor(luProgram)
	want := (&npb.Kernel{Spec: spec}).FormatVerify(luRanks)
	return func(j *job) {
		j.cluster(luNodes, dmtcpsim.Config{Compress: true}, luDeadline, func(c *cycle) {
			// The footprint is 95-105% of class C, so the seed moves image
			// sizes and with them restore times, which the model does not
			// jitter.
			scale := strconv.Itoa(95 + c.rng.Intn(11))
			c.launch(0, "orterun", strconv.Itoa(luRanks), strconv.Itoa(luRanks/luNodes), "0",
				strconv.Itoa(mpi.BasePort), luProgram, scale)
			c.wait("warm", 300*time.Millisecond)
			c.setupDone()
			for i := 0; i < restarts; i++ {
				if i > 0 {
					c.wait("app", 200*time.Millisecond)
				}
				round := c.checkpoint()
				c.kill()
				c.restart(round, nil)
			}
			c.runUntil(0, luVerify)
			c.op("verify", func() error {
				ino, err := c.s.C.Node(0).FS.ReadFile(luVerify)
				if err != nil {
					return err
				}
				if got := string(ino.Data); got != want {
					return fmt.Errorf("rank 0 wrote %q, want %q", got, want)
				}
				return nil
			})
		})
	}
}

// Write-heavy steady state: one 256 MB process per node of a 4-node
// cluster, every round dirtying 10% of each heap, through the
// deduplicating chunk store with one replica and a standby coordinator.
// The first generation, a full write that seeds the store, is part of
// the warm-up, so the checkpoint metrics describe the steady state.
const (
	storeNodes    = 4
	storeRounds   = 20
	storeDeadline = 300 * time.Second
)

func storeIncr(j *job) {
	cfg := dmtcpsim.Config{Compress: true, Store: true, StoreKeep: 2, ReplicaFactor: 1, CoordStandbys: 1}
	j.cluster(storeNodes, cfg, storeDeadline, func(c *cycle) {
		size := heapMB(c)
		for n := 0; n < storeNodes; n++ {
			c.launch(dmtcpsim.NodeID(n), dmtcpsim.DirtyAppName, size)
		}
		c.wait("warm", 200*time.Millisecond)
		c.op("seed", func() error {
			_, err := c.s.Checkpoint(c.t)
			return err
		})
		c.setupDone()
		var round *dmtcpsim.CkptRound
		for r := 0; r < storeRounds && c.err == nil; r++ {
			c.op("app", func() error {
				for _, p := range c.s.Sys.ManagedProcesses() {
					dmtcpsim.TouchHeap(p, 0.1, c.salt+uint64(r))
				}
				c.t.Idle(50 * time.Millisecond)
				return nil
			})
			round = c.checkpoint()
		}
		want := c.heaps()
		c.waitIdle()
		c.kill()
		c.restart(round, nil)
		c.op("verify", func() error { return sameHeaps(want, c.heaps(), nil) })
	})
}

// Read-heavy: a cycle checkpoints a 256 MB process on node1 through the
// store, replicated to two peers, and restarts it on node0, which holds
// none of its chunks, so every chunk crosses the network.  A job is two
// cycles, the eager streamed restore and then the lazy one, so both
// variants of the restore path stay measured.
const (
	restoreNodes    = 4
	restoreDeadline = 120 * time.Second
)

func restoreRemote(j *job) {
	for _, lazy := range []bool{false, true} {
		cfg := dmtcpsim.Config{Compress: true, Store: true, ReplicaFactor: 2, LazyRestore: lazy}
		j.cluster(restoreNodes, cfg, restoreDeadline, func(c *cycle) {
			c.launch(1, dmtcpsim.LazyAppName, heapMB(c))
			c.wait("warm", 200*time.Millisecond)
			c.setupDone()
			c.op("app", func() error {
				for _, p := range c.s.Sys.ManagedProcesses() {
					dmtcpsim.TouchHeap(p, 0.3, c.salt)
				}
				return nil
			})
			want := c.heaps()
			round := c.checkpoint()
			c.waitIdle()
			c.kill()
			from, to := c.s.C.Node(1).Hostname, c.s.C.Node(0)
			c.restart(round, dmtcpsim.Placement{from: to.ID})
			c.op("verify", func() error {
				return sameHeaps(want, c.heaps(), map[string]string{from: to.Hostname})
			})
		})
	}
}

// heapMB draws a cycle's heap size, 256 MB give or take 8, so the seed
// moves image sizes and with them write and restore times, which the
// model does not jitter, not only which chunks are dirty.
func heapMB(c *cycle) string { return strconv.Itoa(248 + c.rng.Intn(17)) }
