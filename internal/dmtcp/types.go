// Package dmtcp implements the paper's primary contribution: the
// distributed layer of the two-layer checkpointing design.  It
// provides the checkpoint coordinator (barriers, discovery service),
// the per-process checkpoint manager thread and libc wrappers
// (installed through the kernel's hook interface, the simulation's
// LD_PRELOAD), the seven-stage checkpoint algorithm with six global
// barriers (§4.3), the restart program that rebuilds process trees
// and reconnects sockets through the discovery service (§4.4), pid
// virtualization (§4.5), forked checkpointing (§5.3), and the
// dmtcpaware programming interface (§3.1).
package dmtcp

import (
	"fmt"
	"time"

	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/store"
)

// GUID is a globally unique socket identifier: (host, pid, timestamp,
// per-process connection number), exactly the tuple of §4.4.
type GUID string

// MakeGUID builds a socket GUID.
func MakeGUID(host string, pid kernel.Pid, now int64, seq int64) GUID {
	return GUID(fmt.Sprintf("%s:%d:%d:%d", host, pid, now, seq))
}

// SockMeta is the wrapper layer's record of one stream socket or
// promoted pipe, keyed by the kernel open-file description so that
// descriptors shared across fork and dup2 map to a single record.
type SockMeta struct {
	GUID     GUID
	Acceptor bool // this side called accept()
}

// StageTimes breaks a checkpoint into the stages of Table 1a.
type StageTimes struct {
	Suspend time.Duration
	Elect   time.Duration
	Drain   time.Duration
	Write   time.Duration
	Refill  time.Duration
	Total   time.Duration
}

// ImageInfo describes one per-process checkpoint file: its placement,
// as the coordinator journaled it, plus the write statistics its
// manager reported in process.
type ImageInfo struct {
	coordstate.ImageInfo
	Bytes int64 // bytes written this round (new chunks + manifest in store mode)
	Raw   int64 // uncompressed footprint

	// Store-mode statistics (zero for monolithic images).
	Chunks    int   // chunks referenced by the manifest
	NewChunks int   // chunks actually written this round
	Dedup     int64 // stored bytes avoided via dedup

	// Pipeline statistics.
	Workers int   // parallel writer tasks the image used
	Overlap int64 // stored bytes at the farthest-ahead peer by commit
}

// CkptRound is the record of one completed cluster-wide checkpoint:
// the coordinator's replicated round joined with the reports its
// managers handed over in process (see System.roundRecords).
type CkptRound struct {
	Index    int
	NumProcs int
	// Start and End bound the round in virtual time (Start from the
	// opening broadcast, End from the closing barrier event), so the
	// observability layer can place the round on a trace timeline.
	Start    sim.Time
	End      sim.Time
	Stages   StageTimes
	Bytes    int64 // aggregate on-disk
	RawBytes int64 // aggregate uncompressed
	SyncCost time.Duration
	Images   []ImageInfo
	Compress bool
	Forked   bool

	// Store is true when the round went through the chunk store;
	// DedupBytes aggregates the stored bytes dedup avoided writing,
	// and GC reports the leader's post-round collection pass.
	Store      bool
	DedupBytes int64
	GC         *store.GCStats

	// OverlapBytes aggregates (across the round's images) the stored
	// bytes eager streaming had already replicated — per image, the
	// farthest-ahead peer's total — before the manifests committed:
	// the write/replication pipeline overlap.
	OverlapBytes int64

	// WriteByHost records each participating host's write-stage time;
	// WorkerHints is the coordinator's straggler response, per-host
	// write worker counts for the next round (see coordstate.CkptRound).
	WriteByHost map[string]time.Duration
	WorkerHints map[string]int
}

// StragglerScores returns each host's write time divided by the
// round's median write time (see coordstate.StragglerScores).
func (r *CkptRound) StragglerScores() map[string]float64 {
	return coordstate.StragglerScores(r.WriteByHost)
}

// RestartStages mirrors Table 1b, extended with the remote-fetch
// stage a restart pays when its images must be pulled from replica
// peers (recovery after node loss, store-mode migration).  Each
// dmtcp_restart fills one for its host and hands it to RestartAll in
// process, which aggregates the hosts' reports (aggregateRestarts).
type RestartStages struct {
	Files  time.Duration // reopen files and recreate ptys
	Conns  time.Duration // recreate and reconnect sockets
	Memory time.Duration // fork, rearrange FDs, restore memory/threads
	Refill time.Duration
	Total  time.Duration

	// Fetch is the time spent pulling manifests and missing chunks
	// from replica peers (max across hosts); FetchedBytes and
	// FetchedChunks total the data that actually traveled.
	Fetch         time.Duration
	FetchedBytes  int64
	FetchedChunks int

	// Streamed-restore pipeline statistics: Workers is the restore
	// pool size (max across hosts), and OverlapBytes totals the stored
	// bytes already decompressed/installed when the remote fetch
	// finished — the fetch/install overlap the pipeline bought over
	// fetch-then-install.  Fetch and Memory overlap on this path, so
	// Total can be less than the sum of the stages.
	Workers      int
	OverlapBytes int64

	// Lazy (post-copy) restore statistics, zero on the eager paths.
	// ResumePause is the wall time until the restored processes were
	// running again (skeleton + files + conns + fork/resume, max
	// across hosts) — the paper's user-visible restart pause.
	// PrefetchDrain is the post-resume tail until every absent chunk
	// was pulled and installed.  Total covers both.  DemandBytes /
	// DemandFaults account the chunks a blocked fault waited on;
	// PrefetchBytes the chunks the background prefetcher landed first.
	// Skeleton, demand, and prefetch bytes sum to FetchedBytes.
	ResumePause   time.Duration
	PrefetchDrain time.Duration
	DemandBytes   int64
	PrefetchBytes int64
	DemandFaults  int
}
