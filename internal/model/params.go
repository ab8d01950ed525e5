// Package model centralizes every calibrated constant used to charge
// virtual time in the simulated cluster, plus the gzip compression
// model.  All absolute timings produced by the reproduction are
// functions of these parameters; they are calibrated once against the
// anchor numbers the paper reports (Table 1, Figure 6 discussion,
// §5.2) and never tuned per experiment.
package model

import (
	"math/rand"
	"time"
)

// Byte-size units.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Params holds the calibrated performance model of the 2008-era
// cluster used in the paper (§5.2: dual-socket dual-core Xeon 5130
// nodes, Gigabit Ethernet, local SATA disks, EMC CX300 SAN) and of
// the checkpointing machinery itself.
type Params struct {
	// ---- CPU / kernel ----

	// SyscallCost is the base cost of an inexpensive system call.
	SyscallCost time.Duration
	// ForkBase plus ForkPerPage*(RSS/4KiB) is the cost of fork().
	// Anchor: Table 1a "write checkpoint" under forked checkpointing
	// is 0.0618 s for a ≈106 MB process → ≈2.2 µs per 4 KiB page.
	ForkBase    time.Duration
	ForkPerPage time.Duration
	// ExecCost is the cost of exec() image setup (library loading is
	// charged separately per mapped library area).
	ExecCost time.Duration
	// PageSize in bytes.
	PageSize int64
	// CoresPerNode is the number of CPU cores each simulated node
	// models.  Anchor: §5.2 — the paper's cluster nodes are dual-socket
	// dual-core Xeon 5130s, i.e. 4 cores.  Concurrent Task.Compute
	// charges on one node contend for these cores (runnable tasks
	// beyond the core count dilate every charge proportionally), which
	// is what bounds parallel checkpoint-writer speedup and makes the
	// §5.3 compression slowdown an emergent effect.  0 disables core
	// accounting.
	//
	// The scheduler also exposes the idle-core count
	// (kernel.CPUSched.IdleCores), which is what dmtcp.Config's
	// CkptWorkers: 0 ("auto") sizes the store-pipeline write/restore/
	// fetch worker pools from: all idle cores on a quiet node, fewer
	// beside busy co-tenants, never oversubscribing.
	CoresPerNode int

	// ---- MTCP / DMTCP machinery ----

	// SuspendQuantum is the dominant cost of interrupting all user
	// threads with the checkpoint signal: threads are at arbitrary
	// points and reach the handler after roughly a scheduler quantum.
	// Anchor: Table 1a "suspend user threads" ≈ 25 ms.
	SuspendQuantum time.Duration
	// SuspendPerThread is the per-thread signal delivery cost.
	SuspendPerThread time.Duration
	// FcntlCost is one fcntl() call (used heavily by the election).
	FcntlCost time.Duration
	// DrainSettle is the final poll timeout the drain loop uses to
	// conclude that a socket has no more in-flight data.  Only a
	// manager that drained a descriptor it leads pays it; one that
	// leads none has nothing to poll.  A round with any drained socket
	// still lasts at least this long, since the drained barrier waits
	// for that leader.  Anchor: Table 1a "drain kernel buffers" ≈
	// 0.10 s, nearly independent of scale (real DMTCP concludes
	// draining with a poll timeout).
	DrainSettle time.Duration
	// WriteSetup is the fixed cost of opening the image file and
	// writing headers.
	WriteSetup time.Duration
	// RestoreSetup is the fixed cost of the restart program mapping
	// in mtcp.so and preparing restore.
	RestoreSetup time.Duration
	// PerAreaCost is charged per VM area while writing or restoring
	// an image (mmap/munmap and header bookkeeping).  RunCMS's 540
	// dynamic libraries make this visible.
	PerAreaCost time.Duration

	// ---- Lazy (post-copy) restore ----

	// FaultTrapCost is the fixed kernel cost of one first-touch fault
	// on a lazily-restored chunk (trap, presence lookup, handler
	// dispatch) — the userfaultfd round a real lazy-pages restore
	// pays, on top of the demand pull itself.
	FaultTrapCost time.Duration
	// LazySkeletonChunks is how many of the hottest chunks the lazy
	// restore installs eagerly before resuming the process (the
	// skeleton); everything else arrives by demand fault or prefetch.
	LazySkeletonChunks int

	// ---- Network (Gigabit Ethernet) ----

	// NetLatency is the one-way small-message latency between nodes.
	NetLatency time.Duration
	// NetBandwidth is per-flow TCP throughput, bytes/sec.
	NetBandwidth float64
	// LoopbackLatency and LoopbackBandwidth apply within a node.
	LoopbackLatency   time.Duration
	LoopbackBandwidth float64
	// SocketBufBytes is the kernel socket buffer capacity (the upper
	// bound §5.4 gives for flush-and-resend cost: "tens of KB").
	SocketBufBytes int64
	// RetransTimeout is the base retransmission timeout a lossy link
	// (fault-injected Drop probability) charges per lost transmission;
	// successive losses of one frame back off exponentially from it.
	RetransTimeout time.Duration

	// ---- Storage ----

	// DiskAbsorbBW is the local-disk write rate while the page cache
	// has room (write-back).  The paper's own anchors disagree
	// slightly — Fig. 6 implies ≈315 MB/s per node, Table 1a implies
	// ≈650 MB/s — so we use 400 MB/s as the documented compromise
	// ("well beyond the typical 100 MB/s of disk", §5.2).
	DiskAbsorbBW float64
	// DiskPhysicalBW is the sustained physical write rate the cache
	// drains at.  Anchor: §5.2 sync experiment (+0.79 s for ≈60–100
	// MB/node of dirty compressed image) → ≈100 MB/s.
	DiskPhysicalBW float64
	// DiskReadBW is the restore-time streaming read rate.  Restarts
	// read images that were just written, so the page cache serves
	// them ("restart times also indicate the use of cache", §5.2).
	// Anchor: Table 1b uncompressed restore 0.814 s for 4×≈103 MB
	// per node → ≈500 MB/s aggregate.
	DiskReadBW float64
	// PageCacheBytes is the dirty-page capacity per node.
	PageCacheBytes int64

	// SANBandwidth is the aggregate bandwidth of the central RAID
	// volume behind the 4 Gb/s Fibre Channel switch (shared by the 8
	// directly attached nodes).
	SANBandwidth float64
	// NFSBandwidth is the aggregate bandwidth of the NFS re-export of
	// the SAN used by the other 24 nodes (single GigE server link).
	NFSBandwidth float64

	// ---- Compression (gzip 2008-era, one core) ----

	// GzipBW is gzip compression throughput over *input* bytes for
	// ordinary data.  Anchor: Table 1a compressed write 3.94 s for a
	// ≈106 MB image → ≈27 MB/s.
	GzipBW float64
	// GunzipBW is decompression throughput over *output* bytes.
	// Anchor: Table 1b compressed restore 2.12 s → ≈52 MB/s.
	GunzipBW float64
	// GzipZeroBW is compression throughput over zero-filled input
	// (run-length-ish fast path; drives the NAS/IS anomaly, §5.4).
	GzipZeroBW float64
	// GunzipZeroBW is decompression throughput over zero output.
	GunzipZeroBW float64

	// ---- Content-addressed checkpoint store ----

	// HashBW is content-fingerprint (SHA-256) throughput over input
	// bytes.  On the paper's Xeon 5130 cores sha256sum streams at
	// roughly 150 MB/s.  Since the kernel tracks per-chunk write
	// versions at store granularity (soft-dirty-bit style), chunk
	// identity derives from (scope, offset, write version) and the
	// write path only pays HashBW for the real payload bytes a chunk
	// carries — dirty detection itself is version-based, never a bulk
	// rescan (the fix for the old 100%-dirty "hash everything"
	// regression, where incremental writes were slower than full
	// rewrites).
	HashBW float64
	// ChunkLookupCost is one content-addressed index probe or insert
	// (an in-memory hash-table hit plus amortized metadata I/O).
	ChunkLookupCost time.Duration
	// ManifestEntryCost is the per-chunk cost of writing a manifest
	// record at checkpoint commit and of scanning one during GC mark.
	ManifestEntryCost time.Duration

	// ---- Replicated checkpoint storage / failure recovery ----

	// ReplicaRPCCost is the fixed server-side cost of handling one
	// replica-protocol request (frame decode, dispatch, reply setup) on
	// top of the modeled network transfer and per-chunk index probes.
	ReplicaRPCCost time.Duration
	// FailureDetectDelay is the failure-detector timeout charged
	// between a node dying and recovery beginning: the coordinator
	// only trusts a silent peer to be dead after missed heartbeats,
	// not on the first connection reset.
	FailureDetectDelay time.Duration
	// RepairQoS is the fraction of a replica daemon's push bandwidth
	// that background re-replication (repair after a holder died) may
	// consume: after shipping each chunk a repair push idles for
	// transfer×(1-q)/q, so app-driven replication and checkpoint
	// traffic always see at least (1-q) of the link.  Clamped to
	// (0, 1]; 1 disables pacing.
	RepairQoS float64

	// ---- Coordinator HA (journaled state machine + standby takeover) ----

	// JournalAppendCost is the per-entry cost of serializing and
	// appending one coordinator journal record (leader side) or of
	// decoding and applying one (standby side).
	JournalAppendCost time.Duration
	// JournalShipDelay is the batching window the leader's journal
	// shipper waits after a state change before pushing, so barrier
	// storms coalesce into one push per standby.
	JournalShipDelay time.Duration
	// JournalRetryDelay is how long the shipper backs off when a
	// standby's replica daemon is unreachable.
	JournalRetryDelay time.Duration
	// JournalSnapshotEntries is the compaction threshold: once the
	// materialized journal suffix exceeds this many entries at a round
	// boundary, the coordinator snapshots its state and truncates the
	// prefix, so a standby's catch-up cost is bounded by
	// snapshot + suffix instead of growing with session length.
	// 0 disables compaction.
	JournalSnapshotEntries int
	// ElectionTimeout is the extra delay a standby waits after the
	// failure detector fires before claiming leadership (lets a
	// higher-priority standby claim first in a real deployment).
	ElectionTimeout time.Duration
	// CoordRetryBase/Cap/Window parameterize the checkpoint manager's
	// reconnect backoff when its coordinator connection dies: retries
	// start at Base, double to Cap, and give up (with a typed error)
	// after Window.  Window must comfortably cover failure detection
	// plus election plus resync.  Every retry loop built on these (the
	// shared retry.Policy) jitters each delay by ±RetryJitterPct from
	// the seeded engine RNG, so a healed partition sees its reconnect
	// stampede spread out instead of synchronized.
	CoordRetryBase   time.Duration
	CoordRetryCap    time.Duration
	CoordRetryWindow time.Duration
	// RetryJitterPct is the bounded uniform jitter applied to every
	// retry.Policy backoff delay.  0 disables it (deterministic,
	// stampede-prone backoff).
	RetryJitterPct float64
	// ResyncWindow is the grace period after a takeover before the new
	// leader drops replayed clients that never reconnected (their
	// processes died while no coordinator was watching).
	ResyncWindow time.Duration
	// BarrierAckTimeout bounds the synchronous barrier commit: before a
	// release-bearing journal entry lets clients advance, the leader
	// ships it to every live standby and waits up to this long for the
	// acks (Raft-style commit).  On timeout the leader proceeds anyway —
	// the round stays live but its resume guarantee degrades to the
	// resync repair path — so a dead standby can slow rounds by at most
	// this much per barrier.  0 disables the wait (old async shipping).
	BarrierAckTimeout time.Duration

	// ---- Health telemetry plane ----

	// HeartbeatInterval is the period on which every checkpoint manager
	// sends a compact liveness frame (its host and core count) to the
	// coordinator, on which the leader beats for its own host, and on
	// which the leader's journal shipper contacts every standby even
	// with nothing to ship (so journal traffic doubles as a leader
	// heartbeat for standbys).  0 disables the telemetry plane.
	HeartbeatInterval time.Duration
	// PhiTimeoutFactor scales the adaptive failure-detector deadline:
	// a peer is suspected after factor × (mean + 4σ) of its observed
	// heartbeat inter-arrival distribution has elapsed in silence —
	// the phi-accrual idea collapsed to a deterministic deadline.
	PhiTimeoutFactor float64
	// PhiFloor is the minimum adaptive detection deadline, so a
	// perfectly quiet network can never declare death faster than a
	// couple of heartbeat periods.  The adaptive deadline is clamped
	// to [PhiFloor, FailureDetectDelay]: observations only ever make
	// detection FASTER than the static detector, never slower.
	PhiFloor time.Duration

	// ---- Integrity scrubbing ----

	// ScrubInterval is the pause a node's background scrub daemon takes
	// between full passes over its local chunk store.  0 disables
	// scrubbing.
	ScrubInterval time.Duration
	// ScrubQoS is the fraction of local disk read bandwidth the scrub
	// daemon may consume: after verifying each chunk the scrubber
	// idles read×(1-q)/q, so restores and checkpoint writes always see
	// at least (1-q) of the disk.  Clamped to (0, 1]; 1 disables
	// pacing.
	ScrubQoS float64

	// JitterPct adds bounded uniform noise to the big time charges
	// (suspend quantum, compression, storage) so repeated trials show
	// the run-to-run variance the paper reports as error bars.  Zero
	// disables it (fully deterministic runs).
	JitterPct float64
}

// Default returns parameters calibrated against the paper's cluster.
func Default() *Params {
	return &Params{
		SyscallCost:  1500 * time.Nanosecond,
		ForkBase:     300 * time.Microsecond,
		ForkPerPage:  2200 * time.Nanosecond,
		ExecCost:     2 * time.Millisecond,
		PageSize:     4 * KB,
		CoresPerNode: 4,

		SuspendQuantum:   22 * time.Millisecond,
		SuspendPerThread: 600 * time.Microsecond,
		FcntlCost:        1200 * time.Nanosecond,
		DrainSettle:      85 * time.Millisecond,
		WriteSetup:       2 * time.Millisecond,
		RestoreSetup:     4 * time.Millisecond,
		PerAreaCost:      35 * time.Microsecond,

		FaultTrapCost:      25 * time.Microsecond,
		LazySkeletonChunks: 4,

		NetLatency:        80 * time.Microsecond,
		NetBandwidth:      110 * float64(MB),
		LoopbackLatency:   15 * time.Microsecond,
		LoopbackBandwidth: 900 * float64(MB),
		SocketBufBytes:    64 * KB,
		RetransTimeout:    20 * time.Millisecond,

		DiskAbsorbBW:   400 * float64(MB),
		DiskPhysicalBW: 100 * float64(MB),
		DiskReadBW:     500 * float64(MB),
		PageCacheBytes: 5 * GB,

		SANBandwidth: 380 * float64(MB),
		NFSBandwidth: 95 * float64(MB),

		GzipBW:       27 * float64(MB),
		GunzipBW:     52 * float64(MB),
		GzipZeroBW:   260 * float64(MB),
		GunzipZeroBW: 420 * float64(MB),

		HashBW:            150 * float64(MB),
		ChunkLookupCost:   4 * time.Microsecond,
		ManifestEntryCost: 2 * time.Microsecond,

		ReplicaRPCCost:     25 * time.Microsecond,
		FailureDetectDelay: 250 * time.Millisecond,
		RepairQoS:          0.5,

		JournalAppendCost:      3 * time.Microsecond,
		JournalShipDelay:       2 * time.Millisecond,
		JournalRetryDelay:      50 * time.Millisecond,
		JournalSnapshotEntries: 512,
		ElectionTimeout:        150 * time.Millisecond,
		CoordRetryBase:         10 * time.Millisecond,
		CoordRetryCap:          200 * time.Millisecond,
		CoordRetryWindow:       5 * time.Second,
		RetryJitterPct:         0.2,
		ResyncWindow:           500 * time.Millisecond,
		BarrierAckTimeout:      25 * time.Millisecond,

		HeartbeatInterval: 25 * time.Millisecond,
		PhiTimeoutFactor:  1.5,
		PhiFloor:          60 * time.Millisecond,

		// Scrubbing defaults off (0): continuously re-reading and
		// re-hashing every store would shift the timing of every
		// baseline experiment.  Chaos/integrity scenarios enable it.
		ScrubInterval: 0,
		ScrubQoS:      0.25,
	}
}

// HashTime returns the CPU time to fingerprint n bytes for the
// content-addressed store.
func (p *Params) HashTime(n int64) time.Duration {
	if n <= 0 || p.HashBW <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.HashBW * float64(time.Second))
}

// Jitter perturbs d by ±JitterPct using the provided deterministic
// source.
func (p *Params) Jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if p.JitterPct <= 0 || d <= 0 {
		return d
	}
	f := 1 + p.JitterPct*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// ForkCost returns the modeled cost of forking a process with the
// given resident set size.
func (p *Params) ForkCost(rssBytes int64) time.Duration {
	pages := (rssBytes + p.PageSize - 1) / p.PageSize
	return p.ForkBase + time.Duration(pages)*p.ForkPerPage
}

// TransferTime returns latency + n/bw for a network transfer.
func TransferTime(lat time.Duration, bw float64, n int64) time.Duration {
	return lat + time.Duration(float64(n)/bw*float64(time.Second))
}
