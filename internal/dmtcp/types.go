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

	"repro/internal/bin"
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
	IsPipe   bool // promoted pipe (§4.5)
}

// FDKind classifies descriptor-table records in checkpoint images.
type FDKind int32

const (
	// FDConsole is a stdio descriptor.
	FDConsole FDKind = iota
	// FDFile is a regular file with a restore offset.
	FDFile
	// FDListener is a TCP listen socket.
	FDListener
	// FDUnixListener is a UNIX-domain listen socket.
	FDUnixListener
	// FDConn is a connected stream socket (TCP, UNIX, or promoted
	// pipe).
	FDConn
	// FDPtyMaster and FDPtySlave are pseudo-terminal ends.
	FDPtyMaster
	FDPtySlave
)

// FDRec is one descriptor-table entry stored in a checkpoint image
// (the connection information table of §4.4 plus file/pty records).
type FDRec struct {
	FD     int
	Kind   FDKind
	OFID   int64 // shared-description id: equal OFIDs restore to one object
	Owner  int64 // saved fcntl F_SETOWN value
	Path   string
	Offset int64
	Port   int
	GUID   string
	Accept bool
	Pty    string
	Modes  kernel.Termios
}

// ConnRec carries a drained socket's buffered bytes (this side's
// receive direction) for refill at restart.
type ConnRec struct {
	GUID    string
	Drained []byte
}

// Image Ext section keys.
const (
	extFDTable = "dmtcp.fdtable"
	extConns   = "dmtcp.conns"
	extPids    = "dmtcp.pids"
)

// The least bytes one record of each table encodes to.  A decoder
// caps its preallocation at the bytes left divided by these, so a
// corrupt count cannot size a buffer beyond what its input can hold.
const (
	fdRecBytes   = 8 + 4 + 8 + 8 + 4 + 8 + 8 + 4 + 1 + 4 + 1 + 1 + 8 + 8
	connRecBytes = 4 + 4
	pidRecBytes  = 8 + 8
)

func encodeFDTable(recs []FDRec) []byte {
	var e bin.Encoder
	e.U32(uint32(len(recs)))
	for _, r := range recs {
		e.Int(r.FD)
		e.U32(uint32(r.Kind))
		e.I64(r.OFID)
		e.I64(r.Owner)
		e.Str(r.Path)
		e.I64(r.Offset)
		e.Int(r.Port)
		e.Str(r.GUID)
		e.Bool(r.Accept)
		e.Str(r.Pty)
		e.Bool(r.Modes.Echo)
		e.Bool(r.Modes.Canon)
		e.Int(r.Modes.Rows)
		e.Int(r.Modes.Cols)
	}
	return e.B
}

func decodeFDTable(b []byte) ([]FDRec, error) {
	d := &bin.Decoder{B: b}
	n := int(d.U32())
	out := make([]FDRec, 0, min(n, len(d.B)/fdRecBytes))
	for i := 0; i < n && d.Err == nil; i++ {
		var r FDRec
		r.FD = d.Int()
		r.Kind = FDKind(d.U32())
		r.OFID = d.I64()
		r.Owner = d.I64()
		r.Path = d.Str()
		r.Offset = d.I64()
		r.Port = d.Int()
		r.GUID = d.Str()
		r.Accept = d.Bool()
		r.Pty = d.Str()
		r.Modes.Echo = d.Bool()
		r.Modes.Canon = d.Bool()
		r.Modes.Rows = d.Int()
		r.Modes.Cols = d.Int()
		out = append(out, r)
	}
	return out, d.Err
}

func encodeConns(recs []ConnRec) []byte {
	var e bin.Encoder
	e.U32(uint32(len(recs)))
	for _, r := range recs {
		e.Str(r.GUID)
		e.Bytes(r.Drained)
	}
	return e.B
}

func decodeConns(b []byte) ([]ConnRec, error) {
	d := &bin.Decoder{B: b}
	n := int(d.U32())
	out := make([]ConnRec, 0, min(n, len(d.B)/connRecBytes))
	for i := 0; i < n && d.Err == nil; i++ {
		out = append(out, ConnRec{GUID: d.Str(), Drained: d.Bytes()})
	}
	return out, d.Err
}

func encodePids(virt kernel.Pid, table map[kernel.Pid]kernel.Pid) []byte {
	var e bin.Encoder
	e.I64(int64(virt))
	e.U32(uint32(len(table)))
	for _, k := range sortedPids(table) {
		e.I64(int64(k))
		e.I64(int64(table[k]))
	}
	return e.B
}

func decodePids(b []byte) (kernel.Pid, map[kernel.Pid]kernel.Pid, error) {
	d := &bin.Decoder{B: b}
	virt := kernel.Pid(d.I64())
	n := int(d.U32())
	table := make(map[kernel.Pid]kernel.Pid, min(n, len(d.B)/pidRecBytes))
	for i := 0; i < n && d.Err == nil; i++ {
		k := kernel.Pid(d.I64())
		table[k] = kernel.Pid(d.I64())
	}
	return virt, table, d.Err
}

func sortedPids(m map[kernel.Pid]kernel.Pid) []kernel.Pid {
	out := make([]kernel.Pid, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
