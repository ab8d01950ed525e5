package mtcp

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// WriteOptions controls how an image is written.
type WriteOptions struct {
	// Dir is the checkpoint directory; paths under /san go to central
	// storage.
	Dir string
	// Compress pipes the image through the gzip model (the DMTCP
	// default).
	Compress bool
	// Fsync waits for the page cache to drain after writing (§5.2
	// discusses this option's cost).
	Fsync bool
	// Store, when non-nil, selects the chunked write path: payloads
	// are deduplicated into the content-addressed store and the
	// "image file" becomes a per-generation manifest.  Compress then
	// applies per chunk (through the store's own config).
	Store *store.Store
	// Generation pins the store generation to commit (0 derives the
	// next from committed manifests).  Forked checkpointing reserves
	// it in the parent so overlapping background writers of the same
	// process cannot collide on a generation number.
	Generation int64
	// Workers is the number of parallel writer tasks the image is
	// partitioned across (hashing, compression, chunk writes).  The
	// node's core scheduler keeps the speedup honest: workers beyond
	// Node.Cores buy nothing.  0 or 1 writes serially.
	Workers int
	// Stream, when non-nil, receives every manifest-referenced chunk
	// as soon as it is durable locally, so replication fan-out can
	// overlap the write instead of starting after the commit.
	Stream ChunkStream
}

// ChunkStream is the eager-replication hook: the checkpoint writer
// hands chunks over as they land and signals the manifest commit.  The
// replica service implements it; MTCP only sees this interface (the
// two-layer API of §4.1 extended to the storage fan-out).
type ChunkStream interface {
	// Chunk reports one manifest-referenced chunk (newly written or
	// dedup-reused) that is durable in the local store.
	Chunk(t *kernel.Task, ref store.ChunkRef)
	// Commit reports that the manifest at path has been written; it
	// returns the stored bytes the farthest-ahead peer had already
	// received before the commit (the write/replication overlap —
	// never more than the generation's stored bytes, whatever the
	// replication factor).
	Commit(t *kernel.Task, manifestPath string) int64
	// Abort discards the stream without committing.
	Abort()
}

// WriteResult reports what a checkpoint write produced.
type WriteResult struct {
	Path     string
	Bytes    int64 // bytes written to storage (compressed if enabled)
	RawBytes int64 // uncompressed image size
	Took     time.Duration
	SyncTook time.Duration

	// Chunked-path statistics (zero on the monolithic path).
	Generation int64 // committed store generation
	Chunks     int   // total chunks referenced by the manifest
	NewChunks  int   // chunks actually written this generation
	DedupBytes int64 // stored bytes avoided via dedup

	// Pipeline statistics.
	Workers      int   // writer tasks the image was partitioned across
	OverlapBytes int64 // stored bytes replicated to peers before commit
}

// ImagePath returns the conventional checkpoint file name,
// ckpt_<prog>_<host>_<virtpid>.dmtcp[.gz].  The host component keeps
// names globally unique when images from many nodes land on shared
// central storage (real DMTCP embeds a cluster-unique process id).
func ImagePath(dir string, img *Image, compress bool) string {
	name := fmt.Sprintf("%s/%s.dmtcp", dir, ImageBase(img))
	if compress {
		name += ".gz"
	}
	return name
}

// WriteImage serializes img to storage from task t's context,
// charging per-area bookkeeping, compression CPU, and storage
// bandwidth according to the calibrated model.  This is checkpoint
// step 5 ("write checkpoint to disk").  With opts.Store set the image
// is written incrementally through the content-addressed store.
func WriteImage(t *kernel.Task, img *Image, opts WriteOptions) WriteResult {
	if opts.Store != nil {
		return writeChunked(t, img, opts)
	}
	p := t.P.Node.Cluster.Params
	start := t.Now()
	path := ImagePath(opts.Dir, img, opts.Compress)

	t.Compute(p.WriteSetup)
	t.Compute(time.Duration(len(img.Areas)) * p.PerAreaCost)

	rng := t.P.Node.Cluster.Eng.Rand()
	raw := img.LogicalBytes()
	onDisk := raw
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if opts.Compress {
		onDisk = img.CompressedBytes(p)
		if workers <= 1 {
			for _, a := range img.Areas {
				t.Compute(p.Jitter(rng, p.CompressTime(a.Bytes, a.Class())))
			}
		} else {
			// Worker pool: compression work is partitioned at store
			// chunk granularity so one huge area still spreads across
			// all workers; the core scheduler meters the actual
			// speedup.
			spans := compressSpans(img)
			kernel.RunWorkers(t, workers, len(spans), "gz-worker", func(wt *kernel.Task, i int) error {
				sp := spans[i]
				r := wt.P.Node.Cluster.Eng.Rand()
				wt.Compute(p.Jitter(r, p.CompressTime(sp.bytes, sp.class)))
				return nil
			})
		}
	}
	pipe := t.P.Node.WritePipeFor(path)
	pipe.Write(t.T, onDisk)
	t.P.Node.FS.WriteFile(path, img.Encode(), onDisk)

	res := WriteResult{
		Path:     path,
		Bytes:    onDisk,
		RawBytes: raw,
		Took:     t.Now().Sub(start),
		Workers:  workers,
	}
	if opts.Fsync {
		syncStart := t.Now()
		pipe.Sync(t.T)
		res.SyncTook = t.Now().Sub(syncStart)
		res.Took = t.Now().Sub(start)
	}
	return res
}

// ReadImage loads and decodes an image from storage, charging read
// bandwidth for the on-disk size and decompression CPU for the
// restored bytes.  This is the I/O half of restart step 5, as a
// single call (LoadImage + ChargeMemoryRestore with one gunzip
// consumer, for callers that do not split the work between a restart
// orchestrator and its forked children).
func ReadImage(t *kernel.Task, path string) (*Image, error) {
	img, err := LoadImage(t, path)
	if err != nil {
		return nil, err
	}
	ChargeMemoryRestore(t, img, path, 1)
	return img, nil
}

// LoadImage decodes an image, charging only the header/metadata read
// (the restart program reads descriptor and connection tables from
// every image before forking; the bulk memory read happens later, in
// each restored process).  Manifest paths are read back through the
// content-addressed store transparently.
func LoadImage(t *kernel.Task, path string) (*Image, error) {
	if store.IsManifestPath(path) {
		return loadChunked(t, path)
	}
	p := t.P.Node.Cluster.Params
	ino, err := t.P.Node.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := Decode(ino.Data)
	if err != nil {
		return nil, err
	}
	t.Compute(p.RestoreSetup)
	meta := int64(64 * 1024)
	for _, e := range img.Ext {
		meta += int64(len(e))
	}
	if meta > ino.Size() {
		meta = ino.Size()
	}
	t.P.Node.ReadPipeFor(path).Read(t.T, meta)
	return img, nil
}

// ChargeMemoryRestore charges the bulk of restart step 5: streaming
// the image body from storage and decompressing it.  A compressed
// monolithic image is read as kernel.CkptChunkBytes blocks of logical
// bytes through a read-ahead stage, each carrying the stored bytes its
// area's class gives (the header and the tables ride the first), while
// workers gunzip consumers decompress the blocks already read: the
// restore pays for its gunzip plus one block's read, as gzip -d
// through a pipe does, not for its whole read and then its gunzip.
// workers <= 1 is one consumer, the calling task; the node's core
// scheduler bounds the real speedup of more.  An uncompressed image is
// one read.  Store images charge through the chunk path instead.
func ChargeMemoryRestore(t *kernel.Task, img *Image, path string, workers int) {
	if store.IsManifestPath(path) {
		chargeChunkedRestore(t, img, path)
		return
	}
	p := t.P.Node.Cluster.Params
	var onDisk int64
	if ino, err := t.P.Node.FS.ReadFile(path); err == nil {
		onDisk = ino.Size()
	}
	pipe := t.P.Node.ReadPipeFor(path)
	var spans []compressSpan
	if onDisk > 0 && onDisk < img.LogicalBytes() {
		spans = compressSpans(img)
	}
	if len(spans) == 0 {
		pipe.Read(t.T, onDisk) // nothing to gunzip
	} else {
		stored := make([]int64, len(spans))
		left := onDisk
		for i, sp := range spans {
			stored[i] = min(p.CompressedSize(sp.bytes, sp.class), left)
			left -= stored[i]
		}
		stored[0] += left
		kernel.ReadAll(t, pipe, stored, workers, func(wt *kernel.Task, i int) {
			wt.Compute(p.DecompressTime(spans[i].bytes, spans[i].class))
		})
	}
	t.Compute(time.Duration(len(img.Areas)) * p.PerAreaCost)
}

// ShmResolver locates or re-creates the shared-memory segment backing
// a restored shared mapping.  The DMTCP layer provides one that
// implements the paper's §4.5 rules (re-create missing backing files,
// share segments between restored processes on a host).
type ShmResolver func(t *kernel.Task, rec AreaRecord) *kernel.ShmSegment

// InstallMemory rebuilds the process address space from the image
// (restart step 5, "restore memory").  Time is charged by
// ChargeMemoryRestore (or the store's restore pipeline);
// this is pure structure.
func InstallMemory(p *kernel.Process, img *Image, t *kernel.Task, shm ShmResolver) {
	p.Mem = kernel.NewAddressSpace()
	for _, rec := range img.Areas {
		if rec.ShmBacking != "" && shm != nil {
			seg := shm(t, rec)
			if seg != nil {
				area := seg.Attach(p.Mem, rec.Name)
				area.SetVersions(rec.ChunkVers)
				continue
			}
		}
		area := p.Mem.Map(&kernel.VMArea{
			Name:  rec.Name,
			Kind:  rec.Kind,
			Bytes: rec.Bytes,
			Class: rec.Class(),
		})
		area.Payload = append([]byte(nil), rec.Payload...)
		area.SetVersions(rec.ChunkVers)
	}
	p.ProgName = img.ProgName
	p.Args = append([]string(nil), img.Args...)
}

// EstimateCheckpointCPU returns the modeled compression CPU time for
// the image (useful to size forked-checkpoint background work).
func EstimateCheckpointCPU(img *Image, p *model.Params, compress bool) time.Duration {
	if !compress {
		return 0
	}
	var d time.Duration
	for _, a := range img.Areas {
		d += p.CompressTime(a.Bytes, a.Class())
	}
	return d
}
