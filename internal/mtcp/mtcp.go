package mtcp

import (
	"fmt"
	"time"

	"repro/internal/flow"
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

	raw := img.LogicalBytes()
	onDisk := raw
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	pipe := t.P.Node.WritePipeFor(path)
	if opts.Compress {
		onDisk = img.CompressedBytes(p)
		writeCompressed(t, img, pipe, onDisk, workers)
	} else {
		pipe.Write(t.T, onDisk)
	}
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

// writeCompressed pipes a monolithic image through gzip into the page
// cache: the compressor produces the image as compressSpans blocks, and
// a write-behind stage writes each block onto pipe while the next one
// deflates, so the write costs the compression plus one block's write.
// Serially (workers <= 1) each area draws its jitter once and its
// blocks split the jittered time by their bytes; a pool of workers
// compresses the blocks in parallel, one draw each, and the core
// scheduler meters the real speedup.
func writeCompressed(t *kernel.Task, img *Image, pipe *flow.Pipe, onDisk int64, workers int) {
	p := t.P.Node.Cluster.Params
	spans := compressSpans(img)
	if len(spans) == 0 {
		pipe.Write(t.T, onDisk) // the header and tables alone
		return
	}
	stored := spanStored(p, spans, onDisk)
	wb := kernel.NewWriteBehind(t, pipe)
	if workers <= 1 {
		rng := t.P.Node.Cluster.Eng.Rand()
		i := 0
		for _, a := range img.Areas {
			d := p.Jitter(rng, p.CompressTime(a.Bytes, a.Class()))
			var done time.Duration
			for lo := int64(0); lo < a.Bytes; lo += kernel.CkptChunkBytes {
				upto := d
				if hi := lo + kernel.CkptChunkBytes; hi < a.Bytes {
					upto = time.Duration(float64(d) * float64(hi) / float64(a.Bytes))
				}
				t.Compute(upto - done)
				done = upto
				wb.Queue(stored[i], nil)
				i++
			}
		}
	} else {
		kernel.RunWorkers(t, workers, len(spans), "gz-worker", func(wt *kernel.Task, i int) error {
			sp := spans[i]
			r := wt.P.Node.Cluster.Eng.Rand()
			wt.Compute(p.Jitter(r, p.CompressTime(sp.bytes, sp.class)))
			wb.Queue(stored[i], nil)
			return nil
		})
	}
	wb.Close(t)
}

// spanStored splits an image's onDisk compressed bytes over its
// compressSpans blocks: each block carries what its class compresses
// to, and the first also carries the rest (the header, the tables and
// the rounding), so the blocks sum to onDisk.  spans is not empty.
func spanStored(p *model.Params, spans []compressSpan, onDisk int64) []int64 {
	stored := make([]int64, len(spans))
	left := onDisk
	for i, sp := range spans {
		stored[i] = min(p.CompressedSize(sp.bytes, sp.class), left)
		left -= stored[i]
	}
	stored[0] += left
	return stored
}

// LoadImage decodes a monolithic image, charging only the
// header/metadata read (the restart program reads descriptor and
// connection tables from every image before forking; the bulk memory
// read happens later, in each restored process).  A store image comes
// back through Restore.
func LoadImage(t *kernel.Task, path string) (*Image, error) {
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
	t.P.Node.ReadPipeFor(path).Read(t.T, headerRead(img, ino.Size()))
	return img, nil
}

// headerRead is what LoadImage reads of a size-byte monolithic image:
// the header and the upper layer's tables, at most the whole file.
func headerRead(img *Image, size int64) int64 {
	meta := int64(64 * 1024)
	for _, e := range img.Ext {
		meta += int64(len(e))
	}
	return min(meta, size)
}

// ChargeMemoryRestore charges the bulk of restart step 5: streaming
// the body of an image LoadImage loaded from storage and decompressing
// it.  A compressed monolithic image is read as kernel.CkptChunkBytes
// blocks of logical bytes through a read-ahead stage, each carrying the
// stored bytes its area's class gives (the header and the tables ride
// the first, so LoadImage's read comes off the front), while workers
// gunzip consumers decompress the blocks already read: the restore
// pays for its gunzip plus one block's read, as gzip -d through a pipe
// does, not for its whole read and then its gunzip.  workers <= 1 is
// one consumer, the calling task; the node's core scheduler bounds the
// real speedup of more.  An uncompressed image is one read.  A store
// image pays its bulk in Restore instead.
func ChargeMemoryRestore(t *kernel.Task, img *Image, path string, workers int) {
	p := t.P.Node.Cluster.Params
	var onDisk int64
	if ino, err := t.P.Node.FS.ReadFile(path); err == nil {
		onDisk = ino.Size()
	}
	read := headerRead(img, onDisk)
	pipe := t.P.Node.ReadPipeFor(path)
	var spans []compressSpan
	if onDisk > 0 && onDisk < img.LogicalBytes() {
		spans = compressSpans(img)
	}
	if len(spans) == 0 {
		pipe.Read(t.T, onDisk-read) // nothing to gunzip
	} else {
		stored := spanStored(p, spans, onDisk)
		for i := 0; read > 0; i++ {
			n := min(read, stored[i])
			stored[i] -= n
			read -= n
		}
		kernel.ReadAll(t, pipe, stored, workers, func(wt *kernel.Task, i int) {
			wt.Compute(p.DecompressTime(spans[i].bytes, spans[i].class))
		})
	}
}

// ShmResolver locates or re-creates the shared-memory segment backing
// a restored shared mapping.  The DMTCP layer provides one that
// implements the paper's §4.5 rules (re-create missing backing files,
// share segments between restored processes on a host).
type ShmResolver func(t *kernel.Task, rec AreaRecord) *kernel.ShmSegment

// InstallMemory rebuilds the process address space from the image
// (restart step 5, "restore memory"), charging the per-area install
// bookkeeping, the one restore charge both image kinds pay here.  The
// bulk, reading and decompressing the payloads, is charged by
// ChargeMemoryRestore for a monolithic image and by Restore for a store
// image.
func InstallMemory(p *kernel.Process, img *Image, t *kernel.Task, shm ShmResolver) {
	t.Compute(time.Duration(len(img.Areas)) * t.P.Node.Cluster.Params.PerAreaCost)
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
