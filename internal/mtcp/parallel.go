package mtcp

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/store"
)

// compressSpan is one unit of compression work: a chunk-sized slice of
// one area.
type compressSpan struct {
	bytes int64
	class model.MemClass
}

// compressSpans splits an image's areas into store-chunk-sized
// compression work items.
func compressSpans(img *Image) []compressSpan {
	var out []compressSpan
	for _, a := range img.Areas {
		for off := int64(0); off < a.Bytes; off += kernel.CkptChunkBytes {
			span := kernel.CkptChunkBytes
			if off+span > a.Bytes {
				span = a.Bytes - off
			}
			out = append(out, compressSpan{bytes: span, class: a.Class()})
		}
	}
	return out
}

// ChargeMemoryRestoreN is ChargeMemoryRestore with a parallel
// decompression pool for monolithic images: the gunzip work is
// partitioned across workers tasks, the symmetric treatment of the
// parallel write path, and the node's core scheduler bounds the
// speedup at the core count.  Store images and workers <= 1 behave
// exactly like ChargeMemoryRestore.
func ChargeMemoryRestoreN(t *kernel.Task, img *Image, path string, workers int) {
	if workers <= 1 || store.IsManifestPath(path) {
		// Store images: the restore pipeline already paid the bulk in
		// parallel; only images it did not load pay it here, serially.
		ChargeMemoryRestore(t, img, path)
		return
	}
	p := t.P.Node.Cluster.Params
	var onDisk int64
	if ino, err := t.P.Node.FS.ReadFile(path); err == nil {
		onDisk = ino.Size()
	}
	t.P.Node.ReadPipeFor(path).Read(t.T, onDisk)
	if onDisk > 0 && onDisk < img.LogicalBytes() {
		spans := compressSpans(img)
		kernel.RunWorkers(t, workers, len(spans), "gunzip-worker", func(wt *kernel.Task, i int) error {
			wt.Compute(p.DecompressTime(spans[i].bytes, spans[i].class))
			return nil
		})
	}
	t.Compute(time.Duration(len(img.Areas)) * p.PerAreaCost)
}
