package mtcp

import (
	"repro/internal/kernel"
	"repro/internal/model"
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
	n := 0
	for _, a := range img.Areas {
		n += kernel.ChunkCount(a.Bytes)
	}
	out := make([]compressSpan, 0, n)
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
