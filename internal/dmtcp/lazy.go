package dmtcp

import (
	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/replica"
	"repro/internal/store"
)

// startLazyTail arms one skeleton-restored image's post-copy tail and
// starts pulling at once, so the prefetch overlaps the files/conns/fork
// stages that still separate us from resume.  The tail is a second run
// of mtcp's restore pipeline over the pending chunks, whose fetch stage
// is a pull stream striped across the holders (at most
// Config.LazyHolders at once), hottest chunk first.  workers sizes its
// install pool, capped at the chunks left to pull: a compressed tail
// gunzips on every idle core while the read-ahead stage keeps the disk
// busy, as an eager restore does.
//
// Chunk landings race the fork on purpose: chunks landed before
// InstallMemory copies the image buffers ride into the process for
// free; the rest land in the live areas once restart step 5 wires them,
// and a first touch faults its chunk in through the stream's Demand.
func (s *System) startLazyTail(t *kernel.Task, img *mtcp.Image, pending []mtcp.LazyChunk, holders []string, workers int) (*mtcp.Pipeline, *replica.PullStream) {
	pl, refs := mtcp.NewPipeline(t, img, store.Open(t.P.Node, store.Config{Root: s.StoreRoot()}), pending, nil)
	ps := replica.NewPullStream(t, s.Replica, holders, refs,
		replica.PullOptions{Stripe: s.Cfg.LazyHolders, Deliver: pl.Deliver})
	pl.Start(t, max(1, min(workers, len(refs))), ps.Wait)
	return pl, ps
}
