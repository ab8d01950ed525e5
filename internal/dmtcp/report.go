package dmtcp

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/mtcp"
	"repro/internal/store"
)

// ckptReport is what one manager hands the System for one round, in
// process: the stage it finished before each barrier arrival (in
// ckptBarriers order) and, from the checkpointed barrier on, its
// image's write statistics.  None of it rides a frame or the journal.
type ckptReport struct {
	stages [5]time.Duration
	res    mtcp.WriteResult
}

// clientDesc is a manager's identity with the coordinator and the key
// of its in-process reports: "host/prog[vpid]".
func clientDesc(host, prog string, vpid kernel.Pid) string {
	return fmt.Sprintf("%s/%s[%d]", host, prog, vpid)
}

// reportBarrier records a manager's arrival report for the round
// tagged tag.  A re-sent arrival overwrites its earlier report; res is
// nil except at the checkpointed barrier.
func (s *System) reportBarrier(tag int64, desc, barrier string, stage time.Duration, res *mtcp.WriteResult) {
	byDesc := s.reports[tag]
	if byDesc == nil {
		byDesc = make(map[string]*ckptReport)
		s.reports[tag] = byDesc
	}
	rep := byDesc[desc]
	if rep == nil {
		rep = &ckptReport{}
		byDesc[desc] = rep
	}
	rep.stages[slices.Index(ckptBarriers, barrier)] = stage
	if res != nil {
		rep.res = *res
	}
}

// roundRecords returns the one stable record of each completed round,
// oldest first.  A round is joined with the reports handed over under
// its tag the first time it is asked for, in round order; every
// coordinator instance, leader or promoted standby, then serves the
// same pointer, so a GC pass credited later lands on the record
// Checkpoint returned.
func (s *System) roundRecords(rounds []*coordstate.CkptRound) []*CkptRound {
	out := make([]*CkptRound, len(rounds))
	for i, cr := range rounds {
		rec := s.records[cr.Tag]
		if rec == nil {
			rec = s.joinRound(cr)
			s.records[cr.Tag] = rec
		}
		out[i] = rec
	}
	return out
}

// joinRound builds a round's record from the replicated round and the
// reports under its tag.  Stages take the slowest manager; image
// statistics join by manager identity, so only images the coordinator
// placed are counted, once each.  Reports under this or any older tag
// are then dropped: a straggler of an aborted round is never read.
func (s *System) joinRound(cr *coordstate.CkptRound) *CkptRound {
	rec := &CkptRound{
		Index:       cr.Index,
		NumProcs:    cr.NumProcs,
		Start:       cr.Start,
		End:         cr.End,
		Compress:    cr.Compress,
		Forked:      cr.Forked,
		Store:       cr.Store,
		WriteByHost: cr.WriteByHost,
		WorkerHints: cr.WorkerHints,
	}
	reps := s.reports[cr.Tag]
	st := &rec.Stages
	for _, rep := range reps {
		st.Suspend = max(st.Suspend, rep.stages[0])
		st.Elect = max(st.Elect, rep.stages[1])
		st.Drain = max(st.Drain, rep.stages[2])
		st.Write = max(st.Write, rep.stages[3])
		st.Refill = max(st.Refill, rep.stages[4])
	}
	st.Total = cr.End.Sub(cr.Start)
	for _, pl := range cr.Images {
		img := ImageInfo{ImageInfo: pl}
		if rep := reps[clientDesc(pl.Host, pl.Prog, pl.VirtPid)]; rep != nil {
			res := rep.res
			img.Bytes, img.Raw = res.Bytes, res.RawBytes
			img.Chunks, img.NewChunks, img.Dedup = res.Chunks, res.NewChunks, res.DedupBytes
			img.Workers, img.Overlap = res.Workers, res.OverlapBytes
			rec.SyncCost = max(rec.SyncCost, res.SyncTook)
		}
		rec.Images = append(rec.Images, img)
		rec.Bytes += img.Bytes
		rec.RawBytes += img.Raw
		rec.DedupBytes += img.Dedup
		rec.OverlapBytes += img.Overlap
	}
	for tag := range s.reports {
		if tag <= cr.Tag {
			delete(s.reports, tag)
		}
	}
	return rec
}

// creditGC credits one collection pass to each listed round's record;
// every record gets its own copy.
func (co *Coordinator) creditGC(idxs []int, gc store.GCStats) {
	rounds := co.Rounds()
	for _, idx := range idxs {
		cp := gc
		rounds[idx].GC = &cp
	}
}
