package coordstate

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// State snapshots: the journal-compaction artifact.  A long session's
// journal grows one entry per barrier arrival, so a standby that joins
// (or falls behind) late would replay an unbounded prefix.  Compaction
// serializes the whole State at a round boundary and truncates the
// journal prefix it summarizes; the snapshot ships to lagging peers
// through the same want/missing handshake journal suffixes use, so
// standby catch-up cost is bounded by (snapshot + suffix), not session
// length.
//
// Encoding is deterministic (sorted map iteration), so the snapshot a
// leader produces is a pure function of the state — replays and
// re-ships agree byte for byte.

// snapMagic guards snapshot decoding.
const snapMagic = "CSNAP1\n"

// ErrBadSnapshot reports a snapshot that fails structural validation
// (bad magic or a decode error; the latter wraps bin.ErrTruncated).
var ErrBadSnapshot = errors.New("coordstate: bad snapshot")

// EncodeState serializes a state for snapshotting.  The in-flight
// round is volatile protocol state and must be nil (Compact only runs
// at round boundaries).
func EncodeState(st *State) ([]byte, error) {
	if st.Round != nil {
		return nil, fmt.Errorf("coordstate: cannot snapshot mid-round")
	}
	var e bin.Encoder
	e.B = append(e.B, snapMagic...)
	e.I64(st.Epoch)
	e.Str(st.Leader)
	e.I64(st.NextCID)
	e.U32(uint32(len(st.Clients)))
	for _, id := range st.ClientIDs() {
		e.I64(id)
		e.Str(st.Clients[id].Desc)
	}
	e.U32(uint32(len(st.Rounds)))
	for _, r := range st.Rounds {
		encodeRound(&e, r)
	}
	e.Int(st.PendingCkpt)
	e.Bool(st.LastCfg.Compress)
	e.Bool(st.LastCfg.Fsync)
	e.Bool(st.LastCfg.Forked)
	e.Bool(st.LastCfg.Store)
	guids := make([]string, 0, len(st.Advertised))
	for g := range st.Advertised {
		guids = append(guids, g)
	}
	sort.Strings(guids)
	e.U32(uint32(len(guids)))
	for _, g := range guids {
		addr := st.Advertised[g]
		e.Str(g)
		e.Str(addr.Host)
		e.Int(addr.Port)
	}
	names := make([]string, 0, len(st.Placement))
	for n := range st.Placement {
		names = append(names, n)
	}
	sort.Strings(names)
	e.U32(uint32(len(names)))
	for _, n := range names {
		pi := st.Placement[n]
		e.Str(pi.Name)
		e.Str(pi.Host)
		e.Str(pi.Prog)
		e.I64(int64(pi.VirtPid))
		e.I64(pi.LatestGen)
		e.I64(pi.ReplicatedGen)
		hosts := pi.HolderHosts()
		e.U32(uint32(len(hosts)))
		for _, h := range hosts {
			e.Str(h)
			e.I64(pi.Holders[h])
		}
	}
	hosts := st.HealthHosts()
	e.U32(uint32(len(hosts)))
	for _, host := range hosts {
		e.Str(host)
		encodeHealth(&e, st.Health[host])
	}
	e.Bool(st.Restart != nil)
	if st.Restart != nil {
		e.Str(st.Restart.Gen)
		e.Int(st.Restart.Expect)
		rhosts := st.Restart.RankHosts()
		e.U32(uint32(len(rhosts)))
		for _, h := range rhosts {
			e.Str(h)
			e.Str(st.Restart.Ranks[h])
		}
	}
	return e.B, nil
}

// DecodeState parses an EncodeState snapshot.
func DecodeState(b []byte) (*State, error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	d := &bin.Decoder{B: b[len(snapMagic):]}
	st := NewState()
	st.Epoch = d.I64()
	st.Leader = d.Str()
	st.NextCID = d.I64()
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		id := d.I64()
		st.Clients[id] = Client{ID: id, Desc: d.Str()}
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		st.Rounds = append(st.Rounds, decodeRound(d))
	}
	st.PendingCkpt = d.Int()
	st.LastCfg.Compress = d.Bool()
	st.LastCfg.Fsync = d.Bool()
	st.LastCfg.Forked = d.Bool()
	st.LastCfg.Store = d.Bool()
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		g := d.Str()
		st.Advertised[g] = kernel.Addr{Host: d.Str(), Port: d.Int()}
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		pi := &PlaceInfo{Holders: make(map[string]int64)}
		pi.Name = d.Str()
		pi.Host = d.Str()
		pi.Prog = d.Str()
		pi.VirtPid = kernel.Pid(d.I64())
		pi.LatestGen = d.I64()
		pi.ReplicatedGen = d.I64()
		for j, k := 0, int(d.U32()); j < k && d.Err == nil; j++ {
			h := d.Str()
			pi.Holders[h] = d.I64()
		}
		st.Placement[pi.Name] = pi
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		host := d.Str()
		h := decodeHealth(d)
		st.Health[host] = &h
	}
	if d.Bool() {
		g := &RestartGroup{Ranks: make(map[string]string)}
		g.Gen = d.Str()
		g.Expect = d.Int()
		for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
			h := d.Str()
			g.Ranks[h] = d.Str()
		}
		st.Restart = g
	}
	if d.Err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, d.Err)
	}
	return st, nil
}

func encodeRound(e *bin.Encoder, r *CkptRound) {
	e.Int(r.Index)
	e.I64(r.Tag)
	e.Int(r.NumProcs)
	e.I64(int64(r.Start))
	e.I64(int64(r.End))
	e.U32(uint32(len(r.Images)))
	for i := range r.Images {
		encodeImage(e, &r.Images[i])
	}
	e.Bool(r.Compress)
	e.Bool(r.Forked)
	e.Bool(r.Store)
	whosts := make([]string, 0, len(r.WriteByHost))
	for h := range r.WriteByHost {
		whosts = append(whosts, h)
	}
	sort.Strings(whosts)
	e.U32(uint32(len(whosts)))
	for _, h := range whosts {
		e.Str(h)
		e.I64(int64(r.WriteByHost[h]))
	}
	hhosts := make([]string, 0, len(r.WorkerHints))
	for h := range r.WorkerHints {
		hhosts = append(hhosts, h)
	}
	sort.Strings(hhosts)
	e.U32(uint32(len(hhosts)))
	for _, h := range hhosts {
		e.Str(h)
		e.Int(r.WorkerHints[h])
	}
}

func decodeRound(d *bin.Decoder) *CkptRound {
	r := &CkptRound{}
	r.Index = d.Int()
	r.Tag = d.I64()
	r.NumProcs = d.Int()
	r.Start = sim.Time(d.I64())
	r.End = sim.Time(d.I64())
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		r.Images = append(r.Images, decodeImage(d))
	}
	r.Compress = d.Bool()
	r.Forked = d.Bool()
	r.Store = d.Bool()
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		if r.WriteByHost == nil {
			r.WriteByHost = make(map[string]time.Duration)
		}
		h := d.Str()
		r.WriteByHost[h] = time.Duration(d.I64())
	}
	for i, n := 0, int(d.U32()); i < n && d.Err == nil; i++ {
		if r.WorkerHints == nil {
			r.WorkerHints = make(map[string]int)
		}
		h := d.Str()
		r.WorkerHints[h] = d.Int()
	}
	return r
}

func encodeImage(e *bin.Encoder, img *ImageInfo) {
	e.Str(img.Host)
	e.Str(img.Path)
	e.Str(img.Prog)
	e.I64(int64(img.VirtPid))
	e.I64(img.Generation)
}

func decodeImage(d *bin.Decoder) ImageInfo {
	var img ImageInfo
	img.Host = d.Str()
	img.Path = d.Str()
	img.Prog = d.Str()
	img.VirtPid = kernel.Pid(d.I64())
	img.Generation = d.I64()
	return img
}
