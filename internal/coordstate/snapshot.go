package coordstate

import (
	"errors"
	"fmt"

	"repro/internal/bin"
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
	c := bin.Encoding([]byte(snapMagic)...)
	st.code(&c)
	return c.E.B, nil
}

// DecodeState parses an EncodeState snapshot.
func DecodeState(b []byte) (*State, error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	c := bin.Decoding(b[len(snapMagic):])
	st := NewState()
	st.code(&c)
	if c.D.Err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, c.D.Err)
	}
	return st, nil
}

// The least one entry of each snapshot list encodes to.
const (
	roundBytes = 8 + 8 + 8 + 8 + 8 + 4 + 3 + 4 + 4
	imageBytes = 4 + 4 + 4 + 8 + 8
	placeBytes = 4 + 4 + 4 + 8 + 8 + 8 + 4
)

// code lists the state's fields after the magic, each map in key
// order.  A placement's name is its key.
func (st *State) code(c *bin.Coder) {
	c.I64(&st.Epoch)
	c.Str(&st.Leader)
	c.I64(&st.NextCID)
	for _, id := range bin.Map(c, &st.Clients, 8+4) {
		c.I64(&id)
		desc := st.Clients[id].Desc
		c.Str(&desc)
		bin.Put(c, st.Clients, id, Client{ID: id, Desc: desc})
	}
	for i := range bin.List(c, &st.Rounds, roundBytes) {
		if st.Rounds[i] == nil {
			st.Rounds[i] = new(CkptRound)
		}
		st.Rounds[i].code(c)
	}
	c.Int(&st.PendingCkpt)
	st.LastCfg.code(c)
	for _, guid := range bin.Map(c, &st.Advertised, 4+4+8) {
		c.Str(&guid)
		addr := st.Advertised[guid]
		c.Str(&addr.Host)
		c.Int(&addr.Port)
		bin.Put(c, st.Advertised, guid, addr)
	}
	for _, name := range bin.Map(c, &st.Placement, placeBytes) {
		c.Str(&name)
		pi := st.Placement[name]
		if pi == nil {
			pi = &PlaceInfo{Name: name, Holders: make(map[string]int64)}
			st.Placement[name] = pi
		}
		c.Str(&pi.Host)
		c.Str(&pi.Prog)
		c.Int((*int)(&pi.VirtPid))
		c.I64(&pi.LatestGen)
		c.I64(&pi.ReplicatedGen)
		for _, h := range bin.Map(c, &pi.Holders, 4+8) {
			c.Str(&h)
			gen := pi.Holders[h]
			c.I64(&gen)
			bin.Put(c, pi.Holders, h, gen)
		}
	}
	for _, host := range bin.Map(c, &st.Health, 4+4*8) {
		c.Str(&host)
		h := st.Health[host]
		if h == nil {
			h = new(HostHealth)
			st.Health[host] = h
		}
		h.code(c)
	}
	if g := bin.Opt(c, &st.Restart); g != nil {
		c.Str(&g.Gen)
		c.Int(&g.Expect)
		if g.Ranks == nil {
			g.Ranks = make(map[string]string)
		}
		for _, h := range bin.Map(c, &g.Ranks, 4+4) {
			c.Str(&h)
			stage := g.Ranks[h]
			c.Str(&stage)
			bin.Put(c, g.Ranks, h, stage)
		}
	}
}

func (r *CkptRound) code(c *bin.Coder) {
	c.Int(&r.Index)
	c.I64(&r.Tag)
	c.Int(&r.NumProcs)
	c.I64((*int64)(&r.Start))
	c.I64((*int64)(&r.End))
	for i := range bin.List(c, &r.Images, imageBytes) {
		r.Images[i].Code(c)
	}
	c.Bool(&r.Compress)
	c.Bool(&r.Forked)
	c.Bool(&r.Store)
	for _, h := range bin.Map(c, &r.WriteByHost, 4+8) {
		c.Str(&h)
		d := r.WriteByHost[h]
		c.I64((*int64)(&d))
		bin.Put(c, r.WriteByHost, h, d)
	}
	for _, h := range bin.Map(c, &r.WorkerHints, 4+8) {
		c.Str(&h)
		n := r.WorkerHints[h]
		c.Int(&n)
		bin.Put(c, r.WorkerHints, h, n)
	}
}

// Code lists an image placement's fields; the journal, the snapshot and
// a manager's checkpointed barrier arrival carry it.
func (img *ImageInfo) Code(c *bin.Coder) {
	c.Str(&img.Host)
	c.Str(&img.Path)
	c.Str(&img.Prog)
	c.Int((*int)(&img.VirtPid))
	c.I64(&img.Generation)
}

func (cfg *RoundCfg) code(c *bin.Coder) {
	c.Bool(&cfg.Compress)
	c.Bool(&cfg.Fsync)
	c.Bool(&cfg.Forked)
	c.Bool(&cfg.Store)
}
