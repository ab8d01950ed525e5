package dmtcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bin"
	"repro/internal/coordstate"
	"repro/internal/kernel"
	"repro/internal/model"
)

// Journal replication is the coordinator's own protocol: the leader's
// shipper dials each standby coordinator's port and speaks three ops
// on a connection of its own, with letters the client protocol does
// not use.
//
//	want   leader epoch              → ack: standby epoch, last seq
//	snap   epoch, base, state bytes  → ack: seq (compaction catch-up)
//	append epoch, rewind point, entries → ack: seq
//
// Only a standby answers them; the leader, or a promoted standby,
// refuses with msgJErr.
const (
	msgJWant   = 'W'
	msgJSnap   = 'N'
	msgJAppend = 'J'
	msgJAck    = 'k'
	msgJErr    = 'e'
)

// JournalStats counts the coordinator journal's replication traffic,
// summed over every instance of the session.
type JournalStats struct {
	// Entries and Bytes count the journal records leaders shipped to
	// standbys; Snapshots counts compaction snapshots shipped whole to
	// standbys that predate a compaction.
	Entries   int
	Bytes     int64
	Snapshots int
	// FencedWrites counts journal writes (snapshot installs and
	// appends) a standby refused because the pusher's epoch was stale:
	// a deposed leader trying to extend a superseded history.
	FencedWrites int
}

// errDeposed reports that a journal push was refused because the peer
// has seen a newer coordinator epoch: the pusher is a deposed leader
// and must step down.
var errDeposed = errors.New("dmtcp: deposed by newer coordinator epoch")

// entryBytes is the least a journal entry encodes to.
const entryBytes = 8 + 4

// pushJournal ships the journal records the standby on peerHost lacks,
// with the want/missing discipline chunk streams use: ask for its epoch
// and last applied seq, then send only the suffix.  When the peer sat
// out one or more leadership changes it may hold entries a dead leader
// never replicated; the pusher, which has every takeover entry,
// computes the newest seq the peer provably shares (FenceFor) and the
// append tells the peer to rewind there first, so a divergent prefix is
// never silently extended (double-failure safe).  Every instance
// listens on the session's coordinator port.  It returns the peer's
// acknowledged seq.
func (co *Coordinator) pushJournal(t *kernel.Task, peerHost string) (int64, error) {
	m, p, js := co.Mach, co.Sys.C.Params, &co.Sys.Journal
	fd := t.Socket()
	if of, err := t.P.FD(fd); err == nil {
		of.Protected = true // infrastructure socket: not checkpointed
	}
	defer t.Close(fd)
	if err := t.Connect(fd, kernel.Addr{Host: peerHost, Port: co.Port}); err != nil {
		return 0, fmt.Errorf("dmtcp: journal push to %s: %w", peerHost, err)
	}
	want := bin.Encoding(msgJWant)
	want.E.I64(m.Epoch())
	d, err := journalCall(t, fd, want.E.B, peerHost, "handshake")
	if err != nil {
		return 0, err
	}
	peerEpoch, have := d.I64(), d.I64()
	if peerEpoch > m.Epoch() {
		return 0, fmt.Errorf("%s is on epoch %d, pusher on %d: %w", peerHost, peerEpoch, m.Epoch(), errDeposed)
	}
	from := min(have, m.FenceFor(peerEpoch))
	if from < m.Base() {
		// The peer predates a journal compaction: the prefix it needs
		// no longer exists as entries.  Ship the state snapshot whole
		// (it rewinds the peer past any divergence too), then continue
		// with the materialized suffix.
		base, snap := m.Snapshot()
		se := bin.Encoding(msgJSnap)
		se.E.I64(m.Epoch())
		se.E.I64(base)
		se.E.Bytes(snap)
		t.Compute(p.JournalAppendCost)
		t.Idle(model.TransferTime(p.NetLatency, p.NetBandwidth, int64(len(snap))))
		d, err := journalCall(t, fd, se.E.B, peerHost, "snapshot")
		if err != nil {
			return have, err
		}
		have, from = d.I64(), base
		js.Snapshots++
		js.Bytes += int64(len(snap))
	}
	entries := m.EntriesSince(from)
	if len(entries) == 0 && from == have {
		return have, nil
	}
	je := bin.Encoding(msgJAppend)
	je.E.I64(m.Epoch())
	je.E.I64(from) // rewind point: the newest seq the peer provably shares
	var total int64
	for i := range bin.List(&je, &entries, entryBytes) {
		entries[i].Code(&je)
		total += int64(len(entries[i].Data))
	}
	t.Compute(time.Duration(len(entries)) * p.JournalAppendCost)
	t.Idle(model.TransferTime(p.NetLatency, p.NetBandwidth, total))
	d, err = journalCall(t, fd, je.E.B, peerHost, "batch")
	if err != nil {
		return have, err
	}
	js.Entries += len(entries)
	js.Bytes += total
	return d.I64(), nil
}

// journalCall sends one journal op on fd and returns a decoder over the
// body of its ack; a refusal is an error naming what was refused.
func journalCall(t *kernel.Task, fd int, frame []byte, host, what string) (*bin.Decoder, error) {
	if err := t.SendFrame(fd, frame); err != nil {
		return nil, err
	}
	resp, err := t.RecvFrame(fd)
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 || resp[0] != msgJAck {
		return nil, fmt.Errorf("dmtcp: %s refused journal %s", host, what)
	}
	return &bin.Decoder{B: resp[1:]}, nil
}

// serveJournal answers one journal op from a leader's shipper.  A
// standby applies what it is sent to its state machine (effects
// discarded: a standby only mirrors state); any other instance refuses.
// A write from an epoch older than the standby's is fenced and counted.
// The read-only handshake records when a leader last reached this
// standby, which the silence watchdog reads.
func (co *Coordinator) serveJournal(t *kernel.Task, fd int, frame []byte) {
	p := co.Sys.C.Params
	t.Compute(p.ReplicaRPCCost)
	if !co.Standby {
		t.SendFrame(fd, []byte{msgJErr})
		return
	}
	m := co.Mach
	c := bin.Decoding(frame[1:])
	epoch := c.D.I64()
	ack := bin.Encoding(msgJAck)
	if frame[0] == msgJWant {
		// Even a stale-epoch pusher gets an honest answer: seeing the
		// newer epoch in the ack is how a deposed leader learns it must
		// step down.  Only the write ops fence.
		if epoch >= m.Epoch() {
			co.leaderSeen = t.Now()
		}
		ack.E.I64(m.Epoch())
		ack.E.I64(m.Seq())
		t.SendFrame(fd, ack.E.B)
		return
	}
	at := c.D.I64() // the snapshot's base, or the append's rewind point
	var snap []byte
	if frame[0] == msgJSnap {
		snap = c.D.Bytes()
	}
	if c.D.Err != nil || epoch < m.Epoch() {
		// A deposed leader can neither rewind nor extend a newer
		// epoch's history.
		co.Sys.Journal.FencedWrites++
		t.Trace().Add(t.Host(), "coord.fenced_writes", t.Now(), 1)
		t.SendFrame(fd, []byte{msgJErr})
		return
	}
	if frame[0] == msgJSnap {
		t.Compute(p.JournalAppendCost)
		if err := m.InstallSnapshot(at, snap); err != nil {
			t.SendFrame(fd, []byte{msgJErr})
			return
		}
	} else {
		if at < m.Seq() {
			// Entries beyond the leader-computed fence were made by a
			// dead leader and never reached the current one: rewind,
			// then replay the authoritative suffix.
			m.TruncateTo(at)
		}
		var entries []coordstate.Entry
		for i := range bin.List(&c, &entries, entryBytes) {
			entries[i].Code(&c)
			if c.D.Err != nil || entries[i].Seq != m.Seq()+1 {
				break // hole: the ack's seq makes the pusher re-ship
			}
			t.Compute(p.JournalAppendCost)
			if _, err := m.ApplyEntry(entries[i]); err != nil {
				break
			}
		}
	}
	ack.E.I64(m.Seq())
	t.SendFrame(fd, ack.E.B)
}
