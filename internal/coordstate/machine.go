package coordstate

import (
	"fmt"

	"repro/internal/bin"
)

// Entry is one serialized journal record.  Seq numbers are contiguous
// from 1, so a standby's "last applied seq" fully identifies the
// prefix it holds — the journal analogue of the replica service's
// want/missing handshake.  After compaction the prefix up to Base() is
// summarized by a state snapshot and only entries with Seq > Base()
// remain materialized.
type Entry struct {
	Seq  int64
	Data []byte
}

// Machine is a coordinator state machine: the state plus the journal
// that produced it.  The active coordinator appends via Apply; a
// standby appends via ApplyEntry with records shipped from the leader
// (or wholesale via InstallSnapshot when it is behind a compaction).
type Machine struct {
	st      *State
	entries []Entry
	// base is the seq the current snapshot summarizes (0 = no
	// compaction yet); snapshot holds the encoded state at base, and
	// baseEpoch the leadership epoch it was taken under.  entries[i]
	// has Seq base+i+1.
	base      int64
	baseEpoch int64
	snapshot  []byte
	// epochStarts records every EvTakeover entry beyond base as
	// {epoch, seq}, in order.  A peer still on epoch E agrees with this
	// journal exactly up to the entry before the first takeover of an
	// epoch > E — the fencing point FenceFor computes for the
	// replication handshake.  Takeovers older than the snapshot are
	// summarized by baseEpoch: a peer that predates it needs the
	// snapshot, not a fence.
	epochStarts []epochStart
}

type epochStart struct{ epoch, seq int64 }

// NewMachine returns an empty machine.
func NewMachine() *Machine { return &Machine{st: NewState()} }

// State exposes the current state (read-only by convention: all
// mutation goes through Apply).
func (m *Machine) State() *State { return m.st }

// Seq returns the last applied journal sequence number.
func (m *Machine) Seq() int64 { return m.base + int64(len(m.entries)) }

// Base returns the seq summarized by the current snapshot (0 when the
// journal has never been compacted): entries at or below it are gone.
func (m *Machine) Base() int64 { return m.base }

// Epoch returns the current leadership epoch.
func (m *Machine) Epoch() int64 { return m.st.Epoch }

// EpochStartSeq returns the seq of the entry that began the current
// epoch (0 when no takeover has happened since the snapshot).
func (m *Machine) EpochStartSeq() int64 {
	if len(m.epochStarts) == 0 {
		return 0
	}
	return m.epochStarts[len(m.epochStarts)-1].seq
}

// FenceFor returns the newest seq a peer still on peerEpoch provably
// shares with this journal: the entry before the first takeover of an
// epoch the peer has not seen.  Everything the peer holds beyond it
// may be entries a dead leader never replicated — the peer must
// rewind there before accepting this journal's suffix.  A peer on the
// current epoch shares everything (up to its own seq).  A fence below
// Base() means the materialized journal cannot serve the peer; the
// pusher ships the snapshot instead.
func (m *Machine) FenceFor(peerEpoch int64) int64 {
	if peerEpoch < m.baseEpoch {
		return m.base - 1
	}
	for _, es := range m.epochStarts {
		if es.epoch > peerEpoch {
			return es.seq - 1
		}
	}
	return m.Seq()
}

// Apply records ev in the journal and advances the state, returning
// the effects the active coordinator must act on.
func (m *Machine) Apply(ev Event) []Effect {
	seq := m.Seq() + 1
	m.entries = append(m.entries, Entry{Seq: seq, Data: ev.Encode()})
	if ev.Kind == EvTakeover {
		m.epochStarts = append(m.epochStarts, epochStart{epoch: ev.Epoch, seq: seq})
	}
	return apply(m.st, ev)
}

// ApplyEntry replays one shipped journal record on a standby.  The
// record must be the next in sequence; anything else is rejected so
// the pusher re-ships from the standby's actual position.  The machine
// keeps e.Data as its journal's copy: the caller hands over bytes that
// nobody changes afterwards (a decoded frame or journal, or an entry of
// another machine, which never writes into its entries either).
func (m *Machine) ApplyEntry(e Entry) ([]Effect, error) {
	if e.Seq != m.Seq()+1 {
		return nil, fmt.Errorf("%w: entry seq %d, have %d", ErrBadSeq, e.Seq, m.Seq())
	}
	ev, err := DecodeEvent(e.Data)
	if err != nil {
		return nil, err
	}
	m.entries = append(m.entries, e)
	if ev.Kind == EvTakeover {
		m.epochStarts = append(m.epochStarts, epochStart{epoch: ev.Epoch, seq: e.Seq})
	}
	return apply(m.st, ev), nil
}

// EntriesSince returns the materialized journal records with Seq >
// seq.  A seq below Base() yields everything materialized — the caller
// must have installed the snapshot first for the result to be a
// contiguous continuation.
func (m *Machine) EntriesSince(seq int64) []Entry {
	if seq < m.base {
		seq = m.base
	}
	if seq >= m.Seq() {
		return nil
	}
	return m.entries[seq-m.base:]
}

// Compact snapshots the current state and truncates the materialized
// journal prefix it summarizes.  It only runs between rounds (an
// in-flight round is volatile protocol state the snapshot format
// deliberately excludes); Seq() and the state are unchanged — only the
// representation shrinks.
func (m *Machine) Compact() error {
	snap, err := EncodeState(m.st)
	if err != nil {
		return err
	}
	m.snapshot = snap
	m.base = m.Seq()
	m.baseEpoch = m.st.Epoch
	m.entries = nil
	m.epochStarts = nil
	return nil
}

// Snapshot returns the current compaction snapshot (nil when the
// journal has never been compacted) and the seq it summarizes.
func (m *Machine) Snapshot() (int64, []byte) { return m.base, m.snapshot }

// InstallSnapshot replaces this machine's state wholesale with a
// shipped snapshot: the standby-side landing of a leader compaction it
// was behind.  Any locally held entries are discarded — the snapshot's
// epoch supersedes them (callers enforce epoch fencing before getting
// here).
func (m *Machine) InstallSnapshot(base int64, data []byte) error {
	st, err := DecodeState(data)
	if err != nil {
		return err
	}
	m.st = st
	m.snapshot = append([]byte(nil), data...)
	m.base = base
	m.baseEpoch = st.Epoch
	m.entries = nil
	m.epochStarts = nil
	return nil
}

// TruncateTo discards every materialized entry with Seq > seq and
// rebuilds the state by replaying the remainder on top of the snapshot
// — the fencing rewind a standby performs when a new leader's epoch
// supersedes entries the old leader never got to replicate.  Rewinding
// below Base() is impossible (those entries are gone); such a seq
// clamps to Base(), which is safe because a pusher that fences below
// the peer's base ships a snapshot instead of a suffix.
func (m *Machine) TruncateTo(seq int64) error {
	if seq < m.base {
		seq = m.base
	}
	if seq >= m.Seq() {
		return nil
	}
	kept := m.entries[:seq-m.base]
	fresh := NewMachine()
	if m.snapshot != nil {
		if err := fresh.InstallSnapshot(m.base, m.snapshot); err != nil {
			return err
		}
	}
	for _, e := range kept {
		if _, err := fresh.ApplyEntry(e); err != nil {
			return err
		}
	}
	m.st = fresh.st
	m.entries = fresh.entries
	m.epochStarts = fresh.epochStarts
	return nil
}

// Replay builds a machine from a journal prefix.
func Replay(entries []Entry) (*Machine, error) {
	m := NewMachine()
	for _, e := range entries {
		if _, err := m.ApplyEntry(e); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// EncodeEntries serializes journal records as a self-delimiting
// stream, so an on-disk journal can grow by appending the suffix
// instead of being rewritten whole.
func EncodeEntries(entries []Entry) []byte {
	c := bin.Encoding()
	for i := range entries {
		entries[i].Code(&c)
	}
	return c.E.B
}

// Code lists a journal record's fields; the on-disk journal and the
// replica's append frame carry it.
func (e *Entry) Code(c *bin.Coder) {
	c.I64(&e.Seq)
	c.Bytes(&e.Data)
}

// snapshotSeq marks a snapshot record in the on-disk journal stream:
// a pseudo-entry whose Seq is the negated base and whose Data is the
// encoded state.
func snapshotSeq(base int64) int64 { return -base }

// JournalBytes serializes the whole journal (the on-disk artifact the
// leader maintains at round boundaries): the compaction snapshot, if
// any, followed by the materialized suffix.
func (m *Machine) JournalBytes() []byte {
	var head []Entry
	if m.snapshot != nil {
		head = []Entry{{Seq: snapshotSeq(m.base), Data: m.snapshot}}
	}
	return EncodeEntries(append(head, m.entries...))
}

// DecodeJournal parses an EncodeEntries stream back into entries.
// A leading negative-seq record is a compaction snapshot (see
// JournalBytes); RestoreJournal consumes it.
func DecodeJournal(b []byte) ([]Entry, error) {
	c := bin.Decoding(b)
	var out []Entry
	for len(c.D.B) > 0 {
		var e Entry
		e.Code(&c)
		if c.D.Err != nil {
			return nil, fmt.Errorf("coordstate: journal decode: %w", c.D.Err)
		}
		out = append(out, e)
	}
	return out, nil
}

// RestoreJournal rebuilds a machine from a JournalBytes stream,
// handling the optional leading snapshot record.
func RestoreJournal(b []byte) (*Machine, error) {
	entries, err := DecodeJournal(b)
	if err != nil {
		return nil, err
	}
	m := NewMachine()
	if len(entries) > 0 && entries[0].Seq < 0 {
		if err := m.InstallSnapshot(-entries[0].Seq, entries[0].Data); err != nil {
			return nil, err
		}
		entries = entries[1:]
	}
	for _, e := range entries {
		if _, err := m.ApplyEntry(e); err != nil {
			return nil, err
		}
	}
	return m, nil
}
