// Package topc implements a TOP-C style master–worker framework over
// the MPI substrate, plus the ParGeant4-like particle-simulation
// application the paper uses for its scalability study (Fig. 5).
// TOP-C (Task Oriented Parallel C/C++) distributes independent tasks
// — here, simulated particle events — from a master (rank 0) to
// workers, exactly the structure of ParGeant4 [3].
package topc

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/mpi"
)

// Tags used by the master/worker protocol.
const (
	tagTask   = 100
	tagResult = 101
	tagStop   = 102
)

// Config parameterizes a ParGeant4-like run.
type Config struct {
	// Events is the total number of particle events to simulate.
	Events int
	// EventCPU is the per-event computation time on a worker.
	EventCPU time.Duration
	// WorkerMB is each worker's resident footprint (geometry +
	// physics tables; grows to ≈160 MB in the paper's runs).
	WorkerMB int64
	// MasterMB is the master's footprint.
	MasterMB int64
}

// DefaultConfig mirrors the paper's ParGeant4 configuration scale.
func DefaultConfig() Config {
	return Config{
		Events:   1 << 20, // effectively long-running
		EventCPU: 12 * time.Millisecond,
		WorkerMB: 105,
		MasterMB: 80,
	}
}

// Register installs the pargeant4 program.
func Register(c *kernel.Cluster) {
	c.Register("pargeant4", &Geant{Cfg: DefaultConfig()})
}

// Geant is the ParGeant4-like application (a kernel.Program whose
// ranks are launched by mpiexec/orterun).
type Geant struct {
	Cfg Config
}

type gstate struct {
	next     int // master: next event to hand out; worker: events done
	done     int // master: completed events
	pending  int // worker: result not yet surely on the wire (-1 none)
	inFlight []int32
	ra       mpi.RankArgs
}

func encG(s gstate) []byte {
	var e bin.Encoder
	e.Int(s.next)
	e.Int(s.done)
	e.Int(s.pending)
	e.U32(uint32(len(s.inFlight)))
	for _, v := range s.inFlight {
		e.U32(uint32(v))
	}
	e.Str(joinArgs(s.ra.Format()))
	return e.B
}

func decG(b []byte) (gstate, error) {
	d := &bin.Decoder{B: b}
	s := gstate{next: d.Int(), done: d.Int(), pending: d.Int()}
	s.inFlight = make([]int32, d.Count(4))
	for i := range s.inFlight {
		s.inFlight[i] = int32(d.U32())
	}
	ra, err := mpi.ParseRankArgs(splitArgs(d.Str()))
	if d.Err != nil {
		err = d.Err
	}
	s.ra = ra
	return s, err
}

func joinArgs(a []string) string {
	out := ""
	for i, s := range a {
		if i > 0 {
			out += "\x1f"
		}
		out += s
	}
	return out
}

func splitArgs(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\x1f' {
			out = append(out, cur)
			cur = ""
		} else {
			cur += string(r)
		}
	}
	return append(out, cur)
}

// starPeers gives each worker a channel to the master only.
func starPeers(rank, size int) []int {
	if rank == 0 {
		return mpi.AllPeers(0, size)
	}
	return []int{0}
}

// Main starts a fresh rank.  AppArgs[0] optionally caps total events.
func (g *Geant) Main(t *kernel.Task, args []string) {
	ra, err := mpi.ParseRankArgs(args)
	if err != nil {
		t.Printf("pargeant4: %v\n", err)
		t.Exit(2)
	}
	cfg := g.Cfg
	if len(ra.AppArgs) > 0 {
		if v, err := strconv.Atoi(ra.AppArgs[0]); err == nil && v > 0 {
			cfg.Events = v
		}
	}
	w, err := mpi.Init(t, ra.Rank, ra.Layout, starPeers(ra.Rank, ra.Layout.Size))
	if err != nil {
		t.Printf("pargeant4: %v\n", err)
		t.Exit(1)
	}
	t.MapLib("/usr/lib/geant4.so", 22*model.MB)
	if ra.Rank == 0 {
		t.MapAnon("[geometry]", cfg.MasterMB*model.MB, model.ClassData)
	} else {
		t.MapAnon("[geometry]", cfg.WorkerMB*model.MB, model.ClassData)
	}
	st := gstate{ra: ra, pending: -1}
	if ra.Rank == 0 {
		st.inFlight = make([]int32, ra.Layout.Size)
		for i := range st.inFlight {
			st.inFlight[i] = -1
		}
	}
	w.Commit(encG(st))
	g.run(t, w, st, cfg)
}

// Restore resumes a rank from its checkpointed state.
func (g *Geant) Restore(t *kernel.Task, state []byte) {
	w, app, err := mpi.Resume(t, state)
	if err != nil {
		return
	}
	st, err := decG(app)
	if err != nil {
		t.Printf("pargeant4: restore: %v\n", err)
		return
	}
	g.run(t, w, st, g.Cfg)
}

func (g *Geant) run(t *kernel.Task, w *mpi.World, st gstate, cfg Config) {
	if len(st.ra.AppArgs) > 0 {
		if v, err := strconv.Atoi(st.ra.AppArgs[0]); err == nil && v > 0 {
			cfg.Events = v
		}
	}
	if w.Rank == 0 {
		g.master(t, w, st, cfg)
	} else {
		g.worker(t, w, st, cfg)
	}
}

// master hands out events and collects results (TOP-C main loop).
func (g *Geant) master(t *kernel.Task, w *mpi.World, st gstate, cfg Config) {
	size := w.Size()
	// (Re-)issue the sends implied by the committed state: after a
	// restart, tasks recorded as in flight may or may not have hit
	// the wire; the MPI layer's call-ordinal suppression makes these
	// exact (already-sent ones are dropped).  On a fresh start every
	// slot is idle and this is a no-op.
	for wk := 1; wk < size; wk++ {
		if st.inFlight[wk] >= 0 {
			var e bin.Encoder
			e.Int(int(st.inFlight[wk]))
			w.Send(wk, tagTask, e.B)
		}
	}
	// Seed: one task per idle worker.
	for wk := 1; wk < size; wk++ {
		if st.inFlight[wk] < 0 && st.next < cfg.Events {
			g.assign(w, &st, wk)
		}
	}
	for st.done < cfg.Events {
		// Collect results round-robin from workers with work.
		progress := false
		for wk := 1; wk < size; wk++ {
			if st.inFlight[wk] < 0 {
				continue
			}
			if _, err := w.Recv(wk, tagResult); err != nil {
				return
			}
			st.done++
			st.inFlight[wk] = -1
			if st.next < cfg.Events {
				g.assign(w, &st, wk)
			} else {
				w.Send(wk, tagStop, nil)
			}
			w.Commit(encG(st))
			progress = true
		}
		if !progress {
			break
		}
	}
	t.P.Node.FS.WriteFile("/out/pargeant4.done",
		[]byte(fmt.Sprintf("events=%d", st.done)), 0)
	mpi.NotifyDone(t, st.ra)
}

func (g *Geant) assign(w *mpi.World, st *gstate, wk int) {
	var e bin.Encoder
	e.Int(st.next)
	st.inFlight[wk] = int32(st.next)
	st.next++
	w.Commit(encG(*st))
	w.Send(wk, tagTask, e.B)
}

// worker simulates events until told to stop.
func (g *Geant) worker(t *kernel.Task, w *mpi.World, st gstate, cfg Config) {
	for {
		// (Re-)issue the result implied by committed state; the MPI
		// layer suppresses it when it already reached the wire.
		if st.pending >= 0 {
			var e bin.Encoder
			e.Int(st.pending)
			w.Send(0, tagResult, e.B)
			st.pending = -1
			w.Commit(encG(st))
		}
		// Await the next master message; tagStop ends the run.
		msg, err := w.RecvAny(0)
		if err != nil {
			return
		}
		if msg.Tag == tagStop {
			break
		}
		d := bin.Decoder{B: msg.Data}
		task := d.Int()
		t.Compute(cfg.EventCPU)
		st.next++ // events completed
		// Geometry navigation tables grow slowly with events seen.
		if heap := t.P.Mem.Area("[geometry]"); heap != nil && st.next%64 == 0 {
			heap.Bytes += model.MB / 4
		}
		st.pending = task
		w.Commit(encG(st))
	}
	mpi.NotifyDone(t, st.ra)
}
