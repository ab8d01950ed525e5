package dmtcp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// awareLog records what awareLoopProg saw, for the test to check.
type awareLog struct {
	events  []string
	critEnd sim.Time // when Main left its critical section
}

// awareLoopProg registers its checkpoint hooks in each incarnation,
// tagged with the incarnation's IsRestart, and computes forever.  Main
// starts inside a 200-ms critical section.
type awareLoopProg struct{ log *awareLog }

func (a awareLoopProg) hooks(t *kernel.Task, aw *AwareAPI) {
	tag := "first"
	if aw.IsRestart() {
		tag = "restored"
	}
	a.log.events = append(a.log.events, tag)
	aw.OnPreCheckpoint(func(*kernel.Task) { a.log.events = append(a.log.events, "pre/"+tag) })
	aw.OnPostCheckpoint(func(*kernel.Task) { a.log.events = append(a.log.events, "post/"+tag) })
}

func (a awareLoopProg) Main(t *kernel.Task, _ []string) {
	aw := Aware(t.P)
	a.hooks(t, aw)
	t.P.SaveState([]byte{0})
	aw.DelayCheckpointsBegin(t)
	t.Compute(200 * time.Millisecond)
	a.log.critEnd = t.Now()
	aw.DelayCheckpointsEnd(t)
	for {
		t.Compute(5 * time.Millisecond)
	}
}

func (a awareLoopProg) Restore(t *kernel.Task, _ []byte) {
	a.hooks(t, Aware(t.P))
	for {
		t.Compute(5 * time.Millisecond)
	}
}

// TestAwareAPIAcrossRestart pins the dmtcpaware calls around a restart:
// IsRestart tells the incarnations apart, a round requested inside
// DelayCheckpointsBegin/End suspends the process only after it leaves
// the critical section, Status counts the registered processes and the
// completed rounds, and hooks are the incarnation's own — those the
// restored process registers in Restore fire at its next checkpoint,
// those of the process it replaced never again.
func TestAwareAPIAcrossRestart(t *testing.T) {
	e := newEnv(t, 1, Config{})
	log := &awareLog{}
	e.c.Register("awareloop", awareLoopProg{log: log})
	e.drive(t, func(task *kernel.Task) {
		proc, err := e.sys.Launch(0, "awareloop")
		if err != nil {
			t.Error(err)
			return
		}
		task.Compute(50 * time.Millisecond)
		status := func(wantClients, wantRounds int) {
			aw := Aware(e.sys.ManagedProcesses()[0])
			clients, rounds, err := aw.Status(task)
			if err != nil || clients != wantClients || rounds != wantRounds {
				t.Errorf("Status = %d clients, %d rounds, %v; want %d, %d", clients, rounds, err, wantClients, wantRounds)
			}
		}
		status(1, 0)
		if Aware(proc).IsRestart() {
			t.Error("IsRestart is true before any restart")
		}

		round, err := e.sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		if suspended := round.Start.Add(round.Stages.Suspend); round.Start >= log.critEnd || suspended < log.critEnd {
			t.Errorf("round began at %v and suspended at %v; the critical section ended at %v", round.Start, suspended, log.critEnd)
		}
		status(1, 1)

		e.sys.KillManaged()
		if err := restartWithin(t, e, task, round, nil, 10*time.Second, nil); err != nil {
			t.Error(err)
			return
		}
		task.Compute(20 * time.Millisecond)
		if !Aware(e.sys.ManagedProcesses()[0]).IsRestart() {
			t.Error("IsRestart is false after the restart")
		}
		if _, err := e.sys.Checkpoint(task); err != nil {
			t.Error(err)
			return
		}
		status(1, 2)
	})
	want := "first,pre/first,post/first,restored,pre/restored,post/restored"
	if got := strings.Join(log.events, ","); got != want {
		t.Errorf("events = %s, want %s", got, want)
	}
}
