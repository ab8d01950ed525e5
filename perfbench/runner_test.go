package main

import (
	"os"
	"testing"
	"time"

	dmtcpsim "repro"
)

func TestMain(m *testing.M) {
	clock.start(dataRef)
	os.Exit(m.Run())
}

// A second RestartAll of an OpenMPI NAS/LU job, restoring a round
// checkpointed after an earlier restart, has been seen never to return
// while the coordinator journal grows until the host runs out of
// memory.  The runner must end such a job within its guards and report
// either a verified result or a counted failure, never abort; the test
// keeps passing once the hang is fixed.
func TestSecondRestartEndsWithinBudget(t *testing.T) {
	start := time.Now()
	j := &job{seed: 1}
	luJob(2)(j)
	if took := time.Since(start); took > hostBudget+shutdownWait {
		t.Fatalf("job took %v, beyond the runner's host budget", took)
	}
	if j.attempted < j.failed || j.attempted == 0 {
		t.Fatalf("attempted %d, failed %d", j.attempted, j.failed)
	}
	if j.failed > 0 {
		if len(j.errs) == 0 {
			t.Fatalf("%d failed operations without a reported error", j.failed)
		}
		t.Logf("counted failure: %v", j.errs)
		return
	}
	if len(j.restarts) != 2 {
		t.Fatalf("no failure counted, but %d restarts recorded, want 2", len(j.restarts))
	}
}

// A scenario that never returns must end at its virtual deadline as a
// counted failure of the operation in flight.
func TestDeadlineCountsOperationInFlight(t *testing.T) {
	j := &job{seed: 1}
	j.cluster(2, dmtcpsim.Config{}, 5*time.Second, func(c *cycle) {
		c.op("stuck", func() error {
			for {
				c.t.Idle(100 * time.Millisecond)
			}
		})
	})
	// One for the stuck operation, one for the journal replay.
	if j.attempted != 2 || j.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2 and 1 (errors: %v)", j.attempted, j.failed, j.errs)
	}
}
