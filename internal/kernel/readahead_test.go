package kernel

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestReadAheadProperties drives the read-ahead stage through a few
// hundred seeded mixes: 1–48 blocks of 1 B–1 MB stored, 1–8 consumers
// that gunzip each claimed block for 0–5 ms, blocks local from the
// start or delivered one at a time by a fetch task, blocks a fault has
// already claimed (the stage's hook drops them), and injected errors
// that stop the stage from the fetch task or from a consumer.  The
// stage reads off a pipe of its own, so a transfer of n bytes takes
// exactly n/bandwidth.  Every mix must keep four rules:
//   - no block is gunzipped before its transfer ends;
//   - each block is transferred and installed at most once, and
//     exactly once when nothing failed and no fault claimed it;
//   - no block is transferred before it is local;
//   - no task is left parked: the reader has exited once every
//     consumer has seen the stage end.
func TestReadAheadProperties(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkReadAheadMix(t, seed)
	}
}

func checkReadAheadMix(t *testing.T, seed int64) {
	const bw = 500 * float64(model.MB)
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(48)
	workers := 1 + rng.Intn(8)
	stored := make([]int64, n)
	gunzip := make([]time.Duration, n)
	local := make([]bool, n)
	dropped := make([]bool, n)
	for i := range stored {
		stored[i] = 1 + rng.Int63n(model.MB)
		gunzip[i] = time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		local[i] = rng.Intn(3) == 0
		dropped[i] = rng.Intn(10) == 0
	}
	order := rng.Perm(n)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
	}
	fetchFailAt, consumerFailAt := -1, -1
	switch rng.Intn(6) {
	case 0, 1:
		fetchFailAt = rng.Intn(n + 1)
	case 2:
		consumerFailAt = rng.Intn(n)
	}

	eng := sim.NewEngine(seed)
	c := NewCluster(eng, model.Default(), 1)
	defer eng.Shutdown()
	pipe := flow.NewPipe(eng, "test.disk", bw, bw, 0)

	queuedAt := make([]sim.Time, n)
	startAt := make([]sim.Time, n)
	claimAt := make([]sim.Time, n)
	queued := make([]bool, n)
	transfers := make([]int, n)
	installs := make([]int, n)
	failed := false
	var leftover []string

	c.RegisterFunc("ra-main", func(task *Task, _ []string) {
		want := func(id int) bool {
			if dropped[id] {
				return false
			}
			transfers[id]++
			startAt[id] = task.Now()
			return true
		}
		ra := NewReadAhead(task, pipe, want)
		enqueue := func(i int, at sim.Time) {
			queued[i], queuedAt[i] = true, at
			ra.Queue(i, stored[i])
		}
		for i := range stored {
			if local[i] {
				enqueue(i, task.Now())
			}
		}
		running := 0
		join := sim.NewWaitQueue(eng, "test.join")
		spawn := func(role string, fn func(*Task)) {
			running++
			task.P.SpawnTask(role, true, func(wt *Task) {
				defer func() {
					running--
					join.WakeAll()
				}()
				fn(wt)
			})
		}
		spawn("fetch", func(ft *Task) {
			delivered := 0
			for _, i := range order {
				if local[i] {
					continue
				}
				if delivered == fetchFailAt {
					failed = true
					ra.Stop()
					return
				}
				ft.Idle(gaps[i])
				enqueue(i, ft.Now())
				delivered++
			}
			ra.Close()
		})
		claims := 0
		for w := 0; w < workers; w++ {
			spawn("consumer", func(wt *Task) {
				for {
					i, ok := ra.Claim(wt)
					if !ok {
						return
					}
					claimAt[i] = wt.Now()
					installs[i]++
					if claims == consumerFailAt {
						failed = true
						ra.Stop()
						return
					}
					claims++
					wt.Compute(gunzip[i])
				}
			})
		}
		for running > 0 {
			join.Wait(task.T)
		}
		for _, tk := range task.P.Tasks() {
			if tk != task {
				leftover = append(leftover, tk.Role)
			}
		}
		eng.Stop()
	})
	if _, err := c.Node(0).Kern.Spawn("ra-main", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	if len(leftover) > 0 {
		t.Errorf("seed %d: tasks still alive after the stage ended: %v", seed, leftover)
	}
	batch := map[sim.Time]int64{} // transfer start → bytes in that transfer
	for i := range stored {
		if transfers[i] > 0 {
			batch[startAt[i]] += stored[i]
		}
	}
	for i := range stored {
		switch {
		case transfers[i] > 1 || installs[i] > 1:
			t.Errorf("seed %d: block %d transferred %d times, installed %d times", seed, i, transfers[i], installs[i])
		case transfers[i] == 1 && (!queued[i] || startAt[i] < queuedAt[i]):
			t.Errorf("seed %d: block %d transferred at %v before it was local (queued %v at %v)",
				seed, i, startAt[i], queued[i], queuedAt[i])
		case installs[i] == 1 && transfers[i] == 0:
			t.Errorf("seed %d: block %d installed but never transferred", seed, i)
		case installs[i] == 1 && claimAt[i] < startAt[i].Add(time.Duration(float64(batch[startAt[i]])/bw*1e9)):
			t.Errorf("seed %d: block %d claimed at %v, before its transfer of %d bytes from %v ended",
				seed, i, claimAt[i], batch[startAt[i]], startAt[i])
		case !failed && dropped[i] && transfers[i]+installs[i] > 0:
			t.Errorf("seed %d: block %d a fault claimed was transferred anyway", seed, i)
		case !failed && !dropped[i] && (transfers[i] != 1 || installs[i] != 1):
			t.Errorf("seed %d: block %d transferred %d times, installed %d times, want once each",
				seed, i, transfers[i], installs[i])
		}
	}
}
