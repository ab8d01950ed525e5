package kernel

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/model"
	"repro/internal/sim"
)

// wbBW is the test pipe's rate: a transfer of n bytes takes exactly
// n/wbBW seconds, rounded up to a nanosecond.
const wbBW = 500 * float64(model.MB)

func wbDur(n int64) time.Duration {
	return time.Duration(float64(n) / wbBW * 1e9)
}

// wbNear reports got within 2 ns of want (the pipe rounds each event up
// to a whole nanosecond).
func wbNear(got, want sim.Time) bool {
	d := got.Sub(want)
	return d >= -2 && d <= 2
}

// TestWriteBehindOrderMergeAndClose walks the stage through one
// schedule: block 0 queues alone, blocks 1 and 2 queue while its
// transfer runs, block 3 queues after the writer went idle.  The
// writer takes 0 alone, merges 1 and 2 into the next transfer, takes 3
// alone, lands every block in FIFO order at the end of the transfer
// carrying it, and Close returns at the last landing.
func TestWriteBehindOrderMergeAndClose(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCluster(eng, model.Default(), 1)
	defer eng.Shutdown()
	pipe := flow.NewPipe(eng, "test.disk", wbBW, wbBW, 0)
	sizes := []int64{model.MB, model.MB / 2, model.MB / 4, model.MB}
	var order []int
	var landAt []sim.Time
	var t0, closedAt sim.Time
	c.RegisterFunc("wb", func(task *Task, _ []string) {
		t0 = task.Now()
		wb := NewWriteBehind(task, pipe)
		queue := func(i int) {
			wb.Queue(sizes[i], func(wt *Task, ok bool) {
				if !ok {
					t.Errorf("block %d landed with ok false", i)
				}
				order = append(order, i)
				landAt = append(landAt, wt.Now())
			})
		}
		queue(0)
		task.Idle(time.Millisecond) // block 0's transfer takes 2 ms
		queue(1)
		queue(2)
		task.Idle(10 * time.Millisecond)
		queue(3)
		wb.Close(task)
		closedAt = task.Now()
		eng.Stop()
	})
	if _, err := c.Node(0).Kern.Spawn("wb", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("landing order %v, want FIFO", order)
	}
	end0 := t0.Add(wbDur(sizes[0]))
	end12 := end0.Add(wbDur(sizes[1] + sizes[2]))
	end3 := t0.Add(11 * time.Millisecond).Add(wbDur(sizes[3]))
	for i, want := range []sim.Time{end0, end12, end12, end3} {
		if !wbNear(landAt[i], want) {
			t.Errorf("block %d landed at %v, want %v (the end of the transfer carrying it)", i, landAt[i], want)
		}
	}
	if closedAt != landAt[3] {
		t.Errorf("Close returned at %v, the last block landed at %v", closedAt, landAt[3])
	}
}

// TestWriteBehindProperties drives the stage through a few hundred
// seeded mixes: 1–40 blocks of 1 B–1 MB queued by one or two producer
// tasks at random gaps, and in a third of them the process killed at a
// random instant.  An observer task in another process waits for every
// landing hook.  Every mix must keep five rules:
//   - blocks land in the order they were queued, each exactly once;
//   - a transfer starts when its first block is queued or when the
//     previous transfer ends, whichever is later, and carries every
//     block queued by then and nothing queued after;
//   - each block lands when the transfer carrying it ends;
//   - Close returns at the last landing;
//   - after a kill every unlanded block's hook runs once with ok
//     false, so the observer is never left parked, and the writer task
//     is gone.
func TestWriteBehindProperties(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		checkWriteBehindMix(t, seed)
	}
}

func checkWriteBehindMix(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	producers := 1 + rng.Intn(2)
	stored := make([]int64, n)
	gaps := make([]time.Duration, n)
	for i := range stored {
		stored[i] = 1 + rng.Int63n(model.MB)
		gaps[i] = time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
	}
	killAt := time.Duration(-1)
	if rng.Intn(3) == 0 {
		killAt = time.Duration(rng.Int63n(int64(n) * int64(2*time.Millisecond)))
	}

	eng := sim.NewEngine(seed)
	c := NewCluster(eng, model.Default(), 1)
	defer eng.Shutdown()
	pipe := flow.NewPipe(eng, "test.disk", wbBW, wbBW, 0)

	var queued []int // block ids in queue order
	queuedAt := make([]sim.Time, n)
	landAt := make([]sim.Time, n)
	hooks := make([]int, n)
	okLand := make([]bool, n)
	var landOrder []int
	var closedAt sim.Time
	closed, observed := false, false
	var victim *Process
	hookW := sim.NewWaitQueue(eng, "test.hooks")

	c.RegisterFunc("wb-main", func(task *Task, _ []string) {
		wb := NewWriteBehind(task, pipe)
		next, finished := 0, 0
		join := sim.NewWaitQueue(eng, "test.join")
		for p := 0; p < producers; p++ {
			task.P.SpawnTask("producer", false, func(pt *Task) {
				for next < n {
					i := next
					next++
					pt.Idle(gaps[i])
					queued = append(queued, i)
					queuedAt[i] = pt.Now()
					wb.Queue(stored[i], func(wt *Task, ok bool) {
						hooks[i]++
						okLand[i] = ok
						landAt[i] = wt.Now()
						if ok {
							landOrder = append(landOrder, i)
						}
						hookW.WakeAll()
					})
				}
				finished++
				join.WakeAll()
			})
		}
		for finished < producers {
			join.Wait(task.T)
		}
		wb.Close(task)
		closed, closedAt = true, task.Now()
		for _, tk := range task.P.Tasks() {
			if tk != task {
				t.Errorf("seed %d: task %s still alive after Close", seed, tk.Role)
			}
		}
	})
	c.RegisterFunc("observer", func(task *Task, _ []string) {
		if killAt >= 0 {
			task.Idle(killAt)
			victim.Kern.Kill(victim.Pid)
			for _, tk := range victim.Tasks() {
				t.Errorf("seed %d: task %s alive after the kill", seed, tk.Role)
			}
		}
		for deadline := task.Now().Add(time.Minute); task.Now() < deadline; {
			done := 0
			for _, h := range hooks {
				done += h
			}
			if (killAt >= 0 || closed) && done == len(queued) {
				observed = true
				break
			}
			hookW.WaitTimeout(task.T, time.Second)
		}
		eng.Stop()
	})
	var err error
	if victim, err = c.Node(0).Kern.Spawn("wb-main", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).Kern.Spawn("observer", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !observed {
		t.Fatalf("seed %d: a minute on, the observer still waited for landing hooks", seed)
	}

	for _, i := range queued {
		if hooks[i] != 1 {
			t.Errorf("seed %d: block %d's hook ran %d times, want once", seed, i, hooks[i])
		}
	}
	// FIFO: the landed blocks are a prefix of the queue, in its order;
	// after a kill the rest ran their hooks with ok false.
	if !slices.Equal(landOrder, queued[:len(landOrder)]) {
		t.Errorf("seed %d: landing order %v is not the queue order %v", seed, landOrder, queued)
	}
	if killAt < 0 && (len(landOrder) != n || closedAt != landAt[queued[n-1]]) {
		t.Errorf("seed %d: %d of %d blocks landed; Close returned at %v, the last landed at %v",
			seed, len(landOrder), n, closedAt, landAt[queued[n-1]])
	}
	// Transfers are the runs of landed blocks sharing a landing instant.
	var prevEnd sim.Time
	for lo := 0; lo < len(landOrder); {
		hi := lo + 1
		for hi < len(landOrder) && landAt[landOrder[hi]] == landAt[landOrder[lo]] {
			hi++
		}
		var bytes int64
		start := max(prevEnd, queuedAt[landOrder[lo]])
		for _, i := range landOrder[lo:hi] {
			bytes += stored[i]
			if queuedAt[i] > start {
				t.Errorf("seed %d: block %d queued at %v rode the transfer that started at %v", seed, i, queuedAt[i], start)
			}
		}
		if hi < len(queued) {
			if i := queued[hi]; queuedAt[i] < start && okLand[i] {
				t.Errorf("seed %d: block %d queued at %v missed the transfer that started at %v", seed, i, queuedAt[i], start)
			}
		}
		end := landAt[landOrder[lo]]
		if !wbNear(end, start.Add(wbDur(bytes))) {
			t.Errorf("seed %d: transfer of %d bytes from %v landed at %v, want %v", seed, bytes, start, end, start.Add(wbDur(bytes)))
		}
		prevEnd, lo = end, hi
	}
}
