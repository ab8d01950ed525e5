package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dmtcp"
	"repro/internal/kernel"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func quickOpts() Opts { return Opts{Trials: 1, Seed: 3, Quick: true} }

func parseSecs(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return f
}

func TestFig3Quick(t *testing.T) {
	tab := RunFig3(quickOpts())
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ck := parseSecs(t, row[1])
		rs := parseSecs(t, row[2])
		sz := parseSecs(t, row[3])
		if ck <= 0 || ck > 5 {
			t.Errorf("%s: ckpt %v out of Fig.3 range", row[0], ck)
		}
		if rs <= 0 || rs > 5 {
			t.Errorf("%s: restart %v out of range", row[0], rs)
		}
		if sz < 1 || sz > 40 {
			t.Errorf("%s: size %v MB out of Fig.3b range", row[0], sz)
		}
	}
	t.Log("\n" + tab.Render())
}

func TestRunCMSAnchors(t *testing.T) {
	tab := RunRunCMS(Opts{Trials: 1, Seed: 3})
	ck := parseSecs(t, tab.Rows[0][1])
	rs := parseSecs(t, tab.Rows[1][1])
	sz := parseSecs(t, tab.Rows[2][1])
	// Paper: 25.2 s / 18.4 s / 225 MB.  Accept a generous band — the
	// shape matters: tens of seconds, restart < checkpoint, ≈3x
	// compression.
	if ck < 15 || ck > 40 {
		t.Errorf("runCMS ckpt %v, want ≈25 s", ck)
	}
	if rs < 8 || rs > 30 {
		t.Errorf("runCMS restart %v, want ≈18 s", rs)
	}
	if rs >= ck {
		t.Errorf("restart %v should be below checkpoint %v", rs, ck)
	}
	if sz < 150 || sz > 320 {
		t.Errorf("runCMS size %v MB, want ≈225", sz)
	}
	t.Log("\n" + tab.Render())
}

func TestFig4Quick(t *testing.T) {
	tab := RunFig4(quickOpts())
	if len(tab.Rows) < 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		gz := parseSecs(t, row[1])
		raw := parseSecs(t, row[2])
		if gz <= raw {
			t.Errorf("%s: compressed ckpt %v should exceed raw %v", row[0], gz, raw)
		}
		szGz := parseSecs(t, row[5])
		szRaw := parseSecs(t, row[6])
		if szGz >= szRaw {
			t.Errorf("%s: compressed size %v should be below raw %v", row[0], szGz, szRaw)
		}
	}
	t.Log("\n" + tab.Render())
}

func TestFig5Quick(t *testing.T) {
	local := RunFig5(quickOpts(), false)
	central := RunFig5(quickOpts(), true)
	if len(local.Rows) != 2 || len(central.Rows) != 2 {
		t.Fatal("unexpected row count")
	}
	// Local-disk checkpoint time must be nearly flat in node count.
	a := parseSecs(t, local.Rows[0][2])
	b := parseSecs(t, local.Rows[1][2])
	if b > a*1.6 {
		t.Errorf("local ckpt not flat: %v → %v", a, b)
	}
	t.Log("\n" + local.Render() + "\n" + central.Render())
}

func TestTable1Quick(t *testing.T) {
	tab := RunTable1(quickOpts())
	get := func(rowPrefix string, col int) float64 {
		for _, row := range tab.Rows {
			if strings.HasPrefix(row[0], rowPrefix) {
				return parseSecs(t, row[col])
			}
		}
		t.Fatalf("row %q missing", rowPrefix)
		return 0
	}
	// Ordering claims of Table 1.
	if get("ckpt: write", 1) < get("ckpt: suspend", 1) {
		t.Error("uncompressed write should dominate suspend")
	}
	if get("ckpt: write", 2) < get("ckpt: write", 1) {
		t.Error("compressed write should exceed uncompressed")
	}
	if get("ckpt: write", 3) > get("ckpt: write", 2)/2 {
		t.Error("forked write should be far below compressed")
	}
	if get("ckpt: drain", 1) < get("ckpt: elect", 1) {
		t.Error("drain should exceed elect")
	}
	if get("restart: TOTAL", 2) > get("ckpt: TOTAL", 2) {
		t.Error("compressed restart should be below compressed checkpoint (gunzip > gzip)")
	}
	t.Log("\n" + tab.Render())
}

func TestFig6Quick(t *testing.T) {
	tab := RunFig6(quickOpts())
	if len(tab.Rows) != 2 {
		t.Fatal("unexpected rows")
	}
	a := parseSecs(t, tab.Rows[0][1])
	b := parseSecs(t, tab.Rows[1][1])
	if b <= a {
		t.Errorf("checkpoint time must grow with memory: %v → %v", a, b)
	}
	t.Log("\n" + tab.Render())
}

func TestSyncForkedBarrierQuick(t *testing.T) {
	sync := RunSyncCost(quickOpts())
	if v := parseSecs(t, sync.Rows[0][1]); v <= 0 {
		t.Errorf("sync cost = %v", v)
	}
	forked := RunForked(quickOpts())
	plain := parseSecs(t, forked.Rows[0][1])
	fk := parseSecs(t, forked.Rows[1][1])
	if fk >= plain/2 {
		t.Errorf("forked %v not ≪ plain %v", fk, plain)
	}
	barrier := RunBarrier(quickOpts())
	a := parseSecs(t, barrier.Rows[0][2])
	b := parseSecs(t, barrier.Rows[1][2])
	if b > a*2 {
		t.Errorf("barrier rounds not flat: %v → %v", a, b)
	}
	t.Log("\n" + sync.Render() + forked.Render() + barrier.Render())
}

func TestDejaVuComparison(t *testing.T) {
	tab := RunDejaVu(Opts{Seed: 3})
	var dmtcpOv, dejavuOv float64
	for _, row := range tab.Rows {
		ov, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		switch row[0] {
		case "dmtcp":
			dmtcpOv = ov
		case "dejavu":
			dejavuOv = ov
		}
	}
	if dejavuOv < 25 {
		t.Errorf("dejavu overhead %.1f%%, want ≈45%%", dejavuOv)
	}
	if dmtcpOv > 10 {
		t.Errorf("dmtcp overhead %.1f%%, want near zero between checkpoints", dmtcpOv)
	}
	if dejavuOv < 3*dmtcpOv {
		t.Errorf("dejavu (%.1f%%) should far exceed dmtcp (%.1f%%)", dejavuOv, dmtcpOv)
	}
	t.Log("\n" + tab.Render())
}

// TestMigrationUseCase exercises the §1 headline use case end to end:
// compute on a "cluster", restart everything on one "laptop" node.
func TestMigrationUseCase(t *testing.T) {
	env := NewEnv(3, 4, dmtcp.Config{Compress: true, CkptDir: "/san/ckpt"})
	env.Drive(func(task *kernel.Task) {
		if _, err := env.Sys.Launch(0, "orterun", "4", "1", "0", "30000", "nas-lu", "2"); err != nil {
			t.Error(err)
			return
		}
		task.Compute(300 * time.Millisecond)
		round, err := env.Sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		env.Sys.KillManaged()
		place := dmtcp.Placement{}
		for _, img := range round.Images {
			place[img.Host] = 3 // everything onto "the laptop"
		}
		if _, err := env.Sys.RestartAll(task, round, place); err != nil {
			t.Error(err)
			return
		}
		task.Compute(100 * time.Millisecond)
		for _, p := range env.Sys.ManagedProcesses() {
			if p.Node.ID != 3 {
				t.Errorf("process %s still on node %d", p.ProgName, p.Node.ID)
			}
		}
	})
}

// TestCheckpointAtOnceAfterMPIRestart requests a checkpoint at the
// instant an in-place RestartAll of a gzip NAS/LU job returns, while
// the restored ranks still wait at their last restart barrier.  The
// round must complete within a virtual deadline, and the job must
// still verify.
func TestCheckpointAtOnceAfterMPIRestart(t *testing.T) {
	env := NewEnv(1, 4, dmtcp.Config{Compress: true})
	var failure any
	env.Drive(func(task *kernel.Task) {
		defer func() { failure = recover() }()
		if _, err := env.Sys.Launch(0, "orterun", "16", "4", "0",
			strconv.Itoa(mpi.BasePort), "nas-lu"); err != nil {
			t.Error(err)
			return
		}
		task.Compute(300 * time.Millisecond)
		round, err := env.Sys.Checkpoint(task)
		if err != nil {
			t.Error(err)
			return
		}
		env.Sys.KillManaged()
		if _, err := env.Sys.RestartAll(task, round, nil); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		var again *dmtcp.CkptRound
		done := false
		wq := sim.NewWaitQueue(env.Eng, "test.ckpt")
		task.P.SpawnTask("checkpointer", false, func(ct *kernel.Task) {
			again, err = env.Sys.Checkpoint(ct)
			done = true
			wq.WakeAll()
		})
		for deadline := task.Now().Add(60 * time.Second); !done && task.Now() < deadline; {
			wq.WaitTimeout(task.T, deadline.Sub(task.Now()))
		}
		switch {
		case !done:
			t.Error("checkpoint requested as RestartAll returned is still open after 60 s")
			return
		case err != nil:
			t.Errorf("checkpoint at once: %v", err)
			return
		case again.NumProcs != round.NumProcs:
			t.Errorf("checkpoint at once covered %d processes, want %d", again.NumProcs, round.NumProcs)
		}
		env.awaitVerify(task, "nas-lu", 16)
	})
	if failure != nil {
		t.Fatal(failure)
	}
}

// TestStoreQuick checks the incremental-store experiment's physics: a
// clean process deduplicates almost everything, and incremental
// checkpoints are measurably cheaper than full rewrites in both time
// and bytes at low dirty rates.
func TestStoreQuick(t *testing.T) {
	tab := RunStore(quickOpts())
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		rate := row[0]
		full := parseSecs(t, row[1])
		incr := parseSecs(t, row[2])
		fullMB := parseSecs(t, row[4])
		incrMB := parseSecs(t, row[5])
		dedup := parseSecs(t, row[6])
		if full <= 0 || incr <= 0 {
			t.Fatalf("dirty %s%%: non-positive times %v/%v", rate, full, incr)
		}
		if incr >= full {
			t.Errorf("dirty %s%%: incremental %.3fs not faster than full %.3fs", rate, incr, full)
		}
		if incrMB >= fullMB/2 {
			t.Errorf("dirty %s%%: incremental %.1f MB not ≪ full %.1f MB", rate, incrMB, fullMB)
		}
		if rate == "0" && dedup < 99 {
			t.Errorf("clean process deduped only %.1f%%", dedup)
		}
	}
	t.Log("\n" + tab.Render())
}

// TestRestoreQuick pins the streamed restore pipeline at smoke scale:
// streaming beats fetch-then-install at every worker count, something
// was actually fetched, and the pipeline recorded fetch/install
// overlap.
func TestRestoreQuick(t *testing.T) {
	tab := RunRestore(quickOpts())
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		workers := row[0]
		serial := parseSecs(t, row[1])
		streamed := parseSecs(t, row[2])
		fetched := parseSecs(t, row[5])
		overlap := parseSecs(t, row[6])
		if serial <= 0 || streamed <= 0 {
			t.Fatalf("workers %s: non-positive times %v/%v", workers, serial, streamed)
		}
		if streamed >= serial {
			t.Errorf("workers %s: streamed %.3fs not faster than fetch-then-install %.3fs",
				workers, streamed, serial)
		}
		if fetched <= 0 {
			t.Errorf("workers %s: remote restart fetched nothing", workers)
		}
		if overlap <= 0 {
			t.Errorf("workers %s: no fetch/install overlap recorded", workers)
		}
	}
	t.Log("\n" + tab.Render())
}
