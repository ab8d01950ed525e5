package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared.  A core's speed moves
// with what other tenants run beside it, in CPU time as much as in wall
// time: back-to-back runs of a fixed workload differ by up to 1.8x, and
// the speed decorrelates within about 100 ms.  Raw host seconds therefore
// spread too far between runs to compare two commits.  Host costs are
// reported in seconds of a reference core instead, read off clock.
//
// clock samples the machine's speed by running a short fixed reference
// workload about every samplePeriod of CPU time the program uses: between
// drive slices and at the ends of set-up and of the measured phase.  The
// CPU time between two samples is scaled by the reference's nominal time
// over the mean of the two samples' CPU times.  A change to the program
// moves the program's CPU time and not the reference, so it shows in
// full; a change in the machine's speed moves both and cancels out.  The
// samples' own CPU time is left out of every host cost.
//
// Contention slows some kinds of work more than others, so each workload
// is calibrated by a reference like the work its host time goes to.
// Each reference's nominal time is its CPU time on an idle core of the
// 2-core x86-64 VM the benchmark was sized on.
const samplePeriod = 25 * time.Millisecond

// refWork is one reference workload; run returns its CPU seconds.
type refWork struct {
	nominal float64
	run     func() float64
}

var (
	// dataRef moves and looks up data: an event queue, maps, page
	// copies, scattered writes, large copies and dependent loads that
	// miss the cache.  It tracks mpi-lu, whose host time goes mostly to
	// copying message and image bytes.
	dataRef = refWork{0.0028, referenceData}
	// handoffRef hands a value back and forth between two goroutines
	// over unbuffered channels, as the simulation engine hands control
	// between virtual threads.  It tracks the store and restore
	// workloads, whose host time goes mostly to the engine.
	handoffRef = refWork{0.0011, referenceHandoff}
)

var clock hostClock

// hostClock converts the process's CPU time to reference-core seconds.
type hostClock struct {
	ref    refWork
	mark   time.Duration // process CPU time at the end of the last sample
	factor float64       // reference-core seconds per CPU second then
	scaled float64       // reference-core seconds up to mark
}

// start faults in the reference's buffers and takes the first sample.
func (h *hostClock) start(ref refWork) {
	h.ref = ref
	ref.run()
	ref.run()
	h.factor = ref.nominal / ref.run()
	h.mark = cpuTime()
}

// sample runs the reference and returns the clock's reading, exact at
// this point: the CPU time since the last sample is scaled by the mean
// of the factors at either end.
func (h *hostClock) sample() float64 {
	seg := cpuTime() - h.mark
	f := h.ref.nominal / h.ref.run()
	h.scaled += seg.Seconds() * (h.factor + f) / 2
	h.factor = f
	h.mark = cpuTime()
	return h.scaled
}

// tick samples when samplePeriod of CPU time has passed since the last
// sample.
func (h *hostClock) tick() {
	if cpuTime()-h.mark >= samplePeriod {
		h.sample()
	}
}

// now reads the clock between samples, scaling the CPU time since the
// last one by the factor it measured.
func (h *hostClock) now() float64 {
	return h.scaled + (cpuTime()-h.mark).Seconds()*h.factor
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads, the garbage collector's included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadTime returns the CPU time of the calling thread.
func threadTime() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

var (
	refQueue    = make([]refItem, 0, 1024)
	refMap      = make(map[uint64]int64, 8192)
	refPages    = [2][]byte{make([]byte, 6<<20), make([]byte, 6<<20)}
	refBulk     = [2][]byte{make([]byte, 16<<20), make([]byte, 16<<20)}
	refCounters = make([]uint32, 8<<20)
	refCycle    = sattolo(8 << 20)
	refRand     = uint64(0x9e3779b97f4a7c15)
	refAt       uint32
	refOff      int
	refSink     int64
)

func init() {
	for k := uint64(0); k < 8192; k++ {
		refMap[k] = int64(k)
	}
}

// referenceData runs dataRef.  It allocates nothing and runs on a locked
// thread timed by that thread's CPU clock, so neither the garbage
// collector nor the program's goroutines count in it.
func referenceData() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadTime()
	x := refRand

	q := refQueue[:0]
	for i := int64(0); i < 2200; i++ {
		x = xorshift(x)
		q = refPush(q, refItem{int64(x % 1_000_000), i})
		if len(q) > 512 {
			var it refItem
			q, it = refPop(q)
			refSink += it.seq
		}
	}

	for i := int64(0); i < 11000; i++ {
		x = xorshift(x)
		k := x % 8192
		refMap[k] += i
		refSink += refMap[(k*31)%8192]
	}

	src, dst := refPages[0], refPages[1]
	for i := 0; i < 300; i++ {
		x = xorshift(x)
		off := int(x%uint64(len(src)/4096)) * 4096
		copy(dst[off:off+4096], src[off:off+4096])
	}

	for i := 0; i < 22000; i++ {
		x = xorshift(x)
		refCounters[x%uint64(len(refCounters))]++
	}

	const bulk = 3 << 20
	refOff = (refOff + bulk) % (len(refBulk[0]) - bulk)
	copy(refBulk[0][refOff:refOff+bulk], refBulk[1][refOff:refOff+bulk])

	at := refAt
	for i := 0; i < 2400; i++ {
		at = refCycle[at]
	}
	refAt = at

	refRand = x
	return (threadTime() - start).Seconds()
}

var refPing, refPong = make(chan int64), make(chan int64)

func init() { go referencePartner() }

func referencePartner() {
	for v := range refPing {
		refPong <- v + 1
	}
}

// referenceHandoff runs handoffRef.  Its two goroutines share the one P,
// so it is timed by the process's CPU clock.
func referenceHandoff() float64 {
	start := cpuTime()
	for i := int64(0); i < 1500; i++ {
		refPing <- i
		refSink += <-refPong
	}
	return (cpuTime() - start).Seconds()
}

type refItem struct{ at, seq int64 }

func refLess(a, b refItem) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

func refPush(q []refItem, it refItem) []refItem {
	q = append(q, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !refLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	return q
}

func refPop(q []refItem) ([]refItem, refItem) {
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && refLess(q[l], q[m]) {
			m = l
		}
		if l+1 < n && refLess(q[l+1], q[m]) {
			m = l + 1
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return q, top
}

// sattolo returns a random permutation of 0..n-1 that is a single cycle,
// so following it visits every entry.
func sattolo(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(12345)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}
