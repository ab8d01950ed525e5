package kernel

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Pid is a (real) process identifier, unique per node.
type Pid int

// Program is an executable registered with the cluster.  Main runs as
// the body of the process's initial thread.
type Program interface {
	Main(t *Task, args []string)
}

// Resumable is implemented by programs that can continue from a
// restored checkpoint: Restore is called on the re-created main
// thread with the process memory (including the state payload)
// already restored.  This is the reproduction's substitute for
// restoring thread registers and stacks, which Go cannot capture.
//
// The resumable-program convention: a program keeps the control state
// it needs to continue (loop counters, cursors, protocol phase) in its
// process's "[state]" memory area, and Restore receives exactly the
// bytes that area held when the checkpoint read process memory.  A
// program either stores an encoded state with Process.SaveState after
// each step, or — a library whose state is large and live — registers
// a StateSource and calls Process.StateChanged at each change, and the
// kernel encodes the state only when memory is read (StateSource
// states the rule that keeps this exact).
type Resumable interface {
	Program
	Restore(t *Task, state []byte)
}

// ProgramFunc adapts a plain function to Program.
type ProgramFunc func(t *Task, args []string)

// Main implements Program.
func (f ProgramFunc) Main(t *Task, args []string) { f(t, args) }

// Process is a simulated OS process.
type Process struct {
	Kern *Kernel
	Node *Node

	Pid  Pid
	PPid Pid

	// ProgName and Args identify the exec'd program image.
	ProgName string
	Args     []string
	Env      map[string]string

	Mem *AddressSpace

	fds    map[int]*OpenFile
	tasks  []*Task
	nextID int

	children map[Pid]*Process
	childW   *sim.WaitQueue // parent's waitpid queue

	Zombie   bool
	Dead     bool
	ExitCode int

	// ExitW is woken when the process dies; unlike childW it may be
	// waited on by non-parents (DMTCP's virtualized wait uses it
	// after restart re-parents processes under the restart program).
	ExitW *sim.WaitQueue

	hooks Hooks

	// StartedAt records process creation time.
	StartedAt sim.Time

	// Checkpoint support (driven by the DMTCP layer).

	// CkptPending blocks new critical sections while a checkpoint is
	// being initiated.
	CkptPending bool
	// CritW is where the checkpoint manager waits for tasks to leave
	// critical sections.
	CritW *sim.WaitQueue
	// ResumeW is where tasks wait to enter critical sections while a
	// checkpoint is pending.
	ResumeW *sim.WaitQueue

	// Plugin carries layer-private per-process state (the DMTCP
	// manager attaches its bookkeeping here).
	Plugin any

	// stateSrc, when set, is the live source of the "[state]" area;
	// statePending records a StateChanged not yet encoded into it.
	stateSrc     StateSource
	statePending bool

	// Stdout accumulates console output for tests and examples.
	Stdout bytes.Buffer
}

// Task is one thread of a process.
type Task struct {
	T   *sim.Thread
	P   *Process
	TID int

	// Role names the thread's function within its program ("main",
	// "listener", ...); it is recorded in checkpoint images so the
	// program's Restore can re-create its thread structure.
	Role string

	// Daemon marks checkpoint-infrastructure threads that MTCP must
	// not suspend (the checkpoint manager itself).
	Daemon bool

	criticalDepth int

	// cpu is the task's compute job, reused by every Compute charge.
	cpu *cpuJob

	// sendFD and sendRest are the task's send in progress, so that
	// restart can complete the stream exactly (the stack-capture
	// substitute for threads suspended inside write()): the bytes not
	// yet handed to the kernel, the rest of a header and then the rest
	// of a body.  The task owns this one record and updates it in place
	// as bytes move.  sendRest references the sender's own slices,
	// which stay untouched until the send returns; SendContinuation
	// copies them out.
	sendFD   int
	sendRest gather

	// frameHdr is SendFrame's length-header scratch.  One per task
	// suffices: a task's sends never nest, the kernel copies what it
	// queues, and the send continuation is cleared before send returns.
	frameHdr [4]byte
}

// SendCont describes a send interrupted by a checkpoint: the bytes
// not yet handed to the kernel when the thread was suspended, joined
// into one slice.  A SendCont from SendContinuation is a copy that
// belongs to the caller.
type SendCont struct {
	FD        int
	Remaining []byte
}

// SendContinuation returns a copy of the task's in-progress send, the
// rest of its header followed by the rest of its body, or nil.  Only
// meaningful while the task is suspended.
func (t *Task) SendContinuation() *SendCont {
	n := t.sendRest.len()
	if n == 0 {
		return nil
	}
	return &SendCont{FD: t.sendFD, Remaining: t.sendRest.appendTo(make([]byte, 0, n))}
}

// SetSendContinuation registers (or, with head and body both empty,
// clears) a library-managed in-progress send: the rest of head, then
// the rest of body, still to go out on fd.  Libraries that push bytes
// with TrySend under their own progress engines use it so that
// checkpoint images can complete their interrupted sends exactly like
// ones blocked inside Send.  The task keeps head and body, not a copy,
// until the next call; the library must not change them meanwhile.
func (t *Task) SetSendContinuation(fd int, head, body []byte) {
	if len(head)+len(body) == 0 {
		t.clearSendContinuation()
		return
	}
	t.sendFD, t.sendRest = fd, gather{head, body}
}

func (t *Task) clearSendContinuation() { t.sendFD, t.sendRest = 0, gather{} }

func (p *Process) params() *model.Params { return p.Node.Cluster.Params }

// charge advances virtual time by d in the calling task without
// occupying a core (syscall overheads, fork/exec setup: costs far too
// small to matter for core contention).
func (t *Task) charge(d time.Duration) {
	if d > 0 {
		t.T.Sleep(d)
	}
}

// chargeSyscall charges the base syscall cost.
func (t *Task) chargeSyscall() { t.charge(t.P.params().SyscallCost) }

// Compute charges d of CPU time (the workload's "work", compression,
// hashing).  Concurrent Compute charges on one node contend for its
// cores: up to Node.Cores runnable tasks proceed at full rate, and an
// oversubscribed node dilates every charge by runnable/cores.  A
// charge that would finish alone before any other event is due is
// served in place (CPUSched.Run): the task moves the clock to its end
// without parking, with the same result, since nothing else could run
// or change the node's core shares in between.
func (t *Task) Compute(d time.Duration) { t.P.Node.cpu.Run(t, d) }

// Idle blocks the task for d of wall-clock time without occupying a
// core — network transfers in flight, poll timeouts, backoff waits.
// Unlike Compute, concurrent Idle periods never dilate one another.
func (t *Task) Idle(d time.Duration) { t.charge(d) }

// IdleQoS paces background work to a fraction q of the resource it
// runs on: after a step that kept the resource busy for work, the task
// idles work×(1−q)/q, so the steps hold at most q of the resource over
// time.  q outside (0, 1) leaves the work unpaced.
func (t *Task) IdleQoS(work time.Duration, q float64) {
	if q > 0 && q < 1 {
		t.Idle(time.Duration(float64(work) * (1 - q) / q))
	}
}

// Now returns virtual time.
func (t *Task) Now() sim.Time { return t.T.Now() }

// Trace returns the cluster's tracer; nil (which every obs method
// tolerates) when tracing is disabled.
func (t *Task) Trace() *obs.Tracer { return t.P.Node.Cluster.Trace }

// Host returns the hostname of the node the task runs on — the
// process-group key every trace event is filed under.
func (t *Task) Host() string { return t.P.Node.Hostname }

// Getpid returns the process id as seen by the program — the virtual
// pid when a DMTCP hook interposes (§4.5).
func (t *Task) Getpid() Pid {
	if h := t.P.hooks; h != nil {
		if vp, ok := h.Getpid(t.P); ok {
			return vp
		}
	}
	return t.P.Pid
}

// RealPid returns the kernel-level pid.
func (p *Process) RealPid() Pid { return p.Pid }

// Hooks returns the interposition object, or nil.
func (p *Process) Hooks() Hooks { return p.hooks }

// SetHooks installs an interposition object (used by restart, which
// re-creates processes without going through Spawn).
func (p *Process) SetHooks(h Hooks) { p.hooks = h }

// Tasks returns the live tasks of the process.
func (p *Process) Tasks() []*Task {
	out := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		if !t.T.Dead() {
			out = append(out, t)
		}
	}
	return out
}

// UserTasks returns live non-daemon tasks (the ones MTCP suspends).
func (p *Process) UserTasks() []*Task {
	var out []*Task
	for _, t := range p.Tasks() {
		if !t.Daemon {
			out = append(out, t)
		}
	}
	return out
}

// SpawnTask creates an additional thread in the process.
func (p *Process) SpawnTask(role string, daemon bool, fn func(*Task)) *Task {
	p.nextID++
	task := &Task{P: p, TID: p.nextID, Role: role, Daemon: daemon}
	name := fmt.Sprintf("%s/%s.%d[%s]", p.Node.Hostname, p.ProgName, p.Pid, role)
	task.T = p.Kern.node.Cluster.Eng.Go(name, func(th *sim.Thread) {
		fn(task)
	})
	p.tasks = append(p.tasks, task)
	return task
}

// --- Application state payload -------------------------------------

// stateArea is the VM area that carries the program's logical control
// state (the "registers and stack live in memory" convention).
const stateArea = "[state]"

// StateSource is a library that keeps a process's control state live
// in its own structures instead of re-encoding it into "[state]" at
// every change (the resumable-program convention on Resumable).  The
// process encodes it only when its memory is read: a checkpoint
// capture, a fork's memory copy, or LoadState.  That encoding must
// equal what SaveState would have stored at the last StateChanged, so
// the fields AppendState encodes may change only together with a
// StateChanged call and with no scheduling point in between: a
// checkpoint suspends a thread only at a scheduling point, so it sees
// both or neither.
type StateSource interface {
	// StateLen returns len(AppendState(nil)) without encoding.
	StateLen() int
	// AppendState appends the encoded state to dst.
	AppendState(dst []byte) []byte
}

// SetStateSource registers src as the live source of the process's
// "[state]" area (nil unregisters it).  Registering records no change:
// the area keeps what it holds until the next StateChanged.
func (p *Process) SetStateSource(src StateSource) {
	p.stateSrc = src
	p.statePending = false
}

// SaveState stores the program's encoded control state in its
// "[state]" memory area, where checkpoint images capture it and from
// which Restore receives it after a restart (the resumable-program
// convention on Resumable).
func (p *Process) SaveState(b []byte) {
	a := p.writeState(len(b))
	a.Payload = append(a.Payload[:0], b...)
}

// StateChanged records that the registered StateSource changed.  It
// does SaveState's bookkeeping — the area's size and dirty chunks, so
// RSS and incremental checkpoints see the write at once — and defers
// the encoding to the next read of process memory (SyncState).
func (p *Process) StateChanged() {
	p.writeState(p.stateSrc.StateLen())
	p.statePending = true
}

// writeState records a write of n bytes to "[state]": it maps the area
// on first use, raises its size to n (a high-water mark: state that
// shrinks keeps its mapped size) and dirties the covering chunks.
func (p *Process) writeState(n int) *VMArea {
	a := p.Mem.Area(stateArea)
	if a == nil {
		a = p.Mem.Map(&VMArea{Name: stateArea, Kind: AreaData, Class: model.ClassData})
	}
	if a.Bytes < int64(n) {
		a.Bytes = int64(n)
	}
	a.Touch(0, int64(n))
	return a
}

// SyncState encodes a pending StateChanged into "[state]".  Readers of
// process memory call it first; it charges no virtual time, because
// the modeled write was the StateChanged itself.
func (p *Process) SyncState() {
	if !p.statePending {
		return
	}
	p.statePending = false
	a := p.Mem.Area(stateArea)
	a.Payload = p.stateSrc.AppendState(a.Payload[:0])
}

// LoadState retrieves the stored control state, or nil.
func (p *Process) LoadState() []byte {
	p.SyncState()
	if a := p.Mem.Area(stateArea); a != nil {
		return a.Payload
	}
	return nil
}

// --- Critical sections (dmtcpaware delay-checkpointing, §3.1) ------

// BeginCritical enters a region during which checkpoints are delayed.
// If a checkpoint is already being initiated, it blocks until the
// checkpoint completes.
func (t *Task) BeginCritical() {
	for t.P.CkptPending && t.criticalDepth == 0 {
		t.P.ResumeW.Wait(t.T)
	}
	t.criticalDepth++
}

// EndCritical leaves the region, letting a pending checkpoint
// proceed.
func (t *Task) EndCritical() {
	if t.criticalDepth == 0 {
		panic("kernel: EndCritical without BeginCritical")
	}
	t.criticalDepth--
	if t.criticalDepth == 0 && t.P.CkptPending {
		t.P.CritW.WakeAll()
	}
}

// InCritical reports whether the task is inside a critical section.
func (t *Task) InCritical() bool { return t.criticalDepth > 0 }

// --- fork / exec / exit / wait --------------------------------------

// ForkFn forks the process; fn runs as the child's main task (the
// fork-then-diverge pattern: resource managers forking workers,
// forked checkpointing).  It returns the child pid in the parent —
// translated to a virtual pid when a DMTCP hook interposes.
func (t *Task) ForkFn(childName string, fn func(*Task)) Pid {
	return t.fork(childName, fn, false)
}

// ForkRaw forks without installing interposition hooks in the child
// (and without running a hook Start there).  The DMTCP layer uses it
// for internal children such as the forked-checkpoint writer, which
// must not register as checkpointable processes.
func (t *Task) ForkRaw(childName string, fn func(*Task)) Pid {
	return t.fork(childName, fn, true)
}

func (t *Task) fork(childName string, fn func(*Task), raw bool) Pid {
	p := t.P
	t.charge(p.params().ForkCost(p.Mem.RSS()))
	for {
		child := p.Kern.allocProcess(p, childName, p.Args)
		p.SyncState()
		child.Mem = p.Mem.clone()
		child.Env = copyEnv(p.Env)
		for fd, of := range p.fds {
			child.fds[fd] = of.incref()
		}
		p.children[child.Pid] = child
		if !raw {
			child.installHooks()
		}
		if p.hooks != nil && !p.hooks.PostFork(p, child) {
			// Virtual-pid conflict (§4.5): terminate the child with
			// the conflicting pid and fork once again.
			child.terminate(9)
			delete(p.children, child.Pid)
			continue
		}
		child.startMain(fn)
		if p.hooks != nil {
			if virt, ok := p.hooks.PidToVirt(p, child.Pid); ok {
				return virt
			}
		}
		return child.Pid
	}
}

// Exec replaces the process image with the named program.  Like
// execve it does not return on success: the new Main runs and the
// process exits when it finishes.
func (t *Task) Exec(prog string, args []string) error {
	p := t.P
	if p.hooks != nil {
		prog, args = p.hooks.RewriteExec(t, prog, args)
	}
	pr, ok := p.Kern.node.Cluster.Program(prog)
	if !ok {
		return fmt.Errorf("kernel: exec %q: not found", prog)
	}
	t.charge(p.params().ExecCost)
	// Exec replaces the image: all other threads die and
	// close-on-exec (Protected) descriptors are closed.
	self := p.Kern.node.Cluster.Eng.Current()
	for _, task := range p.tasks {
		if task.T != self && !task.T.Dead() {
			task.T.Kill()
		}
	}
	for fd, of := range p.fds {
		if of.Protected {
			delete(p.fds, fd)
			of.decref()
		}
	}
	p.ProgName = prog
	p.Args = args
	p.Mem = NewAddressSpace()
	p.SetStateSource(nil)
	p.installHooks() // re-evaluates LD_PRELOAD in the (inherited) env
	if p.hooks != nil {
		p.hooks.PostExec(t)
		p.hooks.Start(t)
	}
	pr.Main(t, args)
	p.exitFrom(t, 0)
	return nil // unreachable: exitFrom unwinds the task
}

// Exit terminates the process with the given code.  When called from
// one of the process's own tasks it does not return.
func (t *Task) Exit(code int) {
	t.P.exitFrom(t, code)
}

// exitFrom performs process death from task t's context.
func (p *Process) exitFrom(t *Task, code int) {
	p.dieCommon(code)
	// Unwind the calling task last.
	t.T.Kill()
}

// terminate kills the process from outside any of its tasks (kill -9,
// or restart-scenario teardown).
func (p *Process) terminate(code int) {
	if p.Dead || p.Zombie {
		return
	}
	p.dieCommon(code)
}

func (p *Process) dieCommon(code int) {
	if p.Zombie || p.Dead {
		return
	}
	p.ExitCode = code
	if p.hooks != nil {
		p.hooks.AtExit(p)
	}
	// Kill all other tasks.
	self := p.Kern.node.Cluster.Eng.Current()
	for _, task := range p.tasks {
		if task.T != self && !task.T.Dead() {
			task.T.Kill()
		}
	}
	// Close all descriptors in fd order (deterministic teardown).
	for _, fd := range p.SortedFDs() {
		of := p.fds[fd]
		delete(p.fds, fd)
		of.decref()
	}
	// Reparent children to init (pid 1 semantics: auto-reap zombies).
	for _, c := range p.children {
		c.PPid = 1
		if c.Zombie {
			p.Kern.reap(c)
		}
	}
	p.children = make(map[Pid]*Process)
	p.Zombie = true
	p.ExitW.WakeAll()
	parent := p.Kern.procs[p.PPid]
	if parent == nil || parent.Dead || parent.Zombie {
		p.Kern.reap(p)
	} else {
		parent.childW.WakeAll()
	}
}

// WatchExit blocks until target dies, regardless of the caller's
// relationship to it, and returns its exit code.
func (t *Task) WatchExit(target *Process) int {
	for !target.Zombie && !target.Dead {
		target.ExitW.Wait(t.T)
	}
	return target.ExitCode
}

// WaitAny blocks until some child has exited, reaps it, and returns
// its pid and exit code.  It returns an error if there are no
// children.
func (t *Task) WaitAny() (Pid, int, error) {
	p := t.P
	t.chargeSyscall()
	for {
		var virtuals []*Process
		if p.hooks != nil {
			virtuals = p.hooks.VirtualChildren(p)
		}
		if len(p.children) == 0 && len(virtuals) == 0 {
			return 0, 0, fmt.Errorf("kernel: wait: no children")
		}
		for pid, c := range p.children {
			if c.Zombie {
				code := c.ExitCode
				delete(p.children, pid)
				p.Kern.reap(c)
				if p.hooks != nil {
					if v, ok := p.hooks.PidToVirt(p, pid); ok {
						pid = v
					}
				}
				return pid, code, nil
			}
		}
		// Restored "virtual" children are watched via their exit
		// queues; the first one found dead is reported.
		for _, vc := range virtuals {
			if vc.Zombie || vc.Dead {
				if mgr, ok := p.hooks.(interface{ ConsumeVirtualChild(Pid) }); ok {
					if v, okv := p.hooks.PidToVirt(p, vc.Pid); okv {
						mgr.ConsumeVirtualChild(v)
						return v, vc.ExitCode, nil
					}
				}
				return vc.Pid, vc.ExitCode, nil
			}
		}
		if len(p.children) == 0 && len(virtuals) > 0 {
			// Wait for any virtual child to die.
			virtuals[0].ExitW.Wait(t.T)
			continue
		}
		p.childW.Wait(t.T)
	}
}

// WaitPid blocks until the specific child exits.  Virtual pids are
// translated when a DMTCP hook interposes.
func (t *Task) WaitPid(pid Pid) (int, error) {
	p := t.P
	t.chargeSyscall()
	virt := pid
	if p.hooks != nil {
		if real, ok := p.hooks.PidToReal(p, pid); ok {
			pid = real
		}
	}
	for {
		c, ok := p.children[pid]
		if !ok {
			if p.hooks != nil {
				if code, handled := p.hooks.WaitVirtual(t, virt); handled {
					return code, nil
				}
			}
			return 0, fmt.Errorf("kernel: waitpid %d: no such child", pid)
		}
		if c.Zombie {
			code := c.ExitCode
			delete(p.children, pid)
			p.Kern.reap(c)
			return code, nil
		}
		p.childW.Wait(t.T)
	}
}

// installHooks (re)builds the interposition object if the environment
// requests injection.
func (p *Process) installHooks() {
	c := p.Kern.node.Cluster
	if p.Env[LDPreloadVar] == HijackLib && c.HookFactory != nil {
		p.hooks = c.HookFactory(p)
	} else {
		p.hooks = nil
	}
}

// startMain launches the process's main task running fn.
func (p *Process) startMain(fn func(*Task)) {
	p.SpawnTask("main", false, func(t *Task) {
		if p.hooks != nil {
			p.hooks.Start(t)
		}
		fn(t)
		p.exitFrom(t, 0)
	})
}

// StartMain launches fn as the process's main task; the process exits
// when fn returns.  It is exported for the DMTCP restart program,
// which rebuilds processes outside the normal spawn path.
func (p *Process) StartMain(fn func(*Task)) { p.startMain(fn) }

func copyEnv(env map[string]string) map[string]string {
	out := make(map[string]string, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// Printf writes to the process's console output.
func (t *Task) Printf(format string, args ...any) {
	fmt.Fprintf(&t.P.Stdout, format, args...)
}
