package kernel

// Hooks is the syscall-interposition surface: the simulation analogue
// of the libc wrappers DMTCP injects with LD_PRELOAD (§4.2 lists the
// wrapped functions: socket, connect, bind, listen, accept,
// setsockopt, exec*, fork, close, dup2, socketpair, ptsname, ...).
//
// A Hooks instance is per-process.  It is installed at process
// creation when the environment carries LDPreloadVar=HijackLib and the
// cluster has a HookFactory; children inherit the environment across
// fork and exec, so the hook follows process trees exactly like a
// preloaded library does.
//
// All methods run in the calling task's context and may block, sleep,
// or perform further syscalls.
type Hooks interface {
	// Start is called once when the process's main task begins,
	// before the program's Main (the library's initializer: it
	// launches the checkpoint manager thread and connects to the
	// coordinator).
	Start(t *Task)

	// PostSocket runs after socket()/accept() family calls create fd.
	PostSocket(t *Task, fd int, of *OpenFile)
	// PreConnect runs before connect() proceeds.
	PreConnect(t *Task, fd int, of *OpenFile, addr Addr)
	// PostConnect runs after a successful connect(); DMTCP performs
	// its connector→acceptor handshake here.
	PostConnect(t *Task, fd int, of *OpenFile)
	// PostAccept runs after a successful accept() produced fd.
	PostAccept(t *Task, fd int, of *OpenFile)
	// PostBind and PostListen record listener parameters.
	PostBind(t *Task, fd int, of *OpenFile)
	PostListen(t *Task, fd int, of *OpenFile)
	// PostSocketpair runs after socketpair() created fds a and b.
	PostSocketpair(t *Task, a, b int, ofA, ofB *OpenFile)

	// PipeOverride may replace pipe() entirely (DMTCP promotes pipes
	// to socketpairs, §4.5); handled=false falls through to a real
	// kernel pipe.
	PipeOverride(t *Task) (r, w int, handled bool)

	// RewriteExec may rewrite an exec()/ssh command line (DMTCP
	// prefixes remote commands with dmtcp_checkpoint, §3).
	RewriteExec(t *Task, prog string, args []string) (string, []string)
	// PostExec runs in the task after the new image is set up.
	PostExec(t *Task)

	// PostFork runs in the parent after a fork created child.  A
	// false return reports a virtual-pid conflict: the kernel kills
	// the child and forks again (§4.5).
	PostFork(parent, child *Process) bool

	// Getpid may substitute a virtual pid for the real one.
	Getpid(p *Process) (Pid, bool)

	// PidToVirt translates a real pid to the virtual pid programs
	// should see (fork return values); PidToReal is the inverse
	// (waitpid/kill arguments).  Returning ok=false leaves the pid
	// untranslated.
	PidToVirt(p *Process, real Pid) (Pid, bool)
	PidToReal(p *Process, virt Pid) (Pid, bool)

	// WaitVirtual implements waitpid for a virtual pid whose process
	// is no longer a kernel child (restart re-parents processes under
	// the restart program).  It blocks until the target exits.
	WaitVirtual(t *Task, virt Pid) (code int, ok bool)

	// VirtualChildren lists processes that should count as children
	// for wait-any semantics after a restart.
	VirtualChildren(p *Process) []*Process

	// PostClose and PostDup2 keep descriptor bookkeeping current.
	PostClose(t *Task, fd int)
	PostDup2(t *Task, oldfd, newfd int)

	// PtsName observes ptsname() results (DMTCP virtualizes pty
	// names so they can be re-created at restart).
	PtsName(t *Task, fd int, name string) string

	// AtExit runs as the process dies.
	AtExit(p *Process)
}

// BaseHooks is a no-op Hooks for embedding; overriding only what a
// wrapper needs keeps implementations small.
type BaseHooks struct{}

// Start implements Hooks.
func (BaseHooks) Start(*Task) {}

// PostSocket implements Hooks.
func (BaseHooks) PostSocket(*Task, int, *OpenFile) {}

// PreConnect implements Hooks.
func (BaseHooks) PreConnect(*Task, int, *OpenFile, Addr) {}

// PostConnect implements Hooks.
func (BaseHooks) PostConnect(*Task, int, *OpenFile) {}

// PostAccept implements Hooks.
func (BaseHooks) PostAccept(*Task, int, *OpenFile) {}

// PostBind implements Hooks.
func (BaseHooks) PostBind(*Task, int, *OpenFile) {}

// PostListen implements Hooks.
func (BaseHooks) PostListen(*Task, int, *OpenFile) {}

// PostSocketpair implements Hooks.
func (BaseHooks) PostSocketpair(*Task, int, int, *OpenFile, *OpenFile) {}

// PipeOverride implements Hooks.
func (BaseHooks) PipeOverride(*Task) (int, int, bool) { return 0, 0, false }

// RewriteExec implements Hooks.
func (BaseHooks) RewriteExec(_ *Task, prog string, args []string) (string, []string) {
	return prog, args
}

// PostExec implements Hooks.
func (BaseHooks) PostExec(*Task) {}

// PostFork implements Hooks.
func (BaseHooks) PostFork(*Process, *Process) bool { return true }

// Getpid implements Hooks.
func (BaseHooks) Getpid(*Process) (Pid, bool) { return 0, false }

// PidToVirt implements Hooks.
func (BaseHooks) PidToVirt(*Process, Pid) (Pid, bool) { return 0, false }

// PidToReal implements Hooks.
func (BaseHooks) PidToReal(*Process, Pid) (Pid, bool) { return 0, false }

// WaitVirtual implements Hooks.
func (BaseHooks) WaitVirtual(*Task, Pid) (int, bool) { return 0, false }

// VirtualChildren implements Hooks.
func (BaseHooks) VirtualChildren(*Process) []*Process { return nil }

// PostClose implements Hooks.
func (BaseHooks) PostClose(*Task, int) {}

// PostDup2 implements Hooks.
func (BaseHooks) PostDup2(*Task, int, int) {}

// PtsName implements Hooks.
func (BaseHooks) PtsName(_ *Task, _ int, name string) string { return name }

// AtExit implements Hooks.
func (BaseHooks) AtExit(*Process) {}

var _ Hooks = BaseHooks{}
