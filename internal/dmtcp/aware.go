package dmtcp

import (
	"repro/internal/bin"
	"repro/internal/kernel"
	"repro/internal/retry"
)

// AwareAPI is the dmtcpaware programming interface (§3.1): an
// optional library letting an application test whether it runs under
// DMTCP, request checkpoints, delay checkpoints across critical
// sections, query status, and register hook functions around each
// checkpoint.  The restart hook is the program's Restore
// (kernel.Resumable), which runs in the restored process once its
// threads resume.  Hooks belong to the incarnation that registered
// them: a restored process starts with none, and its Restore registers
// again those it wants at the next checkpoint.
type AwareAPI struct {
	m *Manager
}

// Aware returns the dmtcpaware handle for the calling process, or nil
// when the process does not run under DMTCP — so unmodified programs
// can link the calls and behave normally outside DMTCP, as the paper
// describes.
func Aware(p *kernel.Process) *AwareAPI {
	if m, ok := p.Hooks().(*Manager); ok {
		return &AwareAPI{m: m}
	}
	return nil
}

// IsEnabled reports whether the process is checkpointable.
func (a *AwareAPI) IsEnabled() bool { return a != nil && a.m != nil }

// VirtPid returns the process's virtual pid.
func (a *AwareAPI) VirtPid() kernel.Pid { return a.m.virtPid }

// IsRestart reports whether this incarnation was restored from a
// checkpoint image.
func (a *AwareAPI) IsRestart() bool { return a.m.restored }

// RequestCheckpoint asks the coordinator for a cluster-wide
// checkpoint and returns once it completes.
func (a *AwareAPI) RequestCheckpoint(t *kernel.Task) error {
	_, err := a.m.sys.Checkpoint(t)
	return err
}

// DelayCheckpointsBegin enters a critical section during which
// checkpoints are deferred.
func (a *AwareAPI) DelayCheckpointsBegin(t *kernel.Task) { t.BeginCritical() }

// DelayCheckpointsEnd leaves the critical section.
func (a *AwareAPI) DelayCheckpointsEnd(t *kernel.Task) { t.EndCritical() }

// Status queries the coordinator for (registered processes, completed
// checkpoint rounds).
func (a *AwareAPI) Status(t *kernel.Task) (clients, rounds int, err error) {
	fd, _, err := a.m.sys.dialCoord(t, retry.Policy{}, nil)
	if err != nil {
		return 0, 0, err
	}
	defer t.Close(fd)
	if err = t.SendFrame(fd, []byte{msgStatus}); err != nil {
		return 0, 0, err
	}
	frame, err := t.RecvFrame(fd)
	if err != nil {
		return 0, 0, err
	}
	d := &bin.Decoder{B: frame[1:]}
	return d.Int(), d.Int(), d.Err
}

// OnPreCheckpoint registers fn to run (in the checkpoint manager
// thread) just before the process is suspended.
func (a *AwareAPI) OnPreCheckpoint(fn func(*kernel.Task)) {
	a.m.aware.preCkpt = append(a.m.aware.preCkpt, fn)
}

// OnPostCheckpoint registers fn to run after the process resumes.
func (a *AwareAPI) OnPostCheckpoint(fn func(*kernel.Task)) {
	a.m.aware.postCkpt = append(a.m.aware.postCkpt, fn)
}
