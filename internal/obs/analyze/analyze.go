// Package analyze is the deterministic critical-path pass over the
// tracer's span stream: per checkpoint round and per restart it
// computes the blocking chain (which node's which stage bounded each
// barrier), per-node stage breakdowns, straggler scores (node stage
// time / median), and overlap efficiency for the write/restore
// pipelines.
//
// The attribution scheme is exact by construction.  Within one round,
// every participant's five stage spans partition its round span, and
// each stage ends at the coordinator's barrier release — so the global
// boundary of stage k is the LATEST stage-k end across participants,
// and that participant is the one the barrier waited for.  The
// telescoping walls T_k − T_{k−1} therefore sum to precisely the
// round's global wall time (max end − min start); the 1% guard in
// obs_guard_test.go holds with zero slack.  The same argument applies
// to the four restart segments.
//
// Everything here is a pure function of the recorded event sequence:
// identical seeds produce byte-identical summaries.
package analyze

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ckptStages are the five checkpoint stage spans in barrier order.
var ckptStages = []string{"ckpt.suspend", "ckpt.elect", "ckpt.drain", "ckpt.write", "ckpt.refill"}

// restartStages are the restart segments in order; restart.prefetch
// only appears on lazy (post-copy) restarts and the chain walker
// skips absent stages.
var restartStages = []string{"restart.images", "restart.files", "restart.conns", "restart.procs", "restart.prefetch"}

// StragglerThreshold is the score above which a node is called out as
// a straggler in reports (and above which the coordinator's response
// path boosts the node's next-round worker pool).
const StragglerThreshold = 1.25

// Summary is the full critical-path analysis of one trace: the JSON
// form of this struct is the `critical_path` block bench experiments
// embed.
type Summary struct {
	Rounds   []RoundPath   `json:"rounds"`
	Restarts []RestartPath `json:"restarts,omitempty"`
}

// RoundPath is the blocking-chain analysis of one checkpoint round.
type RoundPath struct {
	// Run is the tracer run (Sim instance) the round belongs to.
	Run int `json:"run,omitempty"`
	// Tag is the coordinator's round identity (epoch<<32 | index).
	Tag int64 `json:"tag"`
	// WallNS is the global round wall: latest participant end minus
	// earliest participant start.
	WallNS int64 `json:"wall_ns"`
	// Stages is the blocking chain; its wall_ns values sum to WallNS
	// exactly.
	Stages []StagePath `json:"stages"`
	// Nodes is the per-participant stage breakdown, sorted by
	// (host, track).
	Nodes []NodeStats `json:"nodes"`
	// OverlapEfficiency is pipelined-write overlap bytes over written
	// bytes (0 when the round wrote nothing or nothing overlapped).
	OverlapEfficiency float64 `json:"overlap_efficiency"`
}

// StagePath is one link of the blocking chain.
type StagePath struct {
	// Stage is the short stage name ("suspend", "write", "images", …).
	Stage string `json:"stage"`
	// WallNS is the barrier-to-barrier wall this stage charged the
	// round: global stage-k boundary minus global stage-(k−1) boundary.
	WallNS int64 `json:"wall_ns"`
	// Host/Track name the participant whose stage bounded the barrier
	// (the last arrival).
	Host  string `json:"host"`
	Track string `json:"track"`
	// BlockDurNS is the blocking participant's own stage duration.
	BlockDurNS int64 `json:"block_dur_ns"`

	// block is the blocking stage span itself, kept for flow-arrow
	// annotation (not serialized).
	block obs.Event
}

// NodeStats is one participant's stage breakdown within a round.
type NodeStats struct {
	Host      string `json:"host"`
	Track     string `json:"track"`
	SuspendNS int64  `json:"suspend_ns"`
	ElectNS   int64  `json:"elect_ns"`
	DrainNS   int64  `json:"drain_ns"`
	WriteNS   int64  `json:"write_ns"`
	RefillNS  int64  `json:"refill_ns"`
	TotalNS   int64  `json:"total_ns"`
	// Straggler is this node's write-stage time over the round's
	// median write-stage time (1.0 = typical; ≥ StragglerThreshold is
	// called out).
	Straggler float64 `json:"straggler"`
}

// RestartPath is the blocking-chain analysis of one restart (all
// concurrent per-host restart programs of one recovery).
type RestartPath struct {
	Run    int         `json:"run,omitempty"`
	WallNS int64       `json:"wall_ns"`
	Stages []StagePath `json:"stages"`
	// Hosts is the per-host restart breakdown, sorted by (host, track).
	Hosts []RestartNode `json:"hosts"`
	// OverlapEfficiency is fetch/install overlap bytes over fetched
	// bytes for the streamed restore pipelines.
	OverlapEfficiency float64 `json:"overlap_efficiency"`
}

// RestartNode is one restart program's contribution.
type RestartNode struct {
	Host      string  `json:"host"`
	Track     string  `json:"track"`
	TotalNS   int64   `json:"total_ns"`
	Straggler float64 `json:"straggler"`
}

// participant is one span plus its resolved names.
type participant struct {
	span   obs.Event
	host   string
	track  string
	run    int
	stages []obs.Event // one per stage name, in stage order (zero Event if missing)
}

// runAndHost splits a tracer process name ("node01", "run2 node01")
// into its run number and bare hostname.
func runAndHost(procName string) (int, string) {
	if strings.HasPrefix(procName, "run") {
		if i := strings.IndexByte(procName, ' '); i > 3 {
			if n, err := strconv.Atoi(procName[3:i]); err == nil {
				return n, procName[i+1:]
			}
		}
	}
	return 0, procName
}

func argOf(ev obs.Event, key string) int64 {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

func spanEnd(ev obs.Event) sim.Time { return ev.Ts.Add(time.Duration(ev.Dur)) }

// round3 keeps float output stable across renderings.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// median of a non-empty slice (not modified).
func median(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

func score(v int64, med float64) float64 {
	if med <= 0 {
		return 1
	}
	return round3(float64(v) / med)
}

// Analyze runs the critical-path pass over every event the tracer has
// recorded and returns the summary.  It is read-only and deterministic.
func Analyze(tr *obs.Tracer) *Summary { return AnalyzeSince(tr, 0) }

// AnalyzeSince runs the pass over the events recorded from index from
// on, so a caller that traces one experiment after another pays for
// the latest one only.
func AnalyzeSince(tr *obs.Tracer, from int) *Summary {
	s := &Summary{}
	if tr == nil {
		return s
	}
	evs := tr.Events()[from:]
	s.Rounds = analyzeRounds(tr, evs)
	s.Restarts = analyzeRestarts(tr, evs)
	return s
}

// collectParticipants gathers spans named rootName with their nested
// per-track stage spans.
func collectParticipants(tr *obs.Tracer, evs []obs.Event, rootName string, stages []string) []*participant {
	var out []*participant
	for _, ev := range evs {
		if ev.Phase != 'X' || ev.Name != rootName {
			continue
		}
		run, host := runAndHost(tr.ProcName(ev.Pid))
		p := &participant{span: ev, host: host, track: tr.TrackName(ev.Pid, ev.Tid), run: run}
		p.stages = make([]obs.Event, len(stages))
		end := spanEnd(ev)
		for _, se := range evs {
			if se.Phase != 'X' || se.Pid != ev.Pid || se.Tid != ev.Tid {
				continue
			}
			if se.Ts < ev.Ts || spanEnd(se) > end {
				continue
			}
			for k, name := range stages {
				if se.Name == name && p.stages[k].Name == "" {
					p.stages[k] = se
				}
			}
		}
		out = append(out, p)
	}
	return out
}

func sortParts(parts []*participant) {
	sort.SliceStable(parts, func(i, j int) bool {
		if parts[i].host != parts[j].host {
			return parts[i].host < parts[j].host
		}
		return parts[i].track < parts[j].track
	})
}

// blockingChain computes the telescoping stage walls and the blocking
// participant of each stage.  By construction the returned walls sum
// exactly to (max participant end − min participant start).
func blockingChain(parts []*participant, stages []string) []StagePath {
	minStart := parts[0].span.Ts
	for _, p := range parts {
		if p.span.Ts < minStart {
			minStart = p.span.Ts
		}
	}
	out := make([]StagePath, 0, len(stages))
	prev := minStart
	for k, name := range stages {
		short := name[strings.IndexByte(name, '.')+1:]
		var blocking *participant
		var boundary sim.Time
		for _, p := range parts {
			if p.stages[k].Name == "" {
				continue
			}
			if e := spanEnd(p.stages[k]); blocking == nil || e > boundary {
				blocking, boundary = p, e
			}
		}
		if blocking == nil {
			continue
		}
		// Stage boundaries are monotone per participant, but a missing
		// stage on one track could locally invert the max; clamp so
		// walls never go negative and the telescoping stays exact.
		if boundary < prev {
			boundary = prev
		}
		out = append(out, StagePath{
			Stage:      short,
			WallNS:     int64(boundary.Sub(prev)),
			Host:       blocking.host,
			Track:      blocking.track,
			BlockDurNS: int64(blocking.stages[k].Dur),
			block:      blocking.stages[k],
		})
		prev = boundary
	}
	return out
}

func analyzeRounds(tr *obs.Tracer, evs []obs.Event) []RoundPath {
	parts := collectParticipants(tr, evs, "ckpt.round", ckptStages)
	type key struct {
		run int
		tag int64
	}
	groups := map[key][]*participant{}
	var order []key
	for _, p := range parts {
		k := key{run: p.run, tag: argOf(p.span, "tag")}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	var out []RoundPath
	for _, k := range order {
		g := groups[k]
		sortParts(g)
		minStart, maxEnd := g[0].span.Ts, spanEnd(g[0].span)
		var bytes, overlap int64
		var writes []int64
		for _, p := range g {
			if p.span.Ts < minStart {
				minStart = p.span.Ts
			}
			if e := spanEnd(p.span); e > maxEnd {
				maxEnd = e
			}
			bytes += argOf(p.span, "bytes")
			overlap += argOf(p.span, "overlap_bytes")
			writes = append(writes, int64(p.stages[3].Dur))
		}
		med := median(writes)
		rp := RoundPath{
			Run:    k.run,
			Tag:    k.tag,
			WallNS: int64(maxEnd.Sub(minStart)),
			Stages: blockingChain(g, ckptStages),
		}
		if bytes > 0 {
			rp.OverlapEfficiency = round3(float64(overlap) / float64(bytes))
		}
		for _, p := range g {
			rp.Nodes = append(rp.Nodes, NodeStats{
				Host:      p.host,
				Track:     p.track,
				SuspendNS: int64(p.stages[0].Dur),
				ElectNS:   int64(p.stages[1].Dur),
				DrainNS:   int64(p.stages[2].Dur),
				WriteNS:   int64(p.stages[3].Dur),
				RefillNS:  int64(p.stages[4].Dur),
				TotalNS:   int64(p.span.Dur),
				Straggler: score(int64(p.stages[3].Dur), med),
			})
		}
		out = append(out, rp)
	}
	return out
}

func analyzeRestarts(tr *obs.Tracer, evs []obs.Event) []RestartPath {
	parts := collectParticipants(tr, evs, "restart.total", restartStages)
	// Group per run, then cluster concurrent per-host restart programs
	// by time overlap: programs of one recovery overlap; distinct
	// recoveries are separated by live computation.
	byRun := map[int][]*participant{}
	var runs []int
	for _, p := range parts {
		if _, ok := byRun[p.run]; !ok {
			runs = append(runs, p.run)
		}
		byRun[p.run] = append(byRun[p.run], p)
	}
	sort.Ints(runs)
	var out []RestartPath
	for _, run := range runs {
		g := byRun[run]
		sort.SliceStable(g, func(i, j int) bool { return g[i].span.Ts < g[j].span.Ts })
		for len(g) > 0 {
			cluster := []*participant{g[0]}
			envEnd := spanEnd(g[0].span)
			rest := g[1:]
			g = nil
			for _, p := range rest {
				if p.span.Ts <= envEnd {
					cluster = append(cluster, p)
					if e := spanEnd(p.span); e > envEnd {
						envEnd = e
					}
				} else {
					g = append(g, p)
				}
			}
			out = append(out, restartPath(run, cluster))
		}
	}
	return out
}

func restartPath(run int, g []*participant) RestartPath {
	sortParts(g)
	minStart, maxEnd := g[0].span.Ts, spanEnd(g[0].span)
	var fetched, overlap int64
	var totals []int64
	for _, p := range g {
		if p.span.Ts < minStart {
			minStart = p.span.Ts
		}
		if e := spanEnd(p.span); e > maxEnd {
			maxEnd = e
		}
		fetched += argOf(p.span, "fetched_bytes")
		overlap += argOf(p.span, "overlap_bytes")
		totals = append(totals, int64(p.span.Dur))
	}
	med := median(totals)
	rp := RestartPath{
		Run:    run,
		WallNS: int64(maxEnd.Sub(minStart)),
		Stages: blockingChain(g, restartStages),
	}
	if fetched > 0 {
		rp.OverlapEfficiency = round3(float64(overlap) / float64(fetched))
	}
	for _, p := range g {
		rp.Hosts = append(rp.Hosts, RestartNode{
			Host:      p.host,
			Track:     p.track,
			TotalNS:   int64(p.span.Dur),
			Straggler: score(int64(p.span.Dur), med),
		})
	}
	return rp
}

// Render returns the human report section ("-- critical path --").
func (s *Summary) Render() string {
	if len(s.Rounds) == 0 && len(s.Restarts) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("-- critical path --\n")
	for _, r := range s.Rounds {
		prefix := ""
		if r.Run > 0 {
			prefix = fmt.Sprintf("run%d ", r.Run)
		}
		fmt.Fprintf(&b, "%sround tag=%d wall=%s overlap_eff=%.3f\n",
			prefix, r.Tag, fmtNS(r.WallNS), r.OverlapEfficiency)
		for _, st := range r.Stages {
			fmt.Fprintf(&b, "  %-8s %12s  <- %s/%s (%s)\n",
				st.Stage, fmtNS(st.WallNS), st.Host, st.Track, fmtNS(st.BlockDurNS))
		}
		var callouts []string
		for _, n := range r.Nodes {
			if n.Straggler >= StragglerThreshold {
				callouts = append(callouts,
					fmt.Sprintf("%s %.2fx (write %s)", n.Host, n.Straggler, fmtNS(n.WriteNS)))
			}
		}
		if len(callouts) > 0 {
			fmt.Fprintf(&b, "  stragglers: %s\n", strings.Join(callouts, ", "))
		}
	}
	for _, r := range s.Restarts {
		prefix := ""
		if r.Run > 0 {
			prefix = fmt.Sprintf("run%d ", r.Run)
		}
		fmt.Fprintf(&b, "%srestart wall=%s overlap_eff=%.3f\n",
			prefix, fmtNS(r.WallNS), r.OverlapEfficiency)
		for _, st := range r.Stages {
			fmt.Fprintf(&b, "  %-8s %12s  <- %s/%s (%s)\n",
				st.Stage, fmtNS(st.WallNS), st.Host, st.Track, fmtNS(st.BlockDurNS))
		}
	}
	return b.String()
}

func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "0s"
	case d < time.Millisecond:
		return d.String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// Attach registers the analyzer as a Report section: every subsequent
// tr.Report() ends with the critical-path chain computed from whatever
// the tracer holds at that moment.
func Attach(tr *obs.Tracer) {
	tr.AddReportHook(func(t *obs.Tracer) string { return Analyze(t).Render() })
}

// AnnotateFlows appends Perfetto flow arrows linking each round's (and
// restart's) consecutive blocking stage spans, so the critical path
// reads as a chain of arrows across node tracks in the trace viewer.
// Call it once, after the simulation and before ChromeTrace.
func AnnotateFlows(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	s := Analyze(tr)
	var id int64
	link := func(chain []StagePath) {
		for k := 0; k+1 < len(chain); k++ {
			from, to := chain[k].block, chain[k+1].block
			if from.Name == "" || to.Name == "" {
				continue
			}
			id++
			tr.FlowArrow("critical_path", "cp", id,
				from.Pid, from.Tid, spanEnd(from),
				to.Pid, to.Tid, to.Ts)
		}
	}
	for _, r := range s.Rounds {
		link(r.Stages)
	}
	for _, r := range s.Restarts {
		link(r.Stages)
	}
}
