// Package source streams workload jobs into a simulation instead of
// materialising them: a Source yields jobs one at a time in
// nondecreasing submit order, so the engine can keep exactly one
// pending arrival in its event heap and memory stays bounded by the
// live state (running + queued jobs), not the trace length. That is
// what makes archive-scale trace replay (millions of jobs) and
// open-ended saturation runs possible.
//
// Concrete sources: FromWorkload wraps an in-memory Workload; SWF
// decodes a trace lazily from an io.Reader (see workload.SWFDecoder);
// Gen adapts the lazy synthetic generators (workload.GenStream,
// workload.LublinStream) with an optional job-count or time-horizon
// cap; Modulate wraps any source with the scenario arrival warp so
// surge/diurnal composes with streaming.
//
// Determinism contract: a Source is pulled from exactly one goroutine,
// and the same construction (trace bytes, generator config and seed,
// modulation) always yields the same job sequence — replays through a
// Source are bit-identical per seed, like every other layer.
package source

import (
	"fmt"

	"dismem/internal/workload"
)

// Source is a pull-based job stream in nondecreasing Submit order.
// Implementations are single-goroutine state, like the engine itself.
type Source interface {
	// Next returns the next job, or (nil, false) when the source is
	// exhausted (or failed; see Err). Callers own the returned job and
	// must treat it as immutable, matching Workload jobs.
	Next() (*workload.Job, bool)
	// PeekSubmit returns the submit time of the job the next Next call
	// will return, or -1 when the source is exhausted.
	PeekSubmit() int64
	// Err returns the first production error (decode failure, invalid
	// job), or nil. A source that errors reports exhaustion from Next;
	// consumers distinguish "trace ended" from "trace broke" here.
	Err() error
}

// Forkable is implemented by sources whose cursor can be duplicated:
// Fork returns an independent source that produces exactly the jobs the
// original has yet to produce, leaving the original undisturbed. It is
// the source half of simulation checkpointing — a checkpoint freezes a
// fork of the live source, and each resumed future forks it again. A
// Fork may return nil when the source turns out not to be duplicable
// after all (e.g. a GenSource over a custom, non-cloneable stream);
// callers must treat nil as "not forkable".
//
// SliceSource, GenSource (over the cloneable generator streams) and
// Modulate-wrapped forkable sources implement it. SWFSource does not:
// an io.Reader's position cannot be duplicated, so checkpoint/fork of a
// streamed SWF replay requires materialising the trace first
// (workload.ReadSWF).
type Forkable interface {
	Source
	Fork() Source
}

// SliceSource streams an in-memory job slice: the adapter that lets the
// classic Workload path run through the streaming engine unchanged.
type SliceSource struct {
	jobs []*workload.Job
	i    int
}

// FromWorkload wraps w's jobs (already sorted by Workload convention).
// The workload is not copied; it must not be mutated while streaming.
func FromWorkload(w *workload.Workload) *SliceSource {
	return &SliceSource{jobs: w.Jobs}
}

// FromJobs wraps a job slice sorted by (Submit, ID).
func FromJobs(jobs []*workload.Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// Next implements Source.
func (s *SliceSource) Next() (*workload.Job, bool) {
	if s.i >= len(s.jobs) {
		return nil, false
	}
	j := s.jobs[s.i]
	s.i++
	return j, true
}

// PeekSubmit implements Source.
func (s *SliceSource) PeekSubmit() int64 {
	if s.i >= len(s.jobs) {
		return -1
	}
	return s.jobs[s.i].Submit
}

// Err implements Source.
func (s *SliceSource) Err() error { return nil }

// Fork implements Forkable: the jobs slice is shared (jobs are
// immutable), only the cursor is copied.
func (s *SliceSource) Fork() Source {
	c := *s
	return &c
}

// JobStream is the minimal lazy producer the generators implement
// (workload.GenStream, workload.LublinStream).
type JobStream interface {
	Next() (*workload.Job, bool)
}

// GenSource adapts a generator stream to a Source with optional caps:
// maxJobs bounds the job count (0 = unbounded) and horizonSec stops
// production at the first job submitted after that instant (0 = no
// horizon). With both zero the source produces for as long as the
// underlying stream does — the open-ended saturation/soak form.
type GenSource struct {
	stream   JobStream
	maxJobs  int
	horizon  int64
	produced int
	next     *workload.Job
	done     bool
}

// Gen wraps stream with the given caps.
func Gen(stream JobStream, maxJobs int, horizonSec int64) *GenSource {
	g := &GenSource{stream: stream, maxJobs: maxJobs, horizon: horizonSec}
	g.fill()
	return g
}

func (g *GenSource) fill() {
	g.next = nil
	if g.done || (g.maxJobs > 0 && g.produced >= g.maxJobs) {
		g.done = true
		return
	}
	j, ok := g.stream.Next()
	if !ok || (g.horizon > 0 && j.Submit > g.horizon) {
		g.done = true
		return
	}
	g.produced++
	g.next = j
}

// Next implements Source.
func (g *GenSource) Next() (*workload.Job, bool) {
	if g.next == nil {
		return nil, false
	}
	j := g.next
	g.fill()
	return j, true
}

// Fork implements Forkable for sources over the two workload generator
// streams, which clone. It returns nil for any other stream, which
// callers must treat as "not forkable after all".
func (g *GenSource) Fork() Source {
	var st JobStream
	switch s := g.stream.(type) {
	case *workload.GenStream:
		st = s.Clone()
	case *workload.LublinStream:
		st = s.Clone()
	default:
		return nil
	}
	c := *g
	c.stream = st
	return &c
}

// PeekSubmit implements Source.
func (g *GenSource) PeekSubmit() int64 {
	if g.next == nil {
		return -1
	}
	return g.next.Submit
}

// Err implements Source.
func (g *GenSource) Err() error { return nil }

// modulated applies the deterministic gap-stretching arrival warp to an
// inner source: the lazy form of workload.ModulateArrivals, same
// transform, same clamping, job for job.
type modulated struct {
	inner Source
	rate  func(t float64) float64
	prev  int64   // previous original submit time
	t     float64 // transformed clock
	next  *workload.Job
}

// Modulate wraps src so every job's submit time is rewarped by the
// time-varying rate multiplier, exactly as workload.ModulateArrivals
// does for a materialised workload (pinned by tests). Jobs are copied
// before their Submit changes; the inner source's jobs are never
// mutated. A nil rate returns src unchanged.
func Modulate(src Source, rate func(t float64) float64) Source {
	if rate == nil {
		return src
	}
	m := &modulated{inner: src, rate: rate}
	m.fill()
	return m
}

func (m *modulated) fill() {
	m.next = nil
	j, ok := m.inner.Next()
	if !ok {
		return
	}
	cp := *j
	gap := float64(cp.Submit - m.prev)
	m.prev = cp.Submit
	r := m.rate(m.t)
	if r < 1e-9 {
		r = 1e-9 // keep the transform finite for pathological rates
	}
	m.t += gap / r
	cp.Submit = int64(m.t)
	m.next = &cp
}

// Next implements Source.
func (m *modulated) Next() (*workload.Job, bool) {
	if m.next == nil {
		return nil, false
	}
	j := m.next
	m.fill()
	return j, true
}

// PeekSubmit implements Source.
func (m *modulated) PeekSubmit() int64 {
	if m.next == nil {
		return -1
	}
	return m.next.Submit
}

// Err implements Source.
func (m *modulated) Err() error { return m.inner.Err() }

// Fork implements Forkable when the inner source does: the warp state
// (transformed clock, previous submit, buffered job) is copied and the
// inner cursor forked, so both sides produce the identical remaining
// warped sequence. Returns nil when the inner source cannot fork.
func (m *modulated) Fork() Source {
	f, ok := m.inner.(Forkable)
	if !ok {
		return nil
	}
	inner := f.Fork()
	if inner == nil {
		return nil
	}
	c := *m
	c.inner = inner
	return &c
}

// Validate checks one streamed job the way Workload.Validate checks a
// batch, minus the whole-trace properties a stream cannot afford
// (duplicate-ID detection is O(jobs) memory): structural job validity
// plus nondecreasing submit order against the previous submit time.
func Validate(j *workload.Job, prevSubmit int64) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Submit < prevSubmit {
		return fmt.Errorf("source: job %d arrives at %d before previous arrival %d (stream must be sorted by submit)",
			j.ID, j.Submit, prevSubmit)
	}
	return nil
}
