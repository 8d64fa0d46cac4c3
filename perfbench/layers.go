package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/des"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/workload"
)

// The wrappers below sit on the public seams of dismem.Options and time
// or count the calls that cross them, then delegate unchanged. They
// must be transparent: a traced run's report has to equal the untraced
// run's, and every workload checks that it does.

// planSampleEvery is the Plan sampling period: every call is counted,
// one in planSampleEvery is timed, because Plan calls on a deep queue
// are short enough that timing each would distort them.
const planSampleEvery = 64

// capturedAllocs bounds how many dispatched allocations a traced run
// keeps for the cluster replay micro-bench.
const capturedAllocs = 4096

// tally accumulates one traced run's per-layer counts and busy times.
// It is owned by one simulation goroutine; sweeps merge per-unit tallies
// after the units finish.
type tally struct {
	passes, emptyPasses, queued, running int64
	passNs                               int64
	passDur                              []float64 // ns per pass
	dispatches                           int64
	plans, planTimed, planNs             int64
	dilations                            int64
	nextCalls, nextNs                    int64
	sinkAdds, sinkNs                     int64
	traceAdds, traceNs                   int64
	inBytes, sinkBytes, traceBytes       int64
	allocs                               []*cluster.Allocation
	machine                              cluster.Config // where allocs were made
}

// merge folds o's scheduler and placer figures into t.
func (t *tally) merge(o *tally) {
	t.passes += o.passes
	t.emptyPasses += o.emptyPasses
	t.queued += o.queued
	t.running += o.running
	t.passNs += o.passNs
	t.passDur = append(t.passDur, o.passDur...)
	t.dispatches += o.dispatches
	t.plans += o.plans
	t.planTimed += o.planTimed
	t.planNs += o.planNs
}

// tappedScheduler builds policy's scheduler with its pass and its placer
// wrapped. Every built-in policy is a sched.Batch chassis.
func tappedScheduler(policy string, t *tally) (dismem.Scheduler, error) {
	s, err := dismem.NewScheduler(policy)
	if err != nil {
		return nil, err
	}
	b, ok := s.(*sched.Batch)
	if !ok {
		return nil, fmt.Errorf("policy %q is not a batch scheduler", policy)
	}
	b.Placer = &placerTap{inner: b.Placer, t: t}
	return &schedTap{inner: b, t: t}, nil
}

// schedTap times Scheduler.Pass and records what each pass saw and did.
type schedTap struct {
	inner dismem.Scheduler
	t     *tally
}

func (s *schedTap) Name() string { return s.inner.Name() }

func (s *schedTap) Feasible(j *workload.Job, m *cluster.Machine, mm memmodel.Model) bool {
	return s.inner.Feasible(j, m, mm)
}

func (s *schedTap) Pass(ctx *sched.Context) []sched.Dispatch {
	start := time.Now()
	out := s.inner.Pass(ctx)
	ns := time.Since(start).Nanoseconds()
	t := s.t
	t.passes++
	t.passNs += ns
	t.passDur = append(t.passDur, float64(ns))
	t.queued += int64(len(ctx.Queue))
	t.running += int64(len(ctx.Running))
	t.dispatches += int64(len(out))
	if len(out) == 0 {
		t.emptyPasses++
	}
	for _, d := range out {
		if len(t.allocs) < capturedAllocs {
			t.allocs = append(t.allocs, d.Plan.Alloc.Clone())
		}
	}
	return out
}

// placerTap counts every Placer.Plan call and times one in
// planSampleEvery.
type placerTap struct {
	inner sched.Placer
	t     *tally
}

func (p *placerTap) Name() string { return p.inner.Name() }

func (p *placerTap) Feasible(j *workload.Job, m *cluster.Machine, mm memmodel.Model) bool {
	return p.inner.Feasible(j, m, mm)
}

func (p *placerTap) PlanDilation(j *workload.Job, m *cluster.Machine, mm memmodel.Model) float64 {
	return p.inner.PlanDilation(j, m, mm)
}

func (p *placerTap) Plan(j *workload.Job, m *cluster.Machine, mm memmodel.Model) *sched.Plan {
	t := p.t
	t.plans++
	if t.plans%planSampleEvery != 0 {
		return p.inner.Plan(j, m, mm)
	}
	start := time.Now()
	plan := p.inner.Plan(j, m, mm)
	t.planNs += time.Since(start).Nanoseconds()
	t.planTimed++
	return plan
}

// modelTap counts memory-model dilation evaluations.
type modelTap struct {
	inner dismem.MemoryModel
	t     *tally
}

func (m *modelTap) Dilation(f, c float64) float64 {
	m.t.dilations++
	return m.inner.Dilation(f, c)
}

func (m *modelTap) Name() string { return m.inner.Name() }

// sourceTap times Source.Next.
type sourceTap struct {
	inner dismem.Source
	t     *tally
}

func (s *sourceTap) Next() (*workload.Job, bool) {
	start := time.Now()
	j, ok := s.inner.Next()
	s.t.nextNs += time.Since(start).Nanoseconds()
	s.t.nextCalls++
	return j, ok
}

func (s *sourceTap) PeekSubmit() int64 { return s.inner.PeekSubmit() }
func (s *sourceTap) Err() error        { return s.inner.Err() }

// recordTap times the record sink, Close (the final flush) included.
type recordTap struct {
	inner dismem.Sink
	t     *tally
}

func (r *recordTap) Add(rec dismem.JobRecord) {
	start := time.Now()
	r.inner.Add(rec)
	r.t.sinkNs += time.Since(start).Nanoseconds()
	r.t.sinkAdds++
}

func (r *recordTap) Close() error {
	start := time.Now()
	err := r.inner.Close()
	r.t.sinkNs += time.Since(start).Nanoseconds()
	return err
}

// traceTap times the trace sink, Close included.
type traceTap struct {
	inner dismem.TraceSink
	t     *tally
}

func (r *traceTap) Add(ev dismem.TraceEvent) {
	start := time.Now()
	r.inner.Add(ev)
	r.t.traceNs += time.Since(start).Nanoseconds()
	r.t.traceAdds++
}

func (r *traceTap) Close() error {
	start := time.Now()
	err := r.inner.Close()
	r.t.traceNs += time.Since(start).Nanoseconds()
	return err
}

// countingWriter discards what it is given and counts bytes and lines.
type countingWriter struct{ bytes, lines int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += int64(len(p))
	c.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// desNsPerEvent times des.Simulator steps with depth events pending:
// every handler schedules one replacement event, so the heap stays at
// depth. It returns the median of three timed batches, in ns per event.
func desNsPerEvent(depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	const events = 200_000
	// A fixed pseudo-random delay table spreads events over the heap.
	var delays [1024]des.Time
	x := uint64(0x9e3779b97f4a7c15)
	for i := range delays {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		delays[i] = des.Time(1 + x%100_000)
	}
	sim := des.New()
	fired := 0
	var h des.Handler
	h = func(now des.Time, _ any) {
		fired++
		sim.ScheduleKind(now+delays[fired&1023], 1, nil, h)
	}
	for k := 0; k < depth; k++ {
		sim.ScheduleKind(delays[k&1023], 1, nil, h)
	}
	for i := 0; i < events/10; i++ {
		sim.Step()
	}
	var per []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < events; i++ {
			sim.Step()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/events)
	}
	return median(per)
}

// clusterNsPerAllocRelease replays allocs on a fresh machine of cfg the
// way the engine commits and frees them (AllocateCopy, Release,
// Recycle), each on an otherwise idle machine. It returns the median of
// three passes in ns per allocate+release pair.
func clusterNsPerAllocRelease(cfg cluster.Config, allocs []*cluster.Allocation) (float64, error) {
	if len(allocs) == 0 {
		return 0, fmt.Errorf("no allocations captured")
	}
	m, err := cluster.New(cfg)
	if err != nil {
		return 0, err
	}
	cycle := func() error {
		for _, a := range allocs {
			c, err := m.AllocateCopy(a)
			if err != nil {
				return err
			}
			if err := m.Release(a.JobID); err != nil {
				return err
			}
			m.Recycle(c)
		}
		return nil
	}
	if err := cycle(); err != nil {
		return 0, fmt.Errorf("cluster replay: %w", err)
	}
	reps := max(1, 200_000/len(allocs))
	var per []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := cycle(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(reps*len(allocs)))
	}
	return median(per), nil
}

// engineCost is what engineLayers measured: ns per DES event, ns per
// allocate+release pair, and seconds spent in scheduler passes.
type engineCost struct{ desNs, clNs, passS float64 }

// engineLayers reports the layer metrics every workload has, from the
// tally of a traced run of jobs jobs: the DES micro-bench at the run's
// mean heap depth, the replay of the captured allocations on a fresh
// machine of t.machine, and the scheduler and placer figures.
func engineLayers(r *result, t *tally, jobs int) (engineCost, error) {
	// The DES heap holds one end event per running job plus the one
	// pending arrival, so the mean at pass time is its mean depth.
	depth := 1.0
	if t.passes > 0 {
		depth += float64(t.running) / float64(t.passes)
	}
	c := engineCost{desNs: desNsPerEvent(int(depth + 0.5))}
	r.set("des.ns_per_event", c.desNs, "ns")
	r.set("des.mean_depth", depth, "count")

	var err error
	if c.clNs, err = clusterNsPerAllocRelease(t.machine, t.allocs); err != nil {
		return c, err
	}
	r.set("cluster.allocates", float64(t.dispatches), "count")
	r.set("cluster.ns_per_allocate_release", c.clNs, "ns")

	c.passS = float64(t.passNs) / 1e9
	sort.Float64s(t.passDur)
	r.set("sched.passes", float64(t.passes), "count")
	r.set("sched.pass_s", c.passS, "s")
	r.set("sched.pass_us_p50", percentile(t.passDur, 50)/1e3, "us")
	r.set("sched.pass_us_p99", percentile(t.passDur, 99)/1e3, "us")
	r.set("sched.queue_per_pass", float64(t.queued)/float64(t.passes), "count")
	r.set("sched.empty_pass_ratio", float64(t.emptyPasses)/float64(t.passes), "ratio")

	planNs := 0.0
	if t.planTimed > 0 {
		planNs = float64(t.planNs) / float64(t.planTimed)
	}
	r.set("core.plans", float64(t.plans), "count")
	r.set("core.plans_per_job", float64(t.plans)/float64(jobs), "count")
	r.set("core.plan_yield", float64(t.dispatches)/float64(t.plans), "ratio")
	r.set("core.plan_ns", planNs, "ns")
	return c, nil
}

// setBudget reports the layer budget: the modelled cost (calls x
// per-call time, summed over the layers) against the measured wall
// time, both in seconds.
func setBudget(r *result, modelled, wall float64) {
	r.set("budget.modelled_s", modelled, "s")
	r.set("budget.wall_s", wall, "s")
	r.set("budget.residual_ratio", (wall-modelled)/wall, "ratio")
}

// replayLayers reports the per-layer metrics of one traced replay of
// jobs jobs that took wall seconds and fired events DES events, plus the
// layer budget.
func replayLayers(r *result, t *tally, jobs int, events uint64, wall float64) error {
	c, err := engineLayers(r, t, jobs)
	if err != nil {
		return err
	}
	r.detail("des.events", float64(events), "count")
	r.detail("des.events_per_job", float64(events)/float64(jobs), "count")
	r.detail("memmodel.dilations", float64(t.dilations), "count")

	nextS := float64(t.nextNs) / 1e9
	sinkS := float64(t.sinkNs) / 1e9
	traceS := float64(t.traceNs) / 1e9
	if t.nextCalls > 0 {
		r.detail("source.next_s", nextS, "s")
		r.detail("source.mb_per_s", float64(t.inBytes)/1e6/nextS, "MB/s")
	}
	if t.sinkAdds > 0 {
		r.detail("metrics.sink_s", sinkS, "s")
		r.detail("metrics.sink_bytes", float64(t.sinkBytes), "bytes")
	}
	if t.traceAdds > 0 {
		r.detail("trace.sink_s", traceS, "s")
		r.detail("trace.events", float64(t.traceAdds), "count")
		r.detail("trace.sink_bytes", float64(t.traceBytes), "bytes")
	}
	r.detail("sim.self_s", wall-c.passS-nextS-sinkS-traceS, "s")

	// Passes include the plans and the allocate half of the cluster
	// term; the cluster term is small enough that the overlap does not
	// matter at the budget's resolution.
	setBudget(r, float64(events)*c.desNs/1e9+float64(t.dispatches)*c.clNs/1e9+
		c.passS+nextS+sinkS+traceS, wall)
	return nil
}

// tallies collects the tallies of concurrently running traced units.
type tallies struct {
	mu  sync.Mutex
	all []*tally
}

func (ts *tallies) add(mc cluster.Config) *tally {
	t := &tally{machine: mc}
	ts.mu.Lock()
	ts.all = append(ts.all, t)
	ts.mu.Unlock()
	return t
}

// sum merges the units' tallies. Allocations made on different machines
// cannot be replayed on one, so the sum takes those of the unit that
// captured the most.
func (ts *tallies) sum() *tally {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := &tally{}
	for _, t := range ts.all {
		s.merge(t)
		if len(t.allocs) > len(s.allocs) {
			s.allocs, s.machine = t.allocs, t.machine
		}
	}
	return s
}
