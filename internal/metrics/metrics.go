// Package metrics collects per-job records and time-weighted resource
// series from a simulation and reduces them to the report quantities
// the paper's tables and figures are built from: wait time, bounded
// slowdown, utilization, throughput, dilation, and their distributions.
package metrics

import (
	"sort"
	"sync"

	"dismem/internal/cluster"
	"dismem/internal/stats"
)

// BoundedSlowdownFloor is the runtime floor (seconds) in the standard
// bounded-slowdown metric, preventing sub-second jobs from dominating.
const BoundedSlowdownFloor = 10

// JobRecord is the outcome of one job.
type JobRecord struct {
	ID     int
	User   int
	Nodes  int
	Submit int64
	// Start and End are 0/meaningless when Rejected.
	Start, End int64
	// Estimate and Limit are the user walltime request and the
	// (possibly dilation-extended) enforced limit.
	Estimate, Limit int64
	// BaseRuntime is ground truth on all-local memory.
	BaseRuntime int64
	// MemPerNode is the per-node footprint in MiB.
	MemPerNode int64
	// RemoteMiB is the pool memory held; RemoteFrac the fraction of the
	// footprint that was remote.
	RemoteMiB  int64
	RemoteFrac float64
	// Dilation is the runtime multiplier observed at start.
	Dilation float64
	// Killed marks jobs terminated at the limit; Rejected marks jobs
	// that could never run on the machine and were refused at submit,
	// or at a fork that switched to a policy that can never start them.
	Killed, Rejected bool
	// Restarts counts how many times node failures killed and
	// resubmitted the job before this final record.
	Restarts int
}

// Wait returns start-submit (0 when rejected).
func (r *JobRecord) Wait() int64 {
	if r.Rejected {
		return 0
	}
	return r.Start - r.Submit
}

// Response returns end-submit.
func (r *JobRecord) Response() int64 { return r.End - r.Submit }

// Runtime returns the wall-clock execution time.
func (r *JobRecord) Runtime() int64 { return r.End - r.Start }

// BoundedSlowdown returns max(1, (wait+runtime)/max(runtime, floor)).
func (r *JobRecord) BoundedSlowdown() float64 {
	rt := r.Runtime()
	den := rt
	if den < BoundedSlowdownFloor {
		den = BoundedSlowdownFloor
	}
	s := float64(r.Wait()+rt) / float64(den)
	if s < 1 {
		return 1
	}
	return s
}

// Recorder accumulates job records and resource-usage integrals. Create
// with NewRecorder (retain-all: per-job records are kept for CDFs and
// custom reductions, O(jobs) memory) or NewBoundedRecorder (streaming:
// records are reduced online — exact counts/means, hybrid percentile
// estimates — and Records returns nil; memory is O(users), independent
// of job count). Feed Observe before every machine state change.
//
// Both modes fold each record into one running reduction (fold) as it
// arrives, so every Report field but the four percentiles is the same
// left fold in either mode. A retain-mode Report selects its exact
// percentiles from the retained records (stats.PercentileInPlace):
// O(records), no sort. A checkpoint's recorder and its forks share a
// ranked prefix instead, so a fork's Report costs what its own records
// add (rankedPrefix).
//
// Memory bounds (DESIGN.md §7): the usage integrals and makespan
// tracking are O(1) in both modes — Observe never retains samples, it
// integrates them — and the per-user fairness tallies are O(users).
// Only the retained records scale with job count, and only in retain
// mode; Clone shares them rather than copying them.
type Recorder struct {
	retain bool
	fold   fold          // retain mode's running reduction (bounded mode folds in agg)
	chunks []chunk       // retained records, recordChunk to a chunk
	ranked *rankedPrefix // the first ranked.n records' sorted quantities (retain mode)
	agg    *Aggregate    // bounded-mode online reduction (nil when retaining)
	users  []userAcc     // fairness tallies, ascending by user

	lastT     int64
	haveT     bool
	nodeInt   float64 // node-seconds busy
	localInt  float64 // MiB-seconds of local DRAM
	poolInt   float64 // MiB-seconds of pool
	demandInt float64 // GiB/s-seconds of fabric demand

	firstSubmit, lastEnd int64
	haveSubmit           bool
}

// recordChunk is the number of retained records per chunk: large
// enough that a chunk list is a small fraction of the records it
// holds, small enough that the one chunk a fork copies on its first
// append is cheap.
const recordChunk = 256

// chunk is one entry of a recorder's chunk list: its view of up to
// recordChunk records and, once the chunk is full, the slot for their
// JSON code (chunkCode, state.go), which keep allocates when the chunk
// fills. Every recorder cloned from then on copies the slot's pointer
// with the entry, and so shares the code as it shares the records. The
// slot is not allocated with the records: a record array holds no
// pointers, a block holding the slot too is an object the collector
// must scan, and with such blocks a parallel Table 2 sweep measured
// slower (EXPERIMENTS.md).
type chunk struct {
	recs []JobRecord
	code *chunkCode // nil until the chunk is full
}

// rankedPrefix is the sorted waits, bounded slowdowns and remote
// dilations of a recorder's first n retained records. Retained records
// are never written again (Clone), so every recorder whose first n
// records are these may share one: a checkpoint's recorder and its
// forks do. It is built once, by the first Report that uses it, and
// is immutable after that.
type rankedPrefix struct {
	n               int
	once            sync.Once
	wait, bsld, dil []float64
}

// build sorts the quantities of rec's first p.n records, once. Any
// recorder sharing p may build it: they all hold the same first p.n.
func (p *rankedPrefix) build(rec *Recorder) {
	p.once.Do(func() {
		p.wait = rec.gather(make([]float64, 0, p.n), 0, p.n, recordWait)
		sort.Float64s(p.wait)
		// One buffer of the right size serves the dilations, copied
		// out at their own size, and then the slowdowns.
		buf := rec.gather(make([]float64, 0, len(p.wait)), 0, p.n, recordRemoteDilation)
		p.dil = append([]float64(nil), buf...)
		sort.Float64s(p.dil)
		p.bsld = rec.gather(buf, 0, p.n, recordBSld)
		sort.Float64s(p.bsld)
	})
}

// NewRecorder returns an empty retain-all recorder.
func NewRecorder() *Recorder {
	return &Recorder{retain: true}
}

// NewBoundedRecorder returns a recorder whose memory is independent of
// job count: per-job records feed online aggregates instead of being
// retained. Report is exact except for the four
// percentile fields, which come from hybrid estimators — exact up to
// stats.ExactQuantileBuffer observations, P² estimates beyond.
func NewBoundedRecorder() *Recorder {
	return &Recorder{agg: NewAggregate()}
}

// Bounded reports whether the recorder runs in bounded (non-retaining)
// mode.
func (rec *Recorder) Bounded() bool { return !rec.retain }

// Clone returns an independent copy of the recorder's state —
// retained records, running reduction, online aggregates, per-user
// fairness tallies and usage integrals — for simulation checkpointing.
// A clone keeps its original's mode, so a bounded run's forks stay
// bounded.
//
// The clone shares the retained records instead of copying them: every
// chunk but the last is full and never written again, and the clone's
// view of the last one has its capacity clipped to its length. The
// original then appends only past the clone's length, and the clone's
// first append copies that one chunk, so neither ever writes memory
// the other can read. Clone only reads rec, so any number of
// goroutines may clone one recorder at once.
//
// A retain-mode clone is a checkpoint or a fork of one, so it gets a
// ranked prefix covering all its records: rec's own when that covers
// all of rec's records (a fork of a checkpoint), a fresh unbuilt one
// otherwise (a checkpoint of a live or forked run).
func (rec *Recorder) Clone() *Recorder {
	c := *rec
	c.chunks = append([]chunk(nil), rec.chunks...)
	if n := len(c.chunks); n > 0 {
		last := &c.chunks[n-1]
		last.recs = last.recs[:len(last.recs):len(last.recs)]
	}
	if n := rec.count(); rec.retain && (rec.ranked == nil || rec.ranked.n != n) {
		c.ranked = &rankedPrefix{n: n}
	}
	if rec.agg != nil {
		c.agg = rec.agg.Clone()
	}
	c.users = append([]userAcc(nil), rec.users...)
	return &c
}

// Observe integrates current usage up to time now. Call it with the
// pre-change usage before every allocation or release, and once at the
// end of the simulation.
func (rec *Recorder) Observe(now int64, u cluster.Usage) {
	if rec.haveT && now > rec.lastT {
		dt := float64(now - rec.lastT)
		rec.nodeInt += dt * float64(u.BusyNodes)
		rec.localInt += dt * float64(u.UsedLocal)
		rec.poolInt += dt * float64(u.UsedPool)
		rec.demandInt += dt * u.PoolDemand
	}
	rec.lastT = now
	rec.haveT = true
}

// OnSubmit notes a job arrival for makespan accounting.
func (rec *Recorder) OnSubmit(now int64) {
	if !rec.haveSubmit || now < rec.firstSubmit {
		rec.firstSubmit = now
		rec.haveSubmit = true
	}
	if !rec.haveT {
		rec.lastT = now
		rec.haveT = true
	}
}

// Add records a finished (or rejected) job: retained or reduced online
// per the recorder's mode, and tallied into the per-user fairness
// accumulators either way.
func (rec *Recorder) Add(r JobRecord) {
	if rec.retain {
		rec.keep(&r)
	} else {
		rec.agg.Add(r)
	}
	rec.tallyUser(r)
	if !r.Rejected && r.End > rec.lastEnd {
		rec.lastEnd = r.End
	}
}

// keep folds r into the running reduction and retains it. A new chunk
// starts when the last is full; a last chunk whose capacity Clone
// clipped is shared with the recorder it was cloned from or into, so
// it is copied into a chunk of its own before the write. A chunk that
// the write fills gets its code slot.
func (rec *Recorder) keep(r *JobRecord) {
	rec.fold.add(r)
	n := len(rec.chunks)
	if n == 0 || len(rec.chunks[n-1].recs) == recordChunk {
		rec.chunks = append(rec.chunks, chunk{recs: make([]JobRecord, 0, recordChunk)})
		n++
	}
	last := &rec.chunks[n-1]
	if len(last.recs) == cap(last.recs) {
		last.recs = append(make([]JobRecord, 0, recordChunk), last.recs...)
	}
	last.recs = append(last.recs, *r)
	if len(last.recs) == recordChunk {
		last.code = new(chunkCode)
	}
}

// count returns the number of retained records.
func (rec *Recorder) count() int {
	n := len(rec.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)*recordChunk + len(rec.chunks[n-1].recs)
}

// Records returns a copy of the job records, so callers can sort or
// mutate freely without corrupting recorder state. It returns nil for
// a bounded recorder (nothing is retained).
func (rec *Recorder) Records() []JobRecord {
	if len(rec.chunks) == 0 {
		return nil
	}
	out := make([]JobRecord, 0, rec.count())
	for _, c := range rec.chunks {
		out = append(out, c.recs...)
	}
	return out
}

// Report reduces the recorder to summary metrics for a machine built
// from cfg. It never writes the recorder, and ranks a shared prefix
// only under its sync.Once, so reports of one recorder, or of
// recorders sharing a prefix, may be taken concurrently.
func (rec *Recorder) Report(cfg cluster.Config) *Report {
	rp := &Report{
		FirstSubmit: rec.firstSubmit,
		LastEnd:     rec.lastEnd,
	}
	if rec.retain {
		rec.fold.fill(rp)
		rec.exactPercentiles(rp)
	} else {
		rec.agg.fillReport(rp)
	}
	n := rp.Completed + rp.Killed
	if n > 0 {
		rp.RemoteJobFraction = float64(rp.RemoteJobs) / float64(n)
	}

	makespan := rec.lastEnd - rec.firstSubmit
	rp.MakespanSec = makespan
	if makespan > 0 {
		span := float64(makespan)
		rp.NodeUtil = rec.nodeInt / (span * float64(cfg.TotalNodes()))
		if cap := cfg.TotalLocalMiB(); cap > 0 {
			rp.LocalMemUtil = rec.localInt / (span * float64(cap))
		}
		if cap := cfg.TotalPoolMiB(); cap > 0 {
			rp.PoolUtil = rec.poolInt / (span * float64(cap))
		}
		rp.MeanFabricDemand = rec.demandInt / span
		rp.ThroughputPerHour = float64(n) / (span / 3600)
	}
	return rp
}

// exactPercentiles fills the report's four percentile fields from the
// retained records. One buffer, allocated per call, holds each
// quantity in turn, and stats.PercentileInPlace selects from it, so a
// report costs O(records) with no sort.
//
// A recorder whose ranked prefix is longer than its tail (the records
// past it) takes the ranked path instead: the buffer holds only the
// tail, sorted, and each percentile comes from the ranked prefix
// merged with it (stats.PercentileOfSorted), so a fork's report costs
// O(tail · log tail) once the prefix is ranked. A tail at least as
// long as the prefix would pay more to sort than to select over all
// records; it, and an empty prefix, select as above.
func (rec *Recorder) exactPercentiles(rp *Report) {
	pre, n := rec.ranked, rec.count()
	if pre == nil || n-pre.n >= pre.n {
		buf := rec.gather(make([]float64, 0, rp.Completed+rp.Killed), 0, n, recordWait)
		rp.P95Wait = stats.PercentileInPlace(buf, 95)
		rp.P99Wait = stats.PercentileInPlace(buf, 99)
		buf = rec.gather(buf, 0, n, recordBSld)
		rp.P95BSld = stats.PercentileInPlace(buf, 95)
		buf = rec.gather(buf, 0, n, recordRemoteDilation)
		rp.P95DilationRemote = stats.PercentileInPlace(buf, 95)
		return
	}
	pre.build(rec)
	tail := func(buf []float64, val func(*JobRecord) (float64, bool)) []float64 {
		buf = rec.gather(buf, pre.n, n, val)
		sort.Float64s(buf)
		return buf
	}
	buf := tail(make([]float64, 0, n-pre.n), recordWait)
	rp.P95Wait = stats.PercentileOfSorted(pre.wait, buf, 95)
	rp.P99Wait = stats.PercentileOfSorted(pre.wait, buf, 99)
	buf = tail(buf, recordBSld)
	rp.P95BSld = stats.PercentileOfSorted(pre.bsld, buf, 95)
	buf = tail(buf, recordRemoteDilation)
	rp.P95DilationRemote = stats.PercentileOfSorted(pre.dil, buf, 95)
}

// The three percentile quantities of a record, and whether the record
// counts toward each: every non-rejected record has a wait and a
// bounded slowdown, and those that held pool memory a remote dilation.
func recordWait(r *JobRecord) (float64, bool) { return float64(r.Wait()), !r.Rejected }
func recordBSld(r *JobRecord) (float64, bool) { return r.BoundedSlowdown(), !r.Rejected }
func recordRemoteDilation(r *JobRecord) (float64, bool) {
	return r.Dilation, !r.Rejected && r.RemoteMiB > 0
}

// gather refills buf with val of every retained record in [from, to)
// that val selects, in record order.
func (rec *Recorder) gather(buf []float64, from, to int, val func(*JobRecord) (float64, bool)) []float64 {
	buf = buf[:0]
	for ci := from / recordChunk; ci*recordChunk < to; ci++ {
		c := rec.chunks[ci].recs
		for i := max(from-ci*recordChunk, 0); i < min(to-ci*recordChunk, len(c)); i++ {
			if v, ok := val(&c[i]); ok {
				buf = append(buf, v)
			}
		}
	}
	return buf
}

// fold is the running left fold of a record stream into the Report's
// per-job quantities other than the percentiles: the counts, the
// node-hours and the five Welford accumulators. Both recorder modes
// fold every record through add in record order, so these fields are
// bit-identical between the modes; Clone copies a fold by value.
type fold struct {
	Completed, Killed, Rejected int
	RemoteJobs                  int
	NodeHours                   float64

	Wait, Response, BSld        stats.Online
	DilationAll, DilationRemote stats.Online
}

// add folds one record in. It returns the record's wait and bounded
// slowdown, and false for a rejected record, which only counts.
func (f *fold) add(r *JobRecord) (wait, bsld float64, ok bool) {
	switch {
	case r.Rejected:
		f.Rejected++
		return 0, 0, false
	case r.Killed:
		f.Killed++
	default:
		f.Completed++
	}
	f.NodeHours += float64(r.Nodes) * float64(r.Runtime()) / 3600
	wait, bsld = float64(r.Wait()), r.BoundedSlowdown()
	f.Wait.Add(wait)
	f.Response.Add(float64(r.Response()))
	f.BSld.Add(bsld)
	f.DilationAll.Add(r.Dilation)
	if r.RemoteMiB > 0 {
		f.RemoteJobs++
		f.DilationRemote.Add(r.Dilation)
	}
	return wait, bsld, true
}

// fill writes the fold's share of a report.
func (f *fold) fill(rp *Report) {
	rp.Completed, rp.Killed, rp.Rejected = f.Completed, f.Killed, f.Rejected
	rp.RemoteJobs = f.RemoteJobs
	rp.NodeHours = f.NodeHours
	rp.Wait, rp.Response, rp.BSld = f.Wait, f.Response, f.BSld
	rp.DilationAll, rp.DilationRemote = f.DilationAll, f.DilationRemote
}

// Report is the reduced result of one simulation run.
type Report struct {
	Completed, Killed, Rejected int
	RemoteJobs                  int
	RemoteJobFraction           float64

	Wait, Response, BSld         stats.Online
	DilationAll, DilationRemote  stats.Online
	P95Wait, P99Wait             float64
	P95BSld, P95DilationRemote   float64
	NodeUtil                     float64
	LocalMemUtil, PoolUtil       float64
	MeanFabricDemand             float64
	ThroughputPerHour, NodeHours float64
	MakespanSec                  int64
	FirstSubmit, LastEnd         int64

	// NodeFailures and FailureKills are populated by the engine when
	// failure injection is enabled.
	NodeFailures, FailureKills int
}

// Jobs returns the number of non-rejected jobs in the report.
func (r *Report) Jobs() int { return r.Completed + r.Killed }

// KilledFraction returns killed/(completed+killed), or 0 when empty.
func (r *Report) KilledFraction() float64 {
	if n := r.Jobs(); n > 0 {
		return float64(r.Killed) / float64(n)
	}
	return 0
}
