// Package metrics collects per-job records and time-weighted resource
// series from a simulation and reduces them to the report quantities
// the paper's tables and figures are built from: wait time, bounded
// slowdown, utilization, throughput, dilation, and their distributions.
package metrics

import (
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
	// that could never run on the machine and were refused at submit.
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
// Memory bounds (DESIGN.md §7): the usage integrals and makespan
// tracking are O(1) in both modes — Observe never retains samples, it
// integrates them — and the per-user fairness tallies are O(users).
// Only the record slice scales with job count, and only in retain mode.
type Recorder struct {
	retain  bool
	records []JobRecord
	agg     *Aggregate // bounded-mode online reduction (nil when retaining)
	byUser  map[int]*userAcc

	lastT     int64
	haveT     bool
	nodeInt   float64 // node-seconds busy
	localInt  float64 // MiB-seconds of local DRAM
	poolInt   float64 // MiB-seconds of pool
	demandInt float64 // GiB/s-seconds of fabric demand

	firstSubmit, lastEnd int64
	haveSubmit           bool
}

// NewRecorder returns an empty retain-all recorder.
func NewRecorder() *Recorder {
	return &Recorder{retain: true, byUser: map[int]*userAcc{}}
}

// NewBoundedRecorder returns a recorder whose memory is independent of
// job count: per-job records feed online aggregates instead of being
// retained. Report is exact except for the four
// percentile fields, which come from hybrid estimators — exact up to
// stats.ExactQuantileBuffer observations, P² estimates beyond.
func NewBoundedRecorder() *Recorder {
	return &Recorder{agg: NewAggregate(), byUser: map[int]*userAcc{}}
}

// Bounded reports whether the recorder runs in bounded (non-retaining)
// mode.
func (rec *Recorder) Bounded() bool { return !rec.retain }

// Clone returns an independent deep copy of the recorder's state —
// retained records, online aggregates, per-user fairness tallies and
// usage integrals — for simulation checkpointing. A clone keeps its
// original's mode, so a bounded run's forks stay bounded.
func (rec *Recorder) Clone() *Recorder {
	c := &Recorder{
		retain:      rec.retain,
		records:     append([]JobRecord(nil), rec.records...),
		byUser:      make(map[int]*userAcc, len(rec.byUser)),
		lastT:       rec.lastT,
		haveT:       rec.haveT,
		nodeInt:     rec.nodeInt,
		localInt:    rec.localInt,
		poolInt:     rec.poolInt,
		demandInt:   rec.demandInt,
		firstSubmit: rec.firstSubmit,
		lastEnd:     rec.lastEnd,
		haveSubmit:  rec.haveSubmit,
	}
	if rec.agg != nil {
		c.agg = rec.agg.Clone()
	}
	for u, a := range rec.byUser {
		acc := *a
		c.byUser[u] = &acc
	}
	return c
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
		rec.records = append(rec.records, r)
	} else {
		rec.agg.Add(r)
	}
	rec.tallyUser(r)
	if !r.Rejected && r.End > rec.lastEnd {
		rec.lastEnd = r.End
	}
}

// Records returns a copy of the job records, so callers can sort or
// mutate freely without corrupting recorder state. It returns nil for
// a bounded recorder (nothing is retained).
func (rec *Recorder) Records() []JobRecord {
	if len(rec.records) == 0 {
		return nil
	}
	return append([]JobRecord(nil), rec.records...)
}

// Report reduces the recorder to summary metrics for a machine built
// from cfg.
func (rec *Recorder) Report(cfg cluster.Config) *Report {
	rp := &Report{
		FirstSubmit: rec.firstSubmit,
		LastEnd:     rec.lastEnd,
	}
	if rec.retain {
		rec.exactReport(rp)
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

// exactReport fills the per-job share of a report from the retained
// records: exact percentiles from fully materialised arrays.
func (rec *Recorder) exactReport(rp *Report) {
	var waits, bslds []float64
	var remoteDils []float64
	for i := range rec.records {
		r := &rec.records[i]
		switch {
		case r.Rejected:
			rp.Rejected++
			continue
		case r.Killed:
			rp.Killed++
		default:
			rp.Completed++
		}
		rp.NodeHours += float64(r.Nodes) * float64(r.Runtime()) / 3600
		waits = append(waits, float64(r.Wait()))
		bslds = append(bslds, r.BoundedSlowdown())
		rp.Wait.Add(float64(r.Wait()))
		rp.Response.Add(float64(r.Response()))
		rp.BSld.Add(r.BoundedSlowdown())
		rp.DilationAll.Add(r.Dilation)
		if r.RemoteMiB > 0 {
			rp.RemoteJobs++
			remoteDils = append(remoteDils, r.Dilation)
			rp.DilationRemote.Add(r.Dilation)
		}
	}
	rp.P95Wait = stats.Percentile(waits, 95)
	rp.P99Wait = stats.Percentile(waits, 99)
	rp.P95BSld = stats.Percentile(bslds, 95)
	rp.P95DilationRemote = stats.Percentile(remoteDils, 95)
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
