// Package sim wires workload, scheduler, machine, memory model and
// metrics into a discrete-event simulation of a batch-scheduled HPC
// system with disaggregated memory.
//
// The engine owns job lifecycle: arrival → queue → dispatch → finish or
// kill-at-limit. Placements that borrow pool memory dilate the job's
// runtime according to the memory model; under contention-sensitive
// models the engine re-dilates running jobs whenever fabric congestion
// changes (piecewise-constant rate integration of remaining work).
package sim

import (
	"cmp"
	"fmt"
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/des"
	"dismem/internal/memmodel"
	"dismem/internal/metrics"
	"dismem/internal/scenario"
	"dismem/internal/sched"
	"dismem/internal/source"
	"dismem/internal/stats"
	"dismem/internal/workload"
)

// Config assembles one simulation run.
type Config struct {
	Machine cluster.Config
	Model   memmodel.Model
	// Scheduler decides dispatch; see sched.Batch and core.MemAware.
	Scheduler sched.Scheduler
	// ExtendLimit scales each job's kill limit by its predicted
	// dilation at start: the system slowed the job down, so it extends
	// the walltime accordingly (and planners reserve the dilated time).
	// When false, jobs are killed strictly at the user estimate even if
	// dilation pushed them past it.
	ExtendLimit bool
	// CheckInvariants runs Machine.CheckInvariants after every state
	// change; O(machine) per event, for tests.
	CheckInvariants bool
	// Failures optionally injects node failures (nil = reliable
	// machine).
	Failures *FailureConfig
	// Scenario optionally perturbs the run with a deterministic
	// intervention timeline (outages, pool resizes, penalty shifts,
	// growth, arrival modulation); see package scenario. Nil and the
	// empty scenario both leave the run bit-identical to a
	// scenario-free one.
	Scenario *scenario.Scenario
	// SampleEvery is the period, in simulated seconds, of periodic
	// sampling ticks (0 = no sampling). Each tick delivers one Sample
	// to Observer.OnSample and as a row to SeriesSink; ignored when
	// neither consumer is attached.
	SampleEvery int64
	Outputs
}

// FailureConfig models node failures as a Poisson process per node with
// deterministic repair: the standard exponential-MTBF model.
type FailureConfig struct {
	// MTBFPerNodeSec is one node's mean time between failures.
	MTBFPerNodeSec int64
	// RepairSec is how long a failed node stays down.
	RepairSec int64
	// Seed drives the failure stream independently of the workload.
	Seed uint64
	// MaxRestarts bounds how often one job is resubmitted after
	// failure kills before the site gives up on it (0 = default 3).
	// Without a bound, a wide long job on an unreliable machine can
	// be re-killed forever and the simulation never terminates.
	MaxRestarts int
}

// maxRestarts returns the effective resubmission bound.
func (f *FailureConfig) maxRestarts() int {
	if f.MaxRestarts <= 0 {
		return 3
	}
	return f.MaxRestarts
}

// Validate reports the first invalid parameter, or nil.
func (f *FailureConfig) Validate() error {
	if f.MTBFPerNodeSec <= 0 {
		return fmt.Errorf("sim: failure MTBF %d <= 0", f.MTBFPerNodeSec)
	}
	if f.RepairSec <= 0 {
		return fmt.Errorf("sim: failure repair time %d <= 0", f.RepairSec)
	}
	return nil
}

// Result bundles the outcome of a run.
type Result struct {
	Report *metrics.Report
	// Recorder retains per-job records for CDFs and custom reductions.
	Recorder *metrics.Recorder
	// Events is the number of DES events fired.
	Events uint64
	// Stopped marks a run halted early via Stop: the report covers only
	// the simulated prefix, and queued or running jobs at the stop
	// instant have no records.
	Stopped bool
	// ScenarioEvents counts the timed interventions that were applied
	// (0 without a scenario; pending interventions cancelled when the
	// last job finished are not counted).
	ScenarioEvents int
}

type runningState struct {
	job   *workload.Job
	alloc *cluster.Allocation
	start int64
	limit int64 // wall-clock seconds from start

	dilAtStart float64
	// workLeft is remaining base-runtime seconds; progress accrues at
	// rate 1/dilation per wall-clock second.
	workLeft   float64
	rate       float64
	lastUpdate int64
	endEv      *des.Event
	// endLive and endKill are the two end payloads this job can carry,
	// carved on first use (see newEndPayload), so a re-dilation
	// reschedule reuses them instead of carving again.
	endLive, endKill *endPayload
}

// Event kinds: every event the engine schedules carries one of these
// tags plus a serializable payload, so the DES queue can be
// checkpointed as records and the closures rebuilt on restore (see
// checkpoint.go). An untagged event would make the engine
// uncheckpointable — des.Simulator.Snapshot rejects it.
const (
	evArrival  des.Kind = iota + 1 // payload: *workload.Job
	evPass                         // payload: nil (coalesced scheduling pass)
	evEnd                          // payload: *endPayload
	evFailure                      // payload: nil (next random failure)
	evRepair                       // payload: cluster.NodeID (victim under repair)
	evSample                       // payload: nil (periodic observer tick)
	evScenario                     // payload: int (index into cfg.Scenario.Events)
)

// endPayload identifies a scheduled job termination. End events carry
// it by pointer, carved from the engine's payload chunk
// (newEndPayload), and it is never mutated after carving, so a
// checkpoint's event records may share it with the live engine.
type endPayload struct {
	ID     int
	Killed bool
}

// endPayloadChunk is the number of end payloads in one chunk, 4 KiB.
const endPayloadChunk = 256

// Engine runs one simulation. Create with New, then either call Run
// once (fire-and-forget) or drive it incrementally: Start, any mix of
// Step / RunUntil / RunAll with live queries in between, then Finish.
type Engine struct {
	cfg Config
	sim *des.Simulator
	m   *cluster.Machine
	rec *metrics.Recorder
	// outs is the ordered output list attach builds from cfg.Outputs
	// (empty without outputs); closed and closeErr are its one close
	// latch (see close).
	outs     []output
	closed   bool
	closeErr error

	started  bool
	finished bool
	result   *Result

	// Arrival stream: the engine pulls one job ahead of the clock, so
	// exactly one pending-arrival event sits in the DES heap at a time
	// (heap residency O(running+1), not O(jobs)). src is exhausted when
	// srcDone; srcErr records a mid-stream production failure, surfaced
	// at Finish.
	src         source.Source
	srcDone     bool
	srcErr      error
	lastArrival int64

	queue   []*workload.Job
	running map[int]*runningState
	// byID and byEnd are the running set as two maintained views:
	// ascending job ID (handed to passes as sched.Context.Running) and
	// ascending (GuaranteedEnd, ID) (the order reservation planners
	// consume releases in, returned by sched.Context.ByEnd). remote is a
	// third: the running jobs that hold pool memory, in ascending job ID,
	// the only jobs re-dilation can change and the deterministic order
	// it reschedules their ends in. A running job's entry never changes
	// (an allocation's remote MiB is fixed when it is committed), so all
	// three are updated only by binary-search insert and remove at
	// dispatch and termination, and passes read them without a copy.
	byID, byEnd []sched.RunningJob
	remote      []*runningState
	reDilate    bool
	passQueue   bool

	// Failure injection state.
	failRNG    *stats.RNG
	failEv     *des.Event
	terminated int // jobs that reached a terminal state
	jobsLeft   int // arrived jobs not yet terminated or rejected
	failures   int // node failures that occurred
	failKills  int // failure kills (each becomes a restart)
	restarts   map[int]int

	// Scenario state: pending intervention events (cancelled with the
	// last job), the remote-penalty scale the last beta event set, how
	// many interventions have been applied, and which nodes a scenario
	// outage holds down (planned outages take precedence over the
	// random-failure repair process).
	scenEvs      []*des.Event
	dilScale     float64
	scenApplied  int
	scenarioDown map[cluster.NodeID]bool

	sampleEv *des.Event

	// Per-family event handlers, bound once at construction. Events
	// carry their payload through des.Event.Data, so scheduling an event
	// reuses these bound method values instead of allocating a closure
	// per event (a bare method expression like e.onArrivalEvent allocates
	// at every use site).
	hArrival, hPass, hEnd, hSample, hFailure, hRepair, hScenario des.Handler

	// Scratch reused across events within one run (see DESIGN.md §13):
	// the pass context, the sorted IDs of the current dispatch round,
	// the up-node candidate list of the failure process, and the
	// runningState free list.
	passCtx    sched.Context
	startedIDs []int
	upScratch  []cluster.NodeID
	rsPool     []*runningState
	// redilated counts the running jobs re-dilation has visited, a work
	// counter for tests.
	redilated int
	// ends is the chunk end payloads are carved from. It is only
	// appended to and is replaced when spent, never reused, so a chunk
	// lives as long as the longest-running job carved from it.
	ends []endPayload
}

// bindHandlers creates the per-family handler values once per engine.
func (e *Engine) bindHandlers() {
	e.hArrival = e.onArrivalEvent
	e.hPass = e.onPassEvent
	e.hEnd = e.onEndEvent
	e.hSample = e.onSampleEvent
	e.hFailure = e.onFailureEvent
	e.hRepair = e.onRepairEvent
	e.hScenario = e.onScenarioEvent
	// The pass context's end-order view is bound here too: a method
	// value allocates, and ByEndFn is the same for every pass.
	e.passCtx.ByEndFn = e.endView
}

// New builds an engine; the machine is constructed from cfg.Machine.
func New(cfg Config) (*Engine, error) { return newEngine(cfg, nil) }

// NewReusing builds an engine for cfg that recycles a finished
// predecessor's run-independent state: the machine (reset in place when
// cfg.Machine matches its base configuration), the DES event free list,
// and every per-event scratch structure (running views, pass context,
// runningState pool, maps). The per-run observable state — recorder,
// scheduler, sinks, RNGs — is fresh, so a NewReusing engine produces
// byte-identical reports, records, series and traces to a New one with
// the same Config (the batch path's bit-identity contract, pinned by
// TestRunnerMatchesLoopOfSimulate). prev becomes unusable; passing a
// nil or unfinished prev falls back to plain construction.
func NewReusing(cfg Config, prev *Engine) (*Engine, error) {
	if prev == nil || !prev.finished {
		return newEngine(cfg, nil)
	}
	return newEngine(cfg, prev)
}

// newEngine is the shared constructor behind New and NewReusing.
func newEngine(cfg Config, prev *Engine) (*Engine, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	if cfg.Failures != nil {
		if err := cfg.Failures.Validate(); err != nil {
			return nil, err
		}
	}
	var m *cluster.Machine
	if prev != nil && prev.m.BaseConfig() == cfg.Machine {
		// Reset is New by construction (same code path over the same
		// base configuration), so the reused machine is bit-identical
		// to a fresh one — with its node/pool/bitset backing arrays and
		// allocation free list retained.
		m = prev.m
		m.Reset()
	} else {
		var err error
		m, err = cluster.New(cfg.Machine)
		if err != nil {
			return nil, err
		}
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	rec := metrics.NewRecorder()
	if cfg.RecordSink != nil {
		rec = metrics.NewBoundedRecorder()
	}
	e := &Engine{
		cfg:          cfg,
		sim:          des.New(),
		m:            m,
		rec:          rec,
		running:      make(map[int]*runningState),
		reDilate:     memmodel.ContentionSensitive(cfg.Model),
		restarts:     make(map[int]int),
		dilScale:     1,
		scenarioDown: make(map[cluster.NodeID]bool),
	}
	if prev != nil {
		// Adopt the predecessor's recycled storage. Everything here is
		// either empty, cleared, or pooled zeroed values; nothing of the
		// previous run's observable state survives.
		e.sim = des.NewReusing(prev.sim)
		e.queue = prev.queue[:0]
		// A stopped predecessor may leave running entries; drop their
		// references along with them.
		clear(prev.byID)
		clear(prev.byEnd)
		clear(prev.remote)
		e.byID = prev.byID[:0]
		e.byEnd = prev.byEnd[:0]
		e.remote = prev.remote[:0]
		clear(prev.running)
		e.running = prev.running
		clear(prev.restarts)
		e.restarts = prev.restarts
		clear(prev.scenarioDown)
		e.scenarioDown = prev.scenarioDown
		e.passCtx = prev.passCtx
		e.passCtx.Reset()
		e.startedIDs = prev.startedIDs[:0]
		e.upScratch = prev.upScratch[:0]
		e.rsPool = prev.rsPool
		prev.rsPool = nil
	}
	e.attach()
	e.bindHandlers()
	return e, nil
}

// Run simulates the workload to completion and returns the result. It
// errors if any feasible job failed to terminate (a scheduler bug).
func (e *Engine) Run(w *workload.Workload) (*Result, error) {
	if err := e.Start(w); err != nil {
		return nil, err
	}
	e.RunAll()
	return e.Finish()
}

// Start validates the workload and primes the event queue without
// firing any event: the clock stays at 0 until the first Step /
// RunUntil / RunAll. It may be called once per engine (StartSource is
// the streaming alternative). Internally the workload runs through the
// same pull-based arrival path as any other source, so slice and
// streamed replays of the same trace are bit-identical.
func (e *Engine) Start(w *workload.Workload) error {
	if e.cfg.Scenario.Modulates() {
		// Arrival modulation is a pre-run workload transform, not an
		// event stream: the caller's workload is cloned, never mutated.
		w = workload.ModulateArrivals(w, e.cfg.Scenario.Rate)
	}
	if err := w.Validate(); err != nil {
		return e.fail(err)
	}
	return e.startSource(source.FromWorkload(w))
}

// StartSource primes the engine to pull arrivals lazily from src: one
// pending-arrival event in the heap at a time, memory bounded by live
// state instead of trace length. Jobs are validated as they stream
// (structural validity plus nondecreasing submit order; the O(jobs)
// duplicate-ID check of Workload.Validate is deliberately skipped) and
// a production error surfaces from Finish after the in-flight work
// drains. Scenario arrival modulation composes lazily via
// source.Modulate. It may be called once per engine, instead of Start.
func (e *Engine) StartSource(src source.Source) error {
	if src == nil {
		return e.fail(fmt.Errorf("sim: nil source"))
	}
	if e.cfg.Scenario.Modulates() {
		src = source.Modulate(src, e.cfg.Scenario.Rate)
	}
	return e.startSource(src)
}

// startSource arms the event queue: the first pending arrival, then —
// only when there is any work — the failure stream, sampling ticks and
// scenario interventions, in that order (the scheduling order at one
// instant is part of observable behavior, see DESIGN.md §2).
func (e *Engine) startSource(src source.Source) error {
	if e.started {
		return fmt.Errorf("sim: engine already started")
	}
	e.started = true
	e.src = src
	e.scheduleNextArrival()
	hasWork := !e.srcDone
	if e.srcErr != nil {
		return e.fail(e.srcErr)
	}
	if e.cfg.Failures != nil && hasWork {
		e.failRNG = stats.NewRNG(e.cfg.Failures.Seed)
		e.scheduleNextFailure()
	}
	if e.sampling() && hasWork {
		e.scheduleNextSample()
	}
	if e.cfg.Scenario != nil && hasWork {
		e.scenEvs = make([]*des.Event, len(e.cfg.Scenario.Events))
		for i := range e.cfg.Scenario.Events {
			ev := e.cfg.Scenario.Events[i]
			e.scenEvs[i] = e.sim.ScheduleKind(des.Time(ev.At), evScenario, i, e.hScenario)
		}
	}
	return nil
}

// onScenarioEvent fires intervention i of the configured scenario. Its
// scenEvs slot — indexed by the intervention's payload, not by arrival
// order — is cleared before applying, so record's pending-intervention
// sweep can never Cancel a handle whose event already fired (and whose
// struct may since have been recycled for a live event).
func (e *Engine) onScenarioEvent(now des.Time, data any) {
	i := data.(int)
	e.scenEvs[i] = nil
	e.onScenario(int64(now), e.cfg.Scenario.Events[i])
}

// scheduleNextArrival pulls one job from the source and schedules its
// arrival. Arrival events are front-scheduled: at any instant they fire
// before every other event, in stream order — exactly the firing order
// the historical pre-schedule-everything design produced, which keeps
// streamed replays bit-identical to slice replays.
func (e *Engine) scheduleNextArrival() {
	job, ok := e.src.Next()
	if !ok {
		e.srcDone = true
		e.srcErr = e.src.Err()
		return
	}
	if err := source.Validate(job, e.lastArrival); err != nil {
		// A broken stream stops producing; in-flight work drains and
		// Finish reports the error.
		e.srcDone = true
		e.srcErr = err
		return
	}
	e.lastArrival = job.Submit
	e.sim.ScheduleFrontKind(des.Time(job.Submit), evArrival, job, e.hArrival)
}

// onArrivalEvent delivers one pulled job: count it as outstanding, pull
// the next arrival, then deliver this one.
func (e *Engine) onArrivalEvent(now des.Time, data any) {
	job := data.(*workload.Job)
	e.jobsLeft++
	e.scheduleNextArrival()
	e.onArrival(int64(now), job)
}

// Outstanding reports whether any work remains: an arrived job not yet
// terminated, or arrivals the source has still to deliver.
func (e *Engine) Outstanding() bool { return e.jobsLeft > 0 || !e.srcDone }

// Step fires the single earliest event. It returns false, firing
// nothing, once the simulation is Done.
func (e *Engine) Step() bool { return !e.Done() && e.sim.Step() }

// RunUntil fires every event scheduled at or before virtual time t and
// leaves the clock at exactly t, even when the simulation's last event
// is earlier (use the final job record or Report.MakespanSec, not Now,
// to recover the true end of a run). After Stop the clock stays at the
// stopping event.
func (e *Engine) RunUntil(t int64) { e.sim.Run(des.Time(t)) }

// RunAll fires events until the simulation is Done.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Stop halts the event loop after the current event: a deliberate early
// exit, not an error. Finish then reports the simulated prefix with
// Result.Stopped set. Safe to call from Observer callbacks. After
// Finish, Stop is a no-op: the result is already built, and a late stop
// must not relabel a completed run as a stopped one.
func (e *Engine) Stop() {
	if e.finished {
		return
	}
	e.sim.Stop()
}

// Now returns the virtual clock in seconds since simulation start.
func (e *Engine) Now() int64 { return int64(e.sim.Now()) }

// Done reports whether the simulation will make no more progress: Stop
// was called, or the run is idle — the source has delivered every
// arrival and no event but the sampling tick is pending. An idle run
// that still has queued jobs is stuck (nothing left can start them), so
// it is done too, sampled or not: drive loops end, and Finish reports
// the jobs that never terminated. Undelivered source arrivals keep Done
// false even when the event queue is empty: that state is a wiring bug
// (for example a restored checkpoint that lost its pending-arrival
// event), which Finish reports instead of silently truncating the run.
func (e *Engine) Done() bool { return e.sim.Stopped() || e.idle() }

// idle reports whether the source is exhausted and no event but the
// sampling tick is pending. The tick re-arms itself while jobs are
// outstanding, so on its own it never makes progress.
func (e *Engine) idle() bool {
	ticks := 0
	if e.sampleEv != nil {
		ticks = 1
	}
	return e.srcDone && e.sim.Pending() == ticks
}

// QueueDepth returns the number of jobs waiting to be dispatched.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// RunningCount returns the number of jobs currently holding resources.
func (e *Engine) RunningCount() int { return len(e.running) }

// Usage returns the machine occupancy snapshot; O(pools).
func (e *Engine) Usage() cluster.Usage { return e.m.Usage() }

// Events returns the number of DES events fired so far.
func (e *Engine) Events() uint64 { return e.sim.Fired() }

// Sample returns the full live-state snapshot observers receive,
// including the per-pool and per-rack breakdowns the labeled /metrics
// gauges read.
func (e *Engine) Sample() Sample {
	s := Sample{
		Now:        e.Now(),
		QueueDepth: len(e.queue),
		Running:    len(e.running),
		Done:       e.terminated,
		Events:     e.sim.Fired(),
		Usage:      e.m.Usage(),
	}
	if pools := e.m.Pools(); len(pools) > 0 {
		s.Pools = make([]metrics.PoolPoint, len(pools))
		for i, pl := range pools {
			s.Pools[i] = metrics.PoolPoint{
				ID:          int(pl.ID),
				UsedMiB:     pl.UsedMiB,
				CapacityMiB: pl.CapacityMiB,
				DemandGiBps: pl.DemandGiBps,
			}
		}
	}
	racks := e.m.Config().Racks
	s.RackFree = make([]int, racks)
	for r := 0; r < racks; r++ {
		s.RackFree[r] = e.m.RackFreeNodes(r)
	}
	return s
}

// Finish closes the metrics integration interval and builds the result.
// After a complete run it errors if any feasible job failed to
// terminate (a scheduler bug); after Stop it reports the prefix.
// Idempotent: repeated calls return the same result.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return e.result, nil
	}
	if !e.started {
		return nil, fmt.Errorf("sim: engine not started")
	}
	if e.srcErr != nil {
		// Flush what the drained in-flight work streamed before
		// surfacing the source failure.
		return nil, e.fail(fmt.Errorf("sim: workload source failed: %w", e.srcErr))
	}
	if !e.sim.Stopped() && !e.srcDone {
		// The event queue drained while the source still had arrivals
		// to deliver: an engine wiring bug (e.g. a restored checkpoint
		// that lost its pending-arrival event), never a legal end state
		// — refuse to report a silently truncated run (see Done).
		return nil, e.fail(fmt.Errorf("sim: event queue drained at t=%d with undelivered source arrivals (engine wiring bug)", e.Now()))
	}
	if !e.sim.Stopped() && (len(e.queue) != 0 || len(e.running) != 0) {
		return nil, e.fail(fmt.Errorf("sim: %d queued and %d running jobs never terminated (scheduler %q)",
			len(e.queue), len(e.running), e.cfg.Scheduler.Name()))
	}
	// Close the last integration interval. Normalize against the
	// machine's current config, which scenario growth or uniform pool
	// resizes may have changed since construction (identical to
	// cfg.Machine otherwise).
	e.rec.Observe(e.lastEventTime(), e.m.Usage())
	report := e.rec.Report(e.m.Config())
	report.NodeFailures = e.failures
	report.FailureKills = e.failKills
	if err := e.close(); err != nil {
		return nil, err
	}
	e.finished = true
	e.result = &Result{
		Report:         report,
		Recorder:       e.rec,
		Events:         e.sim.Fired(),
		Stopped:        e.sim.Stopped(),
		ScenarioEvents: e.scenApplied,
	}
	return e.result, nil
}

func (e *Engine) lastEventTime() int64 { return int64(e.sim.Now()) }

// close is the engine's one close latch: the first call, on whichever
// terminal path the run takes first, closes every output; later calls
// close nothing and return the same error.
func (e *Engine) close() error {
	if !e.closed {
		e.closed = true
		e.closeErr = e.cfg.Outputs.Close()
	}
	return e.closeErr
}

// fail ends the run on err: the outputs are closed (and so flushed)
// before err is returned, and a close error is secondary to err.
func (e *Engine) fail(err error) error {
	_ = e.close()
	return err
}

// sampling reports whether the engine runs the periodic sampling tick
// chain: a period is configured and an attached output consumes
// samples.
func (e *Engine) sampling() bool {
	return e.cfg.SampleEvery > 0 && e.cfg.Outputs.samples()
}

// scheduleNextSample arms the next periodic sampling tick one period
// ahead. The chain stops with the last outstanding job (record
// cancels it) so trailing ticks cannot stretch the metrics integration
// window.
func (e *Engine) scheduleNextSample() {
	e.scheduleSampleAt(e.sim.Now() + des.Time(e.cfg.SampleEvery))
}

// scheduleSampleAt arms one sampling tick at an explicit instant; the
// handler it installs is exactly what Resume rebuilds for a restored
// evSample record, so a resumed run's tick chain continues the
// checkpointed one bit-identically.
func (e *Engine) scheduleSampleAt(at des.Time) {
	e.sampleEv = e.sim.ScheduleKind(at, evSample, nil, e.hSample)
}

// onSampleEvent fires one periodic sampling tick: deliver the sample to
// the output list, then re-arm. It reads the list at fire time (the
// event carries no consumer), which is what lets Resume rebuild it
// from the bare evSample kind tag.
func (e *Engine) onSampleEvent(des.Time, any) {
	e.sampleEv = nil
	s := e.Sample()
	for _, o := range e.outs {
		o.sample(s)
	}
	e.scheduleNextSample()
}

func (e *Engine) onArrival(now int64, job *workload.Job) {
	e.rec.OnSubmit(now)
	for _, o := range e.outs {
		o.submit(now, job)
	}
	if !e.cfg.Scheduler.Feasible(job, e.m, e.cfg.Model) {
		e.record(now, metrics.JobRecord{
			ID: job.ID, User: job.User, Nodes: job.Nodes, Submit: job.Submit,
			Estimate: job.Estimate, BaseRuntime: job.BaseRuntime,
			MemPerNode: job.MemPerNode, Dilation: 1, Rejected: true,
		}, false)
		return
	}
	e.queue = append(e.queue, job)
	e.requestPass()
}

// requestPass coalesces all triggers at one instant into a single
// scheduling pass.
func (e *Engine) requestPass() {
	if e.passQueue {
		return
	}
	e.passQueue = true
	e.sim.ScheduleKind(e.sim.Now(), evPass, nil, e.hPass)
}

// onPassEvent fires the coalesced scheduling pass.
func (e *Engine) onPassEvent(now des.Time, _ any) {
	e.passQueue = false
	e.pass(int64(now))
}

func (e *Engine) pass(now int64) {
	dispatched := e.dispatchPass(now)
	for _, o := range e.outs {
		o.passEnd(now, dispatched, len(e.queue))
	}
}

// dispatchPass runs one scheduling cycle and returns how many jobs it
// started. The pass context is engine scratch; its Queue is the live
// queue and its Running and ByEnd are the engine's running views, all
// read-only to the scheduler and valid only for the duration of the
// pass.
func (e *Engine) dispatchPass(now int64) int {
	if len(e.queue) == 0 {
		return 0
	}
	ctx := &e.passCtx
	ctx.Reset()
	ctx.Now = now
	ctx.Machine = e.m
	ctx.Model = e.cfg.Model
	ctx.Queue = e.queue
	ctx.Running = e.byID
	ctx.ExtendLimit = e.cfg.ExtendLimit
	ctx.CheckInvariants = e.cfg.CheckInvariants
	e.rec.Observe(now, e.m.Usage()) // close interval at pre-dispatch usage
	dispatches := e.cfg.Scheduler.Pass(ctx)
	if e.cfg.CheckInvariants {
		e.checkRunningViews()
	}
	if len(dispatches) == 0 {
		return 0
	}
	ids := e.startedIDs[:0]
	for _, d := range dispatches {
		ids = append(ids, d.Job.ID)
		e.start(now, d)
	}
	slices.Sort(ids)
	e.startedIDs = ids
	// Remove started jobs from the pending queue, preserving order.
	kept := e.queue[:0]
	for _, j := range e.queue {
		if _, started := slices.BinarySearch(ids, j.ID); !started {
			kept = append(kept, j)
		}
	}
	e.queue = kept
	e.afterChange(now)
	return len(dispatches)
}

// endView backs sched.Context.ByEnd: the running set in
// (GuaranteedEnd, ID) order, engine-owned and read-only.
func (e *Engine) endView() []sched.RunningJob { return e.byEnd }

// byJobID orders the ID view; byEndThenID orders the end view;
// remoteByID searches the remote view by job ID.
func byJobID(a, b sched.RunningJob) int { return cmp.Compare(a.Job.ID, b.Job.ID) }

func remoteByID(rs *runningState, id int) int { return cmp.Compare(rs.job.ID, id) }

func byEndThenID(a, b sched.RunningJob) int {
	return cmp.Or(cmp.Compare(a.GuaranteedEnd(), b.GuaranteedEnd()), byJobID(a, b))
}

// checkRunningViews verifies the running views against the running
// set: the ID and end views hold the same jobs and entries, each in its
// order, and the remote view holds the same *runningState values, in
// the same order, as the ID view's pool-holding entries. It runs under
// Config.CheckInvariants after every pass and state change, so a
// scheduler that mutates ctx.Running, or a missed insert or remove,
// panics like a machine invariant violation.
func (e *Engine) checkRunningViews() {
	if len(e.byID) != len(e.running) || len(e.byEnd) != len(e.running) {
		panic(fmt.Sprintf("sim: running views hold %d and %d jobs, running set %d",
			len(e.byID), len(e.byEnd), len(e.running)))
	}
	for _, v := range []struct {
		name  string
		jobs  []sched.RunningJob
		order func(a, b sched.RunningJob) int
	}{{"ID", e.byID, byJobID}, {"end", e.byEnd, byEndThenID}} {
		for i, r := range v.jobs {
			rs, ok := e.running[r.Job.ID]
			if !ok || r != e.runningJob(rs) {
				panic(fmt.Sprintf("sim: %s view entry %d (job %d) does not match the running set", v.name, i, r.Job.ID))
			}
			if i > 0 && v.order(v.jobs[i-1], r) >= 0 {
				panic(fmt.Sprintf("sim: %s view out of order at entry %d (job %d after job %d)", v.name, i, r.Job.ID, v.jobs[i-1].Job.ID))
			}
		}
	}
	if want := e.holdingPool(); !slices.Equal(e.remote, want) {
		panic(fmt.Sprintf("sim: remote view lists jobs %v, the ID view's pool holders are %v", stateIDs(e.remote), stateIDs(want)))
	}
}

// holdingPool lists the running jobs that hold pool memory in the ID
// view's order, at exact capacity (nil when none does): the remote view
// derived from the ID view.
func (e *Engine) holdingPool() []*runningState {
	n := 0
	for i := range e.byID {
		if e.byID[i].Alloc.RemoteMiB() > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	view := make([]*runningState, 0, n)
	for i := range e.byID {
		if e.byID[i].Alloc.RemoteMiB() > 0 {
			view = append(view, e.running[e.byID[i].Job.ID])
		}
	}
	return view
}

// stateIDs lists the job IDs of running states, in order.
func stateIDs(view []*runningState) []int {
	ids := make([]int, len(view))
	for i, rs := range view {
		ids[i] = rs.job.ID
	}
	return ids
}

// runningJob is rs as the scheduler sees it.
func (e *Engine) runningJob(rs *runningState) sched.RunningJob {
	return sched.RunningJob{Job: rs.job, Start: rs.start, Limit: rs.limit, Alloc: rs.alloc}
}

// newRunningState pops a zeroed runningState from the free list (or
// allocates the list's first tenants).
func (e *Engine) newRunningState() *runningState {
	if n := len(e.rsPool); n > 0 {
		rs := e.rsPool[n-1]
		e.rsPool[n-1] = nil
		e.rsPool = e.rsPool[:n-1]
		return rs
	}
	return new(runningState)
}

// freeRunningState zeroes a terminated job's state (dropping its job,
// allocation and end-payload references) and returns it to the free
// list. The caller must already have removed it from e.running.
func (e *Engine) freeRunningState(rs *runningState) {
	*rs = runningState{}
	e.rsPool = append(e.rsPool, rs)
}

// insertRunning adds rs to the running views (the remote view only if
// it holds pool memory): O(log running) search plus one slice shift
// each.
func (e *Engine) insertRunning(rs *runningState) {
	r := e.runningJob(rs)
	i, _ := slices.BinarySearchFunc(e.byID, r, byJobID)
	e.byID = slices.Insert(e.byID, i, r)
	j, _ := slices.BinarySearchFunc(e.byEnd, r, byEndThenID)
	e.byEnd = slices.Insert(e.byEnd, j, r)
	if rs.alloc.RemoteMiB() > 0 {
		k, _ := slices.BinarySearchFunc(e.remote, rs.job.ID, remoteByID)
		e.remote = slices.Insert(e.remote, k, rs)
	}
}

// removeRunning drops rs from the running views.
func (e *Engine) removeRunning(rs *runningState) {
	id := rs.job.ID
	i, ok := slices.BinarySearchFunc(e.byID, id, func(r sched.RunningJob, id int) int { return cmp.Compare(r.Job.ID, id) })
	if !ok {
		panic(fmt.Sprintf("sim: job %d missing from the ID view", id))
	}
	j, ok := slices.BinarySearchFunc(e.byEnd, e.byID[i], byEndThenID)
	if !ok {
		panic(fmt.Sprintf("sim: job %d missing from the end view", id))
	}
	e.byID = slices.Delete(e.byID, i, i+1)
	e.byEnd = slices.Delete(e.byEnd, j, j+1)
	if rs.alloc.RemoteMiB() > 0 {
		k, ok := slices.BinarySearchFunc(e.remote, id, remoteByID)
		if !ok {
			panic(fmt.Sprintf("sim: job %d missing from the remote view", id))
		}
		e.remote = slices.Delete(e.remote, k, k+1)
	}
}

// start registers a dispatched job (its allocation is already committed
// by the scheduler) and schedules its end event.
func (e *Engine) start(now int64, d sched.Dispatch) {
	job := d.Job
	// Post-commit dilation: pool congestion now includes this job.
	dil := e.currentDilation(d.Plan.Alloc)
	rs := e.newRunningState()
	*rs = runningState{
		job:        job,
		alloc:      d.Plan.Alloc,
		start:      now,
		limit:      sched.Limit(job, dil, e.cfg.ExtendLimit),
		dilAtStart: dil,
		workLeft:   float64(job.BaseRuntime),
		rate:       1 / dil,
		lastUpdate: now,
	}
	e.running[job.ID] = rs
	e.insertRunning(rs)
	e.scheduleEnd(rs)
	for _, o := range e.outs {
		o.dispatch(now, job, rs.alloc, dil)
	}
}

// currentDilation evaluates the model against the committed allocation
// under present congestion (worst pool the job touches), then applies
// the scenario's remote-penalty scale. Schedulers keep planning with
// the nominal model: the predictor does not know about a brownout,
// only the physics does.
func (e *Engine) currentDilation(a *cluster.Allocation) float64 {
	if e.cfg.Model == nil || a.RemoteMiB() == 0 {
		return 1
	}
	worst := 0.0
	for _, pid := range a.TouchedPools() {
		if p, ok := e.m.Pool(pid); ok {
			if c := p.Congestion(); c > worst {
				worst = c
			}
		}
	}
	return e.scaledDilation(e.cfg.Model.Dilation(a.RemoteFraction(), worst))
}

// scheduleEnd (re)schedules the job's termination: completion when its
// remaining work drains at the current rate, or the kill limit,
// whichever is earlier. A pending end event is moved in place
// (des.Simulator.Reschedule), which fires exactly where cancelling it
// and scheduling a new one would.
func (e *Engine) scheduleEnd(rs *runningState) {
	now := rs.lastUpdate
	deadline := rs.start + rs.limit
	// The finish is now + ⌊left⌋. It is compared with the deadline as a
	// float before the conversion, so a finish too far out for an int64
	// (or a NaN from a degenerate rate) becomes a kill at the deadline.
	at, killed := deadline, true
	if left := rs.workLeft/rs.rate + 0.999999; left < float64(deadline-now+1) {
		at, killed = now+int64(left), false
	}
	if at < now {
		at = now
	}
	id := rs.job.ID
	var payload *endPayload
	if killed {
		if rs.endKill == nil {
			rs.endKill = e.newEndPayload(id, true)
		}
		payload = rs.endKill
	} else {
		if rs.endLive == nil {
			rs.endLive = e.newEndPayload(id, false)
		}
		payload = rs.endLive
	}
	if rs.endEv != nil {
		e.sim.Reschedule(rs.endEv, des.Time(at), payload)
		return
	}
	rs.endEv = e.sim.ScheduleKind(des.Time(at), evEnd, payload, e.hEnd)
}

// newEndPayload carves one end payload from the engine's chunk. A
// pointer in an interface does not allocate, so scheduling an end event
// costs one chunk slot instead of a boxed value per started job.
func (e *Engine) newEndPayload(id int, killed bool) *endPayload {
	if len(e.ends) == cap(e.ends) {
		e.ends = make([]endPayload, 0, endPayloadChunk)
	}
	e.ends = append(e.ends, endPayload{ID: id, Killed: killed})
	return &e.ends[len(e.ends)-1]
}

// onEndEvent fires one job's scheduled termination.
func (e *Engine) onEndEvent(now des.Time, data any) {
	p := data.(*endPayload)
	e.terminate(int64(now), p.ID, p.Killed, false)
}

// terminate ends a running job: normal completion, kill at the walltime
// limit, or kill by node failure.
func (e *Engine) terminate(now int64, jobID int, killed, byFailure bool) {
	rs, ok := e.running[jobID]
	if !ok {
		panic(fmt.Sprintf("sim: end event for unknown job %d", jobID))
	}
	if rs.endEv != nil {
		e.sim.Cancel(rs.endEv)
		rs.endEv = nil
	}
	e.rec.Observe(now, e.m.Usage())
	if err := e.m.Release(jobID); err != nil {
		panic(fmt.Sprintf("sim: releasing job %d: %v", jobID, err))
	}
	e.removeRunning(rs)
	delete(e.running, jobID)
	job := rs.job
	failed := false
	if byFailure {
		e.failKills++
		e.restarts[job.ID]++
		if e.restarts[job.ID] < e.maxRestarts() {
			// The site resubmits the job: it re-enters the queue and
			// restarts from scratch. Only its final outcome produces
			// a job record.
			for _, o := range e.outs {
				o.restart(now, job, rs.start, e.restarts[job.ID])
			}
			e.queue = append(e.queue, job)
			e.m.Recycle(rs.alloc)
			e.freeRunningState(rs)
			e.afterChange(now)
			e.requestPass()
			return
		}
		// Resubmission budget exhausted: give up on the job; it is
		// recorded below as killed.
		killed = true
		failed = true
	}
	e.record(now, metrics.JobRecord{
		ID: job.ID, User: job.User, Nodes: job.Nodes, Submit: job.Submit,
		Start: rs.start, End: now,
		Estimate: job.Estimate, Limit: rs.limit,
		BaseRuntime: job.BaseRuntime, MemPerNode: job.MemPerNode,
		RemoteMiB: rs.alloc.RemoteMiB(), RemoteFrac: rs.alloc.RemoteFraction(),
		Dilation: rs.dilAtStart, Killed: killed,
		Restarts: e.restarts[job.ID],
	}, failed)
	// The released allocation's last read was the record above; return
	// it to the machine's free list (no-op unless it came from
	// AllocateCopy).
	e.m.Recycle(rs.alloc)
	e.freeRunningState(rs)
	e.afterChange(now)
	e.requestPass()
}

// record ends one job's life, rejected at arrival or terminated: the
// recorder keeps rec, every output sees it, and the job stops counting
// as outstanding. Once everything has terminated (and the source has no
// more arrivals to deliver) the failure and sampling processes stop so
// the event queue can drain.
func (e *Engine) record(now int64, rec metrics.JobRecord, failed bool) {
	e.rec.Add(rec)
	for _, o := range e.outs {
		o.terminate(now, rec, failed)
	}
	e.jobsLeft--
	e.terminated++
	if e.Outstanding() {
		return
	}
	if e.failEv != nil {
		e.sim.Cancel(e.failEv)
		e.failEv = nil
	}
	if e.sampleEv != nil {
		e.sim.Cancel(e.sampleEv)
		e.sampleEv = nil
	}
	// Pending interventions can no longer affect any job; cancel them
	// so the event queue drains at the true end of the run (Cancel is a
	// no-op for the ones that already fired).
	for _, ev := range e.scenEvs {
		e.sim.Cancel(ev)
	}
	e.scenEvs = nil
}

// scheduleNextFailure arms the next machine-wide failure: N nodes with
// per-node MTBF M fail as a Poisson process of rate N/M. The node count
// is read from the live machine, so a scenario-grown machine fails
// proportionally more often from the next arming on.
func (e *Engine) scheduleNextFailure() {
	mean := float64(e.cfg.Failures.MTBFPerNodeSec) / float64(e.m.Config().TotalNodes())
	delta := int64(e.failRNG.ExpFloat64()*mean) + 1
	e.failEv = e.sim.ScheduleKind(e.sim.Now()+des.Time(delta), evFailure, nil, e.hFailure)
}

// onFailureEvent fires the next random failure.
func (e *Engine) onFailureEvent(now des.Time, _ any) { e.onFailure(int64(now)) }

// onFailure fails one uniformly random up node, killing its occupant,
// and schedules the repair.
func (e *Engine) onFailure(now int64) {
	e.failEv = nil
	if !e.Outstanding() {
		return
	}
	defer e.scheduleNextFailure()

	// Pick a uniformly random up node (candidate list is engine scratch).
	up := e.upScratch[:0]
	for _, n := range e.m.Nodes() {
		if !n.Down {
			up = append(up, n.ID)
		}
	}
	e.upScratch = up
	if len(up) == 0 {
		return // whole machine down; only repairs can help
	}
	victim := up[e.failRNG.Intn(len(up))]
	e.failures++
	if busy := e.m.Nodes()[victim].Busy; busy != 0 {
		e.terminate(now, busy, true, true)
	}
	if err := e.m.SetDown(victim); err != nil {
		panic(fmt.Sprintf("sim: failing node %d: %v", victim, err))
	}
	e.sim.ScheduleKind(e.sim.Now()+des.Time(e.cfg.Failures.RepairSec), evRepair, victim, e.hRepair)
	if e.cfg.CheckInvariants {
		if err := e.m.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
	}
}

// onRepairEvent returns a failure-downed node to service.
func (e *Engine) onRepairEvent(_ des.Time, data any) { e.onRepair(data.(cluster.NodeID)) }

// onRepair ends one node's repair window. A scenario "up" may have
// repaired the node already; only a still-down node needs (and
// tolerates) the SetUp. A node a scenario outage holds down stays down
// until its "up" event — planned outages outrank the failure repair
// process.
func (e *Engine) onRepair(victim cluster.NodeID) {
	if e.m.Nodes()[victim].Down && !e.scenarioDown[victim] {
		if err := e.m.SetUp(victim); err != nil {
			panic(fmt.Sprintf("sim: repairing node %d: %v", victim, err))
		}
	}
	e.requestPass()
}

// afterChange re-dilates running jobs under contention-sensitive models
// and optionally validates machine invariants and the running views.
func (e *Engine) afterChange(now int64) {
	if e.cfg.CheckInvariants {
		if err := e.m.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("sim: %v", err))
		}
		e.checkRunningViews()
	}
	if !e.reDilate {
		return
	}
	e.redilateRunning(now)
}

// redilateRunning integrates every remote job's progress at its old
// rate, then switches it to the rate current congestion (and the
// scenario's penalty scale) dictates. Called from afterChange under
// contention-sensitive models, and unconditionally after a scenario
// beta shift — which changes rates even under models whose dilation is
// otherwise fixed at dispatch.
func (e *Engine) redilateRunning(now int64) {
	// Only jobs holding pool memory can change rate, and the remote
	// view holds exactly those in the deterministic order: ascending
	// job ID (same-instant DES events fire in scheduling order, so the
	// order end events are rescheduled in is behavior-relevant).
	e.redilated += len(e.remote)
	for _, rs := range e.remote {
		// Integrate progress at the old rate, then switch rates.
		elapsed := float64(now - rs.lastUpdate)
		rs.workLeft -= elapsed * rs.rate
		if rs.workLeft < 0 {
			rs.workLeft = 0
		}
		rs.lastUpdate = now
		newDil := e.currentDilation(rs.alloc)
		rs.rate = 1 / newDil
		e.scheduleEnd(rs)
	}
}

// Run is a convenience: build an engine from cfg and simulate w.
func Run(cfg Config, w *workload.Workload) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(w)
}
