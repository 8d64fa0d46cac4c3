package sim

import (
	"fmt"

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

// This file implements checkpoint/fork of a live engine. A Checkpoint
// is a passive deep snapshot taken between events: machine, recorder,
// queue, running set, source cursor, failure RNG and the DES queue as
// event records (des.Snapshot — the closures themselves are never
// copied; Resume rebuilds them from their kind tags). Resume clones
// the snapshot again into a fresh engine, so one checkpoint can seed
// any number of divergent futures. A future resumed with no overrides
// is bit-identical to running the original on: same events in the same
// order, same report, same records (DESIGN.md §8).

// Checkpoint is a frozen engine state. It is immutable once taken:
// Resume deep-copies everything it hands to the new engine, and the
// checkpointed source cursor is forked, never advanced.
type Checkpoint struct {
	cfg Config // Outputs cleared: they are live callbacks and writers

	now    int64
	fired  uint64
	events []des.EventRecord

	machine *cluster.Machine
	rec     *metrics.Recorder

	queue   []*workload.Job
	running map[int]runningSnap
	// runIDs and endOrder are the job IDs of the engine's two running
	// views (ascending ID; ascending guaranteed end, then ID).
	runIDs   []int
	endOrder []int

	src         source.Source // frozen fork of the live cursor; nil when exhausted
	srcDone     bool
	srcErr      error
	lastArrival int64

	failRNG    *stats.RNG
	terminated int
	jobsLeft   int
	failures   int
	failKills  int
	restarts   map[int]int

	dilScale     float64
	scenApplied  int
	scenarioDown map[cluster.NodeID]bool
}

// runningSnap is the serializable share of one runningState; the
// allocation is recovered from the cloned machine and the end event
// from the DES records.
type runningSnap struct {
	job          *workload.Job
	start, limit int64
	dilAtStart   float64
	workLeft     float64
	rate         float64
	lastUpdate   int64
}

// Now returns the virtual time the checkpoint was taken at.
func (cp *Checkpoint) Now() int64 { return cp.now }

// Checkpoint captures the engine's complete state at the current event
// boundary. The engine must be started, not finished and not stopped;
// with a streaming source, the source must implement source.Forkable
// (SWF streams do not — materialise the trace to checkpoint it).
// Checkpointing does not disturb the engine: it can keep running, and
// its future is unaffected by any forks taken from the checkpoint.
//
// The pending periodic sampling tick IS captured (it is an ordinary
// tagged event; only the Outputs are live and cleared). A future
// resumed with its own Observer or SeriesSink therefore continues the
// checkpointed tick chain in phase: its sample instants, and their
// order relative to same-instant events, are identical to the
// uninterrupted run's (DESIGN.md §11).
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if !e.started {
		return nil, fmt.Errorf("sim: checkpoint of an unstarted engine")
	}
	if e.finished {
		return nil, fmt.Errorf("sim: checkpoint of a finished engine")
	}
	if e.sim.Stopped() {
		return nil, fmt.Errorf("sim: checkpoint of a stopped engine")
	}
	var src source.Source
	if !e.srcDone {
		f, ok := e.src.(source.Forkable)
		if !ok {
			return nil, fmt.Errorf("sim: source %T does not support forking (see source.Forkable)", e.src)
		}
		if src = f.Fork(); src == nil {
			return nil, fmt.Errorf("sim: source %T declined to fork", e.src)
		}
	}
	events, err := e.sim.Snapshot()
	if err != nil {
		return nil, err
	}

	cp := &Checkpoint{
		cfg:          e.cfg,
		now:          int64(e.sim.Now()),
		fired:        e.sim.Fired(),
		events:       events,
		machine:      e.m.Clone(),
		rec:          e.rec.Clone(),
		queue:        append([]*workload.Job(nil), e.queue...),
		running:      make(map[int]runningSnap, len(e.running)),
		runIDs:       viewIDs(e.byID),
		endOrder:     viewIDs(e.byEnd),
		src:          src,
		srcDone:      e.srcDone,
		srcErr:       e.srcErr,
		lastArrival:  e.lastArrival,
		terminated:   e.terminated,
		jobsLeft:     e.jobsLeft,
		failures:     e.failures,
		failKills:    e.failKills,
		restarts:     make(map[int]int, len(e.restarts)),
		dilScale:     e.dilScale,
		scenApplied:  e.scenApplied,
		scenarioDown: make(map[cluster.NodeID]bool, len(e.scenarioDown)),
	}
	cp.cfg.Outputs = Outputs{}
	if e.failRNG != nil {
		cp.failRNG = e.failRNG.Clone()
	}
	for id, rs := range e.running {
		cp.running[id] = runningSnap{
			job: rs.job, start: rs.start, limit: rs.limit,
			dilAtStart: rs.dilAtStart, workLeft: rs.workLeft,
			rate: rs.rate, lastUpdate: rs.lastUpdate,
		}
	}
	for id, n := range e.restarts {
		cp.restarts[id] = n
	}
	for id, held := range e.scenarioDown {
		cp.scenarioDown[id] = held
	}
	return cp, nil
}

// Overrides adjusts a resumed future relative to the checkpointed run.
// The zero value resumes the identical future: bit-identical to the
// original run from the checkpoint on.
type Overrides struct {
	// Scheduler replaces the scheduler for the future (nil reuses the
	// checkpointed instance — fine for sequential use, but concurrent
	// forks should each get a fresh scheduler, since schedulers carry
	// internal caches).
	Scheduler sched.Scheduler
	// Scenario replaces the REMAINING intervention timeline: pending
	// interventions from the checkpointed scenario are discarded and
	// the new scenario's events are scheduled instead (events dated
	// before the checkpoint are skipped — this timeline's past already
	// happened). Pass an empty scenario to cancel all pending
	// interventions; nil keeps the checkpointed timeline. The
	// replacement must not carry arrival modulation: the arrival
	// process was warped before the run started and cannot be rewarped
	// mid-flight.
	Scenario *scenario.Scenario
	// ReseedFailures redraws the future failure stream from
	// FailureSeed: the pending next-failure event is discarded and
	// re-armed from the new stream (repairs of already-failed nodes
	// still complete on schedule). Requires failure injection to have
	// been configured.
	ReseedFailures bool
	FailureSeed    uint64
	// SampleEvery overrides the sampling period in simulated seconds
	// (0 keeps the checkpointed period). When the checkpointed run was
	// sampling, the restored tick chain continues in phase: the
	// future's sample instants are identical to the uninterrupted
	// run's. A checkpoint taken without sampling, or a different
	// period, starts a fresh chain at the resume instant.
	SampleEvery int64
	// Outputs are the future's own; the parent's never carry over.
	Outputs
}

// Resume builds a fresh engine from a checkpoint, applying the
// overrides. The checkpoint is not consumed: resume from it as many
// times as needed, including concurrently (each future gets fully
// independent state; see Overrides.Scheduler for the one shared piece).
func Resume(cp *Checkpoint, o Overrides) (*Engine, error) {
	cfg := cp.cfg
	if o.Scheduler != nil {
		cfg.Scheduler = o.Scheduler
	}
	replaceScenario := o.Scenario != nil
	if replaceScenario {
		if err := o.Scenario.Validate(); err != nil {
			return nil, err
		}
		if o.Scenario.Modulates() {
			return nil, fmt.Errorf("sim: fork scenario must not modulate arrivals (the arrival process is warped before the run starts)")
		}
		cfg.Scenario = o.Scenario
	}
	if o.ReseedFailures && cfg.Failures == nil {
		return nil, fmt.Errorf("sim: cannot reseed failures: checkpointed run has no failure injection")
	}
	cfg.Outputs = o.Outputs
	// A changed sampling period cannot continue the checkpointed tick
	// chain: the restored tick (scheduled one old period after the last
	// fire) is dropped and a fresh chain starts at the resume instant.
	periodChanged := o.SampleEvery > 0 && o.SampleEvery != cp.cfg.SampleEvery
	if o.SampleEvery > 0 {
		cfg.SampleEvery = o.SampleEvery
	}

	e := &Engine{
		cfg:          cfg,
		m:            cp.machine.Clone(),
		rec:          cp.rec.Clone(),
		started:      true,
		srcDone:      cp.srcDone,
		srcErr:       cp.srcErr,
		lastArrival:  cp.lastArrival,
		queue:        append([]*workload.Job(nil), cp.queue...),
		running:      make(map[int]*runningState, len(cp.running)),
		reDilate:     memmodel.ContentionSensitive(cfg.Model),
		terminated:   cp.terminated,
		jobsLeft:     cp.jobsLeft,
		failures:     cp.failures,
		failKills:    cp.failKills,
		restarts:     make(map[int]int, len(cp.restarts)),
		dilScale:     cp.dilScale,
		scenApplied:  cp.scenApplied,
		scenarioDown: make(map[cluster.NodeID]bool, len(cp.scenarioDown)),
	}
	e.attach()
	e.bindHandlers()
	if cfg.Scenario != nil {
		// scenEvs is indexed by intervention index (the evScenario
		// payload); slots are filled from the restored records or the
		// replacement timeline below.
		e.scenEvs = make([]*des.Event, len(cfg.Scenario.Events))
	}
	for id, n := range cp.restarts {
		e.restarts[id] = n
	}
	for id, held := range cp.scenarioDown {
		e.scenarioDown[id] = held
	}
	if cp.failRNG != nil {
		e.failRNG = cp.failRNG.Clone()
	}
	if cp.src != nil {
		f, ok := cp.src.(source.Forkable)
		if !ok {
			return nil, fmt.Errorf("sim: checkpointed source %T lost forkability", cp.src)
		}
		if e.src = f.Fork(); e.src == nil {
			return nil, fmt.Errorf("sim: checkpointed source %T declined to fork", cp.src)
		}
	} else {
		e.src = source.FromJobs(nil)
	}
	for id, rs := range cp.running {
		alloc, ok := e.m.AllocationOf(id)
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint running job %d has no allocation on the cloned machine", id)
		}
		e.running[id] = &runningState{
			job: rs.job, alloc: alloc, start: rs.start, limit: rs.limit,
			dilAtStart: rs.dilAtStart, workLeft: rs.workLeft,
			rate: rs.rate, lastUpdate: rs.lastUpdate,
		}
	}
	var err error
	if e.byID, err = e.runningView("ID", cp.runIDs, byJobID); err != nil {
		return nil, err
	}
	if e.byEnd, err = e.runningView("end", cp.endOrder, byEndThenID); err != nil {
		return nil, err
	}
	e.remote = e.holdingPool()

	// Rebuild the DES queue from the records: each kind maps back to
	// the engine's per-family handler — the record's payload travels in
	// des.Event.Data, exactly as a live-scheduled event's would. Records
	// an override invalidates are dropped here (nil handler); a kind
	// this switch does not know is a maintenance bug (a new event family
	// without a Resume arm) and must fail the restore, not silently
	// drop the event and break the bit-identical contract.
	var rebuildErr error
	sim2, evs, err := des.Restore(des.Time(cp.now), cp.fired, cp.events, func(r des.EventRecord) des.Handler {
		switch r.Kind {
		case evArrival:
			return e.hArrival
		case evPass:
			return e.hPass
		case evEnd:
			return e.hEnd
		case evFailure:
			if o.ReseedFailures {
				return nil // re-armed below from the new stream
			}
			return e.hFailure
		case evRepair:
			return e.hRepair
		case evScenario:
			if replaceScenario {
				return nil // the new timeline is scheduled below
			}
			return e.hScenario
		case evSample:
			if !e.sampling() || periodChanged {
				return nil // no consumer, or a fresh chain is armed below
			}
			return e.hSample
		default:
			rebuildErr = fmt.Errorf("sim: checkpoint holds event of unknown kind %d (Resume not updated for a new event family?)", r.Kind)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	if rebuildErr != nil {
		return nil, rebuildErr
	}
	e.sim = sim2

	// Rewire the event handles the engine tracks.
	for i, r := range cp.events {
		ev := evs[i]
		if ev == nil {
			continue
		}
		switch r.Kind {
		case evEnd:
			p := r.Data.(*endPayload)
			rs, ok := e.running[p.ID]
			if !ok {
				return nil, fmt.Errorf("sim: checkpoint end event for job %d not in running set", p.ID)
			}
			rs.endEv = ev
		case evFailure:
			e.failEv = ev
		case evScenario:
			e.scenEvs[r.Data.(int)] = ev
		case evPass:
			e.passQueue = true
		case evSample:
			e.sampleEv = ev
		}
	}
	for id, rs := range e.running {
		if rs.endEv == nil {
			return nil, fmt.Errorf("sim: checkpoint running job %d has no end event", id)
		}
	}

	if e.Outstanding() {
		// Post-restore arming, in a fixed order for determinism: the
		// replacement scenario's future events, a reseeded failure
		// stream, then fresh sampling ticks.
		if replaceScenario {
			for i := range cfg.Scenario.Events {
				ev := cfg.Scenario.Events[i]
				if ev.At < cp.now {
					continue // this timeline's past already happened
				}
				e.scenEvs[i] = e.sim.ScheduleKind(des.Time(ev.At), evScenario, i, e.hScenario)
			}
		}
		if o.ReseedFailures {
			e.failRNG = stats.NewRNG(o.FailureSeed)
			e.scheduleNextFailure()
		}
		if e.sampling() && e.sampleEv == nil {
			// The checkpointed run was not sampling (or the period
			// changed): start a fresh tick chain at the resume instant.
			// A restored tick takes precedence — it keeps the resumed
			// run's sample instants identical to the uninterrupted
			// run's.
			e.scheduleNextSample()
		}
	}
	return e, nil
}

// viewIDs lists the job IDs of a running view, in its order (nil when
// nothing runs).
func viewIDs(view []sched.RunningJob) []int {
	if len(view) == 0 {
		return nil
	}
	ids := make([]int, len(view))
	for i := range view {
		ids[i] = view[i].Job.ID
	}
	return ids
}

// runningView rebuilds one running view, at exact capacity, from its
// checkpointed job IDs. The IDs must name every running job once, in
// the view's order.
func (e *Engine) runningView(name string, ids []int, order func(a, b sched.RunningJob) int) ([]sched.RunningJob, error) {
	if len(ids) != len(e.running) {
		return nil, fmt.Errorf("sim: checkpoint %s order lists %d jobs, running set %d", name, len(ids), len(e.running))
	}
	if len(ids) == 0 {
		return nil, nil
	}
	view := make([]sched.RunningJob, len(ids))
	for i, id := range ids {
		rs, ok := e.running[id]
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint %s order names job %d, which is not running", name, id)
		}
		view[i] = e.runningJob(rs)
		if i > 0 && order(view[i-1], view[i]) >= 0 {
			return nil, fmt.Errorf("sim: checkpoint %s order is not sorted at job %d", name, id)
		}
	}
	return view, nil
}
