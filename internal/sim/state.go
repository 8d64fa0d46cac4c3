package sim

import (
	"errors"
	"fmt"
	"sort"

	"dismem/internal/cluster"
	"dismem/internal/des"
	"dismem/internal/metrics"
	"dismem/internal/source"
	"dismem/internal/stats"
	"dismem/internal/workload"
)

// This file flattens a Checkpoint (checkpoint.go — the passive in-memory
// snapshot behind Fork) into CheckpointState, a plain serializable
// struct, and rebuilds it. The state form carries everything except the
// run configuration: schedulers, memory models and scenarios are code,
// so the layer that persists a checkpoint (package dismem) stores their
// spec strings and hands the rebuilt Config to CheckpointFromState.
//
// The contract matches in-memory forking: Resume of a restored
// checkpoint replays the identical future, bit for bit. Every numeric
// field round-trips exactly (encoding/json emits shortest-round-trip
// floats), and the restore path validates shape instead of trusting it —
// unknown event kinds, payload/kind mismatches, out-of-range scenario
// indices and inconsistent recorder modes are errors, never guesses.

// Serialized event kind tags. Strings, not the internal des.Kind
// integers, so a persisted checkpoint survives reordering of the
// constant block.
var eventKindNames = map[des.Kind]string{
	evArrival:  "arrival",
	evPass:     "pass",
	evEnd:      "end",
	evFailure:  "failure",
	evRepair:   "repair",
	evSample:   "sample",
	evScenario: "scenario",
}

var eventKindsByName = func() map[string]des.Kind {
	m := make(map[string]des.Kind, len(eventKindNames))
	for k, n := range eventKindNames {
		m[n] = k
	}
	return m
}()

// EndPayloadState is the serialized form of a pending job termination.
type EndPayloadState struct {
	ID     int  `json:"id"`
	Killed bool `json:"killed,omitempty"`
}

// EventRecordState is one pending DES event: time, ordering band, kind
// tag and the kind's payload (exactly one of the payload fields is set,
// and only for the kinds that carry one).
type EventRecordState struct {
	T     int64  `json:"t"`
	Front bool   `json:"front,omitempty"`
	Kind  string `json:"kind"`

	Job  *workload.Job    `json:"job,omitempty"`  // kind "arrival"
	End  *EndPayloadState `json:"end,omitempty"`  // kind "end"
	Node *int             `json:"node,omitempty"` // kind "repair"
	Scen *int             `json:"scen,omitempty"` // kind "scenario"
}

// RunningSnapState is the serialized share of one running job; its
// allocation lives in the machine state and its end event in Events.
type RunningSnapState struct {
	Job        *workload.Job `json:"job"`
	Start      int64         `json:"start"`
	Limit      int64         `json:"limit"`
	DilAtStart float64       `json:"dilAtStart"`
	WorkLeft   float64       `json:"workLeft"`
	Rate       float64       `json:"rate"`
	LastUpdate int64         `json:"lastUpdate"`
}

// CheckpointState is the serializable flattening of a Checkpoint:
// everything Resume needs except the Config (rebuilt by the caller from
// its own serialized spec). Running is sorted by job ID and ScenarioDown
// ascending, so encoding the same checkpoint twice yields identical
// bytes.
type CheckpointState struct {
	Bounded bool   `json:"bounded,omitempty"`
	Now     int64  `json:"now"`
	Fired   uint64 `json:"fired"`

	Events   []EventRecordState    `json:"events"`
	Machine  cluster.MachineState  `json:"machine"`
	Recorder metrics.RecorderState `json:"recorder"`

	Queue    []*workload.Job    `json:"queue,omitempty"`
	Running  []RunningSnapState `json:"running,omitempty"`
	RunIDs   []int              `json:"runIDs,omitempty"`
	EndOrder []int              `json:"endOrder,omitempty"`

	Source      *source.CursorState `json:"source,omitempty"`
	SrcDone     bool                `json:"srcDone,omitempty"`
	SrcErr      string              `json:"srcErr,omitempty"`
	LastArrival int64               `json:"lastArrival"`

	FailRNG    *stats.RNGState `json:"failRNG,omitempty"`
	Terminated int             `json:"terminated"`
	JobsLeft   int             `json:"jobsLeft"`
	Failures   int             `json:"failures,omitempty"`
	FailKills  int             `json:"failKills,omitempty"`
	Restarts   map[int]int     `json:"restarts,omitempty"`

	DilScale     float64 `json:"dilScale"`
	ScenApplied  int     `json:"scenApplied,omitempty"`
	ScenarioDown []int   `json:"scenarioDown,omitempty"`
}

// State flattens the checkpoint for serialization. It fails when the
// checkpointed source has no durable cursor (source.Durable) — the
// in-memory Fork path is broader than the durable one; see
// dismem.SaveCheckpoint for what qualifies.
func (cp *Checkpoint) State() (*CheckpointState, error) {
	st := &CheckpointState{
		Bounded:     cp.rec.Bounded(),
		Now:         cp.now,
		Fired:       cp.fired,
		Machine:     cp.machine.State(),
		Recorder:    cp.rec.State(),
		Queue:       cp.queue,
		RunIDs:      cp.runIDs,
		EndOrder:    cp.endOrder,
		SrcDone:     cp.srcDone,
		LastArrival: cp.lastArrival,
		Terminated:  cp.terminated,
		JobsLeft:    cp.jobsLeft,
		Failures:    cp.failures,
		FailKills:   cp.failKills,
		Restarts:    cp.restarts,
		DilScale:    cp.dilScale,
		ScenApplied: cp.scenApplied,
	}
	if cp.srcErr != nil {
		st.SrcErr = cp.srcErr.Error()
	}
	if cp.failRNG != nil {
		s := cp.failRNG.State()
		st.FailRNG = &s
	}
	if cp.src != nil {
		d, ok := cp.src.(source.Durable)
		if !ok {
			return nil, fmt.Errorf("sim: source %T has no durable cursor (see source.Durable; materialise the workload or use a file-backed source)", cp.src)
		}
		cur, err := d.Cursor()
		if err != nil {
			return nil, err
		}
		st.Source = cur
	}
	st.Events = make([]EventRecordState, 0, len(cp.events))
	for _, r := range cp.events {
		er := EventRecordState{T: int64(r.Time), Front: r.Front, Kind: eventKindNames[r.Kind]}
		if er.Kind == "" {
			return nil, fmt.Errorf("sim: checkpoint holds event of unknown kind %d (State not updated for a new event family?)", r.Kind)
		}
		switch r.Kind {
		case evArrival:
			er.Job = r.Data.(*workload.Job)
		case evEnd:
			p := r.Data.(*endPayload)
			er.End = &EndPayloadState{ID: p.ID, Killed: p.Killed}
		case evRepair:
			id := int(r.Data.(cluster.NodeID))
			er.Node = &id
		case evScenario:
			i := r.Data.(int)
			er.Scen = &i
		}
		st.Events = append(st.Events, er)
	}
	st.Running = make([]RunningSnapState, 0, len(cp.running))
	ids := make([]int, 0, len(cp.running))
	for id := range cp.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rs := cp.running[id]
		st.Running = append(st.Running, RunningSnapState{
			Job: rs.job, Start: rs.start, Limit: rs.limit,
			DilAtStart: rs.dilAtStart, WorkLeft: rs.workLeft,
			Rate: rs.rate, LastUpdate: rs.lastUpdate,
		})
	}
	st.ScenarioDown = make([]int, 0, len(cp.scenarioDown))
	for id := range cp.scenarioDown {
		st.ScenarioDown = append(st.ScenarioDown, int(id))
	}
	sort.Ints(st.ScenarioDown)
	return st, nil
}

// CheckpointFromState rebuilds a checkpoint from its serialized state
// and the run configuration the caller reconstructed (scheduler, memory
// model and scenario are code, not data — only their specs persist).
// The result feeds Resume like any in-memory checkpoint. Validation is
// structural and paranoid: the state is assumed to come from disk, so
// every cross-reference is checked here or in Resume rather than
// trusted.
func CheckpointFromState(cfg Config, st *CheckpointState) (*Checkpoint, error) {
	if st == nil {
		return nil, fmt.Errorf("sim: nil checkpoint state")
	}
	if st.Now < 0 {
		return nil, fmt.Errorf("sim: checkpoint time %d < 0", st.Now)
	}
	m, err := cluster.FromState(st.Machine)
	if err != nil {
		return nil, err
	}
	rec, err := metrics.RecorderFromState(st.Recorder)
	if err != nil {
		return nil, err
	}
	if rec.Bounded() != st.Bounded {
		return nil, fmt.Errorf("sim: checkpoint bounded flag %v disagrees with recorder state", st.Bounded)
	}

	cp := &Checkpoint{
		cfg:          cfg,
		now:          st.Now,
		fired:        st.Fired,
		machine:      m,
		rec:          rec,
		queue:        st.Queue,
		running:      make(map[int]runningSnap, len(st.Running)),
		runIDs:       st.RunIDs,
		endOrder:     st.EndOrder,
		srcDone:      st.SrcDone,
		lastArrival:  st.LastArrival,
		terminated:   st.Terminated,
		jobsLeft:     st.JobsLeft,
		failures:     st.Failures,
		failKills:    st.FailKills,
		restarts:     st.Restarts,
		dilScale:     st.DilScale,
		scenApplied:  st.ScenApplied,
		scenarioDown: make(map[cluster.NodeID]bool, len(st.ScenarioDown)),
	}
	if cp.restarts == nil {
		cp.restarts = map[int]int{}
	}
	if st.SrcErr != "" {
		cp.srcErr = errors.New(st.SrcErr)
	}
	if st.FailRNG != nil {
		rng, err := stats.RNGFromState(*st.FailRNG)
		if err != nil {
			return nil, err
		}
		cp.failRNG = rng
	}
	if cfg.Failures != nil && cp.failRNG == nil {
		return nil, fmt.Errorf("sim: checkpoint configures failure injection but carries no failure RNG state")
	}

	switch {
	case st.Source != nil:
		var rate func(float64) float64
		if cfg.Scenario.Modulates() {
			rate = cfg.Scenario.Rate
		}
		src, err := source.FromCursor(st.Source, rate)
		if err != nil {
			return nil, err
		}
		cp.src = src
	case !st.SrcDone:
		return nil, fmt.Errorf("sim: checkpoint source not exhausted but no cursor captured")
	}

	for _, rs := range st.Running {
		if rs.Job == nil {
			return nil, fmt.Errorf("sim: checkpoint running entry has no job")
		}
		if _, dup := cp.running[rs.Job.ID]; dup {
			return nil, fmt.Errorf("sim: checkpoint running set lists job %d twice", rs.Job.ID)
		}
		cp.running[rs.Job.ID] = runningSnap{
			job: rs.Job, start: rs.Start, limit: rs.Limit,
			dilAtStart: rs.DilAtStart, workLeft: rs.WorkLeft,
			rate: rs.Rate, lastUpdate: rs.LastUpdate,
		}
	}
	for _, id := range st.ScenarioDown {
		cp.scenarioDown[cluster.NodeID(id)] = true
	}

	scenEvents := 0
	if cfg.Scenario != nil {
		scenEvents = len(cfg.Scenario.Events)
	}
	cp.events = make([]des.EventRecord, 0, len(st.Events))
	for i, er := range st.Events {
		kind, ok := eventKindsByName[er.Kind]
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint event %d has unknown kind %q", i, er.Kind)
		}
		rec := des.EventRecord{Time: des.Time(er.T), Front: er.Front, Kind: kind}
		payloads := 0
		for _, set := range []bool{er.Job != nil, er.End != nil, er.Node != nil, er.Scen != nil} {
			if set {
				payloads++
			}
		}
		switch kind {
		case evArrival:
			if er.Job == nil || payloads != 1 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) needs exactly a job payload", i, er.Kind)
			}
			rec.Data = er.Job
		case evEnd:
			if er.End == nil || payloads != 1 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) needs exactly an end payload", i, er.Kind)
			}
			if _, ok := cp.running[er.End.ID]; !ok {
				return nil, fmt.Errorf("sim: checkpoint end event for job %d not in running set", er.End.ID)
			}
			rec.Data = &endPayload{ID: er.End.ID, Killed: er.End.Killed}
		case evRepair:
			if er.Node == nil || payloads != 1 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) needs exactly a node payload", i, er.Kind)
			}
			rec.Data = cluster.NodeID(*er.Node)
		case evScenario:
			if er.Scen == nil || payloads != 1 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) needs exactly a scenario payload", i, er.Kind)
			}
			if *er.Scen < 0 || *er.Scen >= scenEvents {
				return nil, fmt.Errorf("sim: checkpoint event %d references scenario intervention %d of a %d-event scenario", i, *er.Scen, scenEvents)
			}
			rec.Data = *er.Scen
		case evFailure:
			if payloads != 0 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) carries an unexpected payload", i, er.Kind)
			}
			if cfg.Failures == nil {
				return nil, fmt.Errorf("sim: checkpoint event %d is a pending failure but the configuration has no failure injection", i)
			}
		case evSample:
			if payloads != 0 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) carries an unexpected payload", i, er.Kind)
			}
			if cfg.SampleEvery <= 0 {
				return nil, fmt.Errorf("sim: checkpoint event %d is a pending sampling tick but the configuration has no sampling period", i)
			}
		default: // pass: no payload
			if payloads != 0 {
				return nil, fmt.Errorf("sim: checkpoint event %d (%s) carries an unexpected payload", i, er.Kind)
			}
		}
		cp.events = append(cp.events, rec)
	}
	return cp, nil
}
