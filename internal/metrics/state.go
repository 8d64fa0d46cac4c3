package metrics

import (
	"encoding/json"
	"fmt"
	"sync"

	"dismem/internal/stats"
)

// This file is the durable-checkpoint face of the package: portable,
// JSON-friendly state for the Recorder (both modes) and its bounded
// Aggregate, with validated constructors, and the retained records'
// JSON code, which checkpoints splice into their payload instead of
// marshalling the records again (RecordsJSON). The sink is
// deliberately absent — a sink is a live external writer; a restored
// run attaches its own, exactly as Clone-based in-memory forks do.

// AggregateState is the portable serialized form of an Aggregate. The
// Online accumulators marshal via their own JSON methods; the hybrid
// percentile estimators travel as stats.QuantileState.
type AggregateState struct {
	Completed  int     `json:"completed"`
	Killed     int     `json:"killed"`
	Rejected   int     `json:"rejected"`
	RemoteJobs int     `json:"remoteJobs"`
	NodeHours  float64 `json:"nodeHours"`

	Wait           stats.Online `json:"wait"`
	Response       stats.Online `json:"response"`
	BSld           stats.Online `json:"bsld"`
	DilationAll    stats.Online `json:"dilationAll"`
	DilationRemote stats.Online `json:"dilationRemote"`

	P95Wait      stats.QuantileState `json:"p95Wait"`
	P99Wait      stats.QuantileState `json:"p99Wait"`
	P95BSld      stats.QuantileState `json:"p95BSld"`
	P95DilRemote stats.QuantileState `json:"p95DilRemote"`
}

// State captures the aggregate.
func (a *Aggregate) State() AggregateState {
	return AggregateState{
		Completed: a.Completed, Killed: a.Killed, Rejected: a.Rejected,
		RemoteJobs: a.RemoteJobs, NodeHours: a.NodeHours,
		Wait: a.Wait, Response: a.Response, BSld: a.BSld,
		DilationAll: a.DilationAll, DilationRemote: a.DilationRemote,
		P95Wait:      a.p95Wait.State(),
		P99Wait:      a.p99Wait.State(),
		P95BSld:      a.p95BSld.State(),
		P95DilRemote: a.p95DilRemote.State(),
	}
}

// AggregateFromState rebuilds an aggregate from a captured state.
func AggregateFromState(st AggregateState) (*Aggregate, error) {
	a := &Aggregate{fold: fold{
		Completed: st.Completed, Killed: st.Killed, Rejected: st.Rejected,
		RemoteJobs: st.RemoteJobs, NodeHours: st.NodeHours,
		Wait: st.Wait, Response: st.Response, BSld: st.BSld,
		DilationAll: st.DilationAll, DilationRemote: st.DilationRemote,
	}}
	var err error
	if a.p95Wait, err = stats.QuantileFromState(st.P95Wait); err != nil {
		return nil, fmt.Errorf("metrics: aggregate p95 wait: %w", err)
	}
	if a.p99Wait, err = stats.QuantileFromState(st.P99Wait); err != nil {
		return nil, fmt.Errorf("metrics: aggregate p99 wait: %w", err)
	}
	if a.p95BSld, err = stats.QuantileFromState(st.P95BSld); err != nil {
		return nil, fmt.Errorf("metrics: aggregate p95 bsld: %w", err)
	}
	if a.p95DilRemote, err = stats.QuantileFromState(st.P95DilRemote); err != nil {
		return nil, fmt.Errorf("metrics: aggregate p95 remote dilation: %w", err)
	}
	return a, nil
}

// UserAccState is one user's fairness tally in portable form.
type UserAccState struct {
	User      int     `json:"user"`
	Jobs      int     `json:"jobs"`
	Wait      float64 `json:"wait"`
	BSld      float64 `json:"bsld"`
	NodeHours float64 `json:"nodeHours"`
}

// RecorderState is the portable serialized form of a Recorder. Exactly
// one of Records (retain mode) or Agg (bounded mode) carries the
// per-job reduction; the usage integrals and fairness tallies travel
// in both modes.
type RecorderState struct {
	Retain  bool            `json:"retain"`
	Records []JobRecord     `json:"records,omitempty"`
	Agg     *AggregateState `json:"agg,omitempty"`
	ByUser  []UserAccState  `json:"byUser,omitempty"`

	LastT     int64   `json:"lastT"`
	HaveT     bool    `json:"haveT"`
	NodeInt   float64 `json:"nodeInt"`
	LocalInt  float64 `json:"localInt"`
	PoolInt   float64 `json:"poolInt"`
	DemandInt float64 `json:"demandInt"`

	FirstSubmit int64 `json:"firstSubmit"`
	LastEnd     int64 `json:"lastEnd"`
	HaveSubmit  bool  `json:"haveSubmit"`
}

// State captures the recorder. Fairness tallies are kept ordered by
// user ID, so the serialized form is deterministic across runs.
func (rec *Recorder) State() RecorderState {
	st := rec.StateWithoutRecords()
	st.Records = rec.Records()
	return st
}

// StateWithoutRecords is State with Records left empty, and without
// the copy of the records State makes: the form an encoder marshals
// when it writes the records from RecordsJSON itself.
func (rec *Recorder) StateWithoutRecords() RecorderState {
	st := RecorderState{
		Retain:      rec.retain,
		LastT:       rec.lastT,
		HaveT:       rec.haveT,
		NodeInt:     rec.nodeInt,
		LocalInt:    rec.localInt,
		PoolInt:     rec.poolInt,
		DemandInt:   rec.demandInt,
		FirstSubmit: rec.firstSubmit,
		LastEnd:     rec.lastEnd,
		HaveSubmit:  rec.haveSubmit,
	}
	if rec.agg != nil {
		agg := rec.agg.State()
		st.Agg = &agg
	}
	for _, a := range rec.users {
		st.ByUser = append(st.ByUser, UserAccState{
			User: a.user, Jobs: a.jobs, Wait: a.wait, BSld: a.bsld, NodeHours: a.nodeHours,
		})
	}
	return st
}

// RecorderFromState rebuilds a recorder from a captured state. The
// restored recorder is sinkless. It is a checkpoint's, so a retain-mode
// one gets a fresh ranked prefix covering all its records, which its
// forks share (Clone).
func RecorderFromState(st RecorderState) (*Recorder, error) {
	if st.Retain == (st.Agg != nil) {
		return nil, fmt.Errorf("metrics: recorder state wants exactly one of retained records (retain) or an online aggregate")
	}
	if !st.Retain && len(st.Records) > 0 {
		return nil, fmt.Errorf("metrics: bounded recorder state carries %d retained records", len(st.Records))
	}
	rec := &Recorder{
		retain:      st.Retain,
		lastT:       st.LastT,
		haveT:       st.HaveT,
		nodeInt:     st.NodeInt,
		localInt:    st.LocalInt,
		poolInt:     st.PoolInt,
		demandInt:   st.DemandInt,
		firstSubmit: st.FirstSubmit,
		lastEnd:     st.LastEnd,
		haveSubmit:  st.HaveSubmit,
	}
	if st.Agg != nil {
		agg, err := AggregateFromState(*st.Agg)
		if err != nil {
			return nil, err
		}
		rec.agg = agg
	}
	for i := range st.Records {
		rec.keep(&st.Records[i])
	}
	if rec.retain {
		rec.ranked = &rankedPrefix{n: len(st.Records)}
	}
	rec.users = make([]userAcc, 0, len(st.ByUser))
	prev := -1
	first := true
	for _, ua := range st.ByUser {
		if !first && ua.User <= prev {
			return nil, fmt.Errorf("metrics: recorder state fairness tallies out of order at user %d", ua.User)
		}
		prev, first = ua.User, false
		if ua.Jobs <= 0 {
			return nil, fmt.Errorf("metrics: recorder state user %d has %d jobs", ua.User, ua.Jobs)
		}
		rec.users = append(rec.users, userAcc{user: ua.User, jobs: ua.Jobs, wait: ua.Wait, bsld: ua.BSld, nodeHours: ua.NodeHours})
	}
	return rec, nil
}

// chunkCode is the JSON code of one full chunk's records: each record
// exactly as encoding/json writes it as an element of a []JobRecord,
// followed by a comma. A full chunk is never written again (keep,
// Clone), so its code never goes stale: it is built at most once, by
// the first RecordsJSON that needs it, and every recorder holding the
// chunk's slot (chunk) shares it. A chunk json.Marshal rejects (a
// non-finite float) keeps the error instead, and every encode of it
// fails with that error.
type chunkCode struct {
	once sync.Once
	b    []byte
	err  error
}

// get returns the code of recs, the full chunk the slot belongs to.
func (c *chunkCode) get(recs []JobRecord) ([]byte, error) {
	c.once.Do(func() {
		b, err := json.Marshal(recs)
		if err != nil {
			c.err = err
			return
		}
		// [r0,...,rN] becomes r0,...,rN, in place.
		b[len(b)-1] = ','
		c.b = b[1:]
	})
	return c.b, c.err
}

// The array brackets of RecordsJSON's pieces.
var (
	openArray  = []byte("[")
	closeArray = []byte("]")
)

// RecordsJSON returns the retained records' JSON array in pieces:
// joined, they are json.Marshal(rec.Records())'s bytes, and it fails
// where that fails, with its error. It returns no pieces when no
// records are retained (bounded mode included), where a field tagged
// omitempty writes nothing either.
//
// Every full chunk contributes its shared code (chunkCode), so only
// the records past the last full chunk are marshalled afresh: a
// recorder that is checkpointed again and again encodes each record
// about once. The pieces alias the codes, which every recorder holding
// their chunks shares, so they are read-only. Any number of goroutines
// may call it at once on recorders sharing chunks.
func (rec *Recorder) RecordsJSON() ([][]byte, error) {
	n := len(rec.chunks)
	if n == 0 {
		return nil, nil
	}
	tail := rec.chunks[n-1].recs
	full := n - 1
	if len(tail) == recordChunk {
		tail, full = nil, n
	}
	pieces := make([][]byte, 0, full+2)
	pieces = append(pieces, openArray)
	for _, c := range rec.chunks[:full] {
		code, err := c.code.get(c.recs)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, code)
	}
	if len(tail) == 0 {
		// The last code's trailing comma gives way to the bracket.
		last := pieces[full]
		pieces[full] = last[:len(last)-1]
		return append(pieces, closeArray), nil
	}
	b, err := json.Marshal(tail)
	if err != nil {
		return nil, err
	}
	return append(pieces, b[1:]), nil
}
