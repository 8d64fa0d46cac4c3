// Package trace is the per-job lifecycle trace layer: typed,
// deterministically-ordered events emitted synchronously from the
// simulation engine's existing handler points — submit, dispatch (with
// placement detail), terminate/kill (with reason), failure restarts,
// scenario interventions, and checkpoint/fork boundaries — consumed by
// a TraceSink.
//
// Tracing follows the engine's Outputs contract (DESIGN.md §11): a
// nil sink is zero-cost, the engine closes the configured sink exactly
// once on every terminal path of the run, and the JSONL stream is
// checkpoint-composable — an interrupted run's trace plus its resume's
// trace concatenate byte-for-byte to the uninterrupted run's trace.
// Checkpoint/fork boundary events are therefore never emitted by the
// engine into a composing stream; layers that own non-composing traces
// (the dmserve ring) record them instead.
//
// The package depends on no engine package: events carry plain
// serializable values, never live engine state.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"

	"dismem/internal/jsonenc"
)

// Type tags one trace event.
type Type string

// The event taxonomy (DESIGN.md §12). Values are the JSONL wire names.
const (
	// Submit: a job arrived (before the feasibility check).
	Submit Type = "submit"
	// Dispatch: a job started, with placement detail — racks and pools
	// touched, local/remote memory split, dilation at start.
	Dispatch Type = "dispatch"
	// Terminate: a job reached a terminal state; Reason is "done",
	// "killed" (walltime limit), "rejected" (infeasible at arrival) or
	// "failed" (failure-restart budget exhausted).
	Terminate Type = "terminate"
	// Restart: a node failure killed the job and the site resubmitted
	// it; Restarts is the cumulative count for this job.
	Restart Type = "restart"
	// ScenarioEvent: a timed intervention was applied; Detail is the
	// intervention in scenario-grammar form.
	ScenarioEvent Type = "scenario"
	// CheckpointMark / ForkMark are checkpoint/fork boundary events.
	// The engine never emits them (they would break trace composition
	// across interrupt/resume); owners of non-composing traces — the
	// dmserve ring — record them.
	CheckpointMark Type = "checkpoint"
	ForkMark       Type = "fork"
)

// Event is one trace event. Only the fields the Type uses are set; the
// rest stay zero and are omitted from the JSONL encoding. Job IDs are
// positive (workload.Job.Validate), so a zero Job always means "not a
// job event".
type Event struct {
	Now  int64
	Type Type

	// Job lifecycle fields.
	Job    int
	User   int
	Nodes  int
	Submit int64 // dispatch/terminate: the job's submit instant

	// Dispatch placement detail.
	Racks     []int // racks touched, ascending
	Pools     []int // pools touched, ascending
	LocalMiB  int64
	RemoteMiB int64
	Dilation  float64 // dilation at dispatch

	// Terminate / restart detail.
	Start    int64  // the dispatch instant this span began at
	Reason   string // "done" | "killed" | "rejected" | "failed"
	Restarts int

	// Scenario / boundary detail.
	Detail string
}

// TraceSink consumes trace events as the simulation produces them,
// in deterministic firing order (events are emitted synchronously from
// the single simulation goroutine). Close flushes buffered output and
// reports the first write error. The engine closes its configured sink
// exactly once, on every terminal path of the run.
type TraceSink interface {
	Add(ev Event)
	Close() error
}

// Discard is the TraceSink that drops every event.
var Discard TraceSink = discard{}

type discard struct{}

func (discard) Add(Event)    {}
func (discard) Close() error { return nil }

// jsonEvent fixes the JSONL export schema (and field order)
// independently of the in-memory Event layout.
type jsonEvent struct {
	Now       int64   `json:"now"`
	Type      Type    `json:"type"`
	Job       int     `json:"job,omitempty"`
	User      int     `json:"user,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
	Submit    int64   `json:"submit,omitempty"`
	Racks     []int   `json:"racks,omitempty"`
	Pools     []int   `json:"pools,omitempty"`
	LocalMiB  int64   `json:"local_mib,omitempty"`
	RemoteMiB int64   `json:"remote_mib,omitempty"`
	Dilation  float64 `json:"dilation,omitempty"`
	Start     int64   `json:"start,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Restarts  int     `json:"restarts,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// MarshalJSON fixes Event's JSON form to the JSONL wire schema, so an
// event serialized anywhere else (the dmserve /v1/trace endpoint, say)
// is byte-identical to its JSONL line.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{
		Now: e.Now, Type: e.Type,
		Job: e.Job, User: e.User, Nodes: e.Nodes, Submit: e.Submit,
		Racks: e.Racks, Pools: e.Pools,
		LocalMiB: e.LocalMiB, RemoteMiB: e.RemoteMiB, Dilation: e.Dilation,
		Start: e.Start, Reason: e.Reason, Restarts: e.Restarts,
		Detail: e.Detail,
	})
}

// JSONLSink encodes each event as one JSON line to a buffered writer,
// with the stream-sink discipline: the first error latches (subsequent
// Adds are no-ops, Close reports it) and the sink never closes the
// underlying writer. An event json.Marshal rejects — a non-finite
// dilation — is such an error, never a line.
type JSONLSink struct {
	bw      *bufio.Writer
	scratch []byte
	err     error
}

// NewJSONLSink returns a sink writing one JSON object per event line.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// Add implements TraceSink.
func (s *JSONLSink) Add(ev Event) {
	if s.err != nil {
		return
	}
	line, err := appendEvent(s.scratch[:0], ev)
	if err != nil {
		s.err = err
		return
	}
	s.scratch = append(line, '\n')
	_, s.err = s.bw.Write(s.scratch)
}

// appendEvent encodes ev byte-identically to json.Marshal(jsonEvent)
// — same field order, omitempty semantics, float and string encoding,
// and the same failure on a non-finite dilation (pinned by a unit test
// and FuzzAppendEvent) — without reflection: the trace hot path runs
// once per lifecycle event, and a reflective Marshal there costs ~20%
// of end-to-end simulation throughput.
func appendEvent(b []byte, ev Event) ([]byte, error) {
	b = append(b, `{"now":`...)
	b = strconv.AppendInt(b, ev.Now, 10)
	b = append(b, `,"type":`...)
	b = jsonenc.String(b, string(ev.Type))
	if ev.Job != 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(ev.Job), 10)
	}
	if ev.User != 0 {
		b = append(b, `,"user":`...)
		b = strconv.AppendInt(b, int64(ev.User), 10)
	}
	if ev.Nodes != 0 {
		b = append(b, `,"nodes":`...)
		b = strconv.AppendInt(b, int64(ev.Nodes), 10)
	}
	if ev.Submit != 0 {
		b = append(b, `,"submit":`...)
		b = strconv.AppendInt(b, ev.Submit, 10)
	}
	if len(ev.Racks) > 0 {
		b = appendIntSlice(append(b, `,"racks":`...), ev.Racks)
	}
	if len(ev.Pools) > 0 {
		b = appendIntSlice(append(b, `,"pools":`...), ev.Pools)
	}
	if ev.LocalMiB != 0 {
		b = append(b, `,"local_mib":`...)
		b = strconv.AppendInt(b, ev.LocalMiB, 10)
	}
	if ev.RemoteMiB != 0 {
		b = append(b, `,"remote_mib":`...)
		b = strconv.AppendInt(b, ev.RemoteMiB, 10)
	}
	if ev.Dilation != 0 {
		var err error
		if b, err = jsonenc.Float(append(b, `,"dilation":`...), ev.Dilation); err != nil {
			return b, err
		}
	}
	if ev.Start != 0 {
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, ev.Start, 10)
	}
	if ev.Reason != "" {
		b = append(b, `,"reason":`...)
		b = jsonenc.String(b, ev.Reason)
	}
	if ev.Restarts != 0 {
		b = append(b, `,"restarts":`...)
		b = strconv.AppendInt(b, int64(ev.Restarts), 10)
	}
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = jsonenc.String(b, ev.Detail)
	}
	return append(b, '}'), nil
}

func appendIntSlice(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// Close implements TraceSink: it flushes and returns the first error.
func (s *JSONLSink) Close() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}
