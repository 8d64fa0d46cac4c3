package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"dismem/internal/jsonenc"
	"dismem/internal/stats"
)

// Sink consumes per-job records as the simulation produces them: the
// bounded-memory alternative to the Recorder's retain-all slice. A
// Sink is driven from the single simulation goroutine; Close flushes
// buffered output and reports the first write error. The engine closes
// its configured sink at Finish.
type Sink interface {
	Add(r JobRecord)
	Close() error
}

// Discard is the sink that drops every record: bounded recording with
// no streamed output (the online aggregates in the Recorder still
// produce a full Report).
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Add(JobRecord) {}
func (discardSink) Close() error  { return nil }

// Aggregate reduces a job-record stream to the Report's per-job
// quantities in bounded memory: the recorder's running fold (exact
// counts, node-hours, and means, min/max and variance via stats.Online,
// the same left fold a retain-all recorder keeps) plus hybrid
// percentile estimators for the wait, slowdown and dilation
// percentiles the exact path selects from retained records. The hybrid
// estimators (stats.Quantile) are exact up to stats.ExactQuantileBuffer
// observations — so small bounded runs report the same percentiles a
// retain-all run would — and switch to the O(1)-memory P²
// approximation beyond, bit-identical there to a pure P² stream. It is
// both the Recorder's bounded-mode core and a standalone Sink.
type Aggregate struct {
	fold

	p95Wait, p99Wait, p95BSld, p95DilRemote *stats.Quantile
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		p95Wait:      stats.NewQuantile(0.95),
		p99Wait:      stats.NewQuantile(0.99),
		p95BSld:      stats.NewQuantile(0.95),
		p95DilRemote: stats.NewQuantile(0.95),
	}
}

// Clone returns an independent deep copy, the bounded-mode half of
// recorder checkpointing.
func (a *Aggregate) Clone() *Aggregate {
	c := *a
	c.p95Wait = a.p95Wait.Clone()
	c.p99Wait = a.p99Wait.Clone()
	c.p95BSld = a.p95BSld.Clone()
	c.p95DilRemote = a.p95DilRemote.Clone()
	return &c
}

// Add implements Sink: the record goes through the fold, then into the
// percentile estimators.
func (a *Aggregate) Add(r JobRecord) {
	wait, bsld, ok := a.add(&r)
	if !ok {
		return
	}
	a.p95Wait.Add(wait)
	a.p99Wait.Add(wait)
	a.p95BSld.Add(bsld)
	if r.RemoteMiB > 0 {
		a.p95DilRemote.Add(r.Dilation)
	}
}

// Close implements Sink (a no-op; aggregates live in memory).
func (a *Aggregate) Close() error { return nil }

// P95Wait returns the wait-time 95th-percentile estimate.
func (a *Aggregate) P95Wait() float64 { return a.p95Wait.Value() }

// P99Wait returns the wait-time 99th-percentile estimate.
func (a *Aggregate) P99Wait() float64 { return a.p99Wait.Value() }

// P95BSld returns the bounded-slowdown 95th-percentile estimate.
func (a *Aggregate) P95BSld() float64 { return a.p95BSld.Value() }

// P95DilationRemote returns the remote-job dilation 95th-percentile
// estimate.
func (a *Aggregate) P95DilationRemote() float64 { return a.p95DilRemote.Value() }

// fillReport writes the aggregate's share of a Report: everything the
// exact path derives from retained records.
func (a *Aggregate) fillReport(rp *Report) {
	a.fill(rp)
	rp.P95Wait = a.P95Wait()
	rp.P99Wait = a.P99Wait()
	rp.P95BSld = a.P95BSld()
	rp.P95DilationRemote = a.P95DilationRemote()
}

// StreamSink encodes each record as one line — JSONL or CSV — to a
// buffered writer: flat-memory record export for runs too large to
// retain. The first error latches: subsequent Adds are no-ops and
// Close reports it. A record json.Marshal would reject — a non-finite
// float — is such an error, never a line. The sink does not close the
// underlying writer.
type StreamSink struct {
	bw       *bufio.Writer
	csv      bool
	headered bool
	scratch  []byte // the JSONL line buffer, reused across records
	err      error
}

// NewJSONLSink returns a sink writing one JSON object per record line.
func NewJSONLSink(w io.Writer) *StreamSink {
	return &StreamSink{bw: bufio.NewWriter(w)}
}

// NewCSVSink returns a sink writing a header row plus one CSV row per
// record.
func NewCSVSink(w io.Writer) *StreamSink {
	return &StreamSink{bw: bufio.NewWriter(w), csv: true}
}

// jsonRecord is the JSONL record schema: field order, names and
// omitempty rules, fixed independently of the in-memory JobRecord
// layout, with the derived per-job metrics consumers always recompute
// anyway (wait, bsld). appendRecord writes it; the struct is the
// encoding/json oracle its tests compare against.
type jsonRecord struct {
	ID          int     `json:"id"`
	User        int     `json:"user"`
	Nodes       int     `json:"nodes"`
	Submit      int64   `json:"submit"`
	Start       int64   `json:"start"`
	End         int64   `json:"end"`
	Wait        int64   `json:"wait"`
	BSld        float64 `json:"bsld"`
	Estimate    int64   `json:"estimate"`
	Limit       int64   `json:"limit"`
	BaseRuntime int64   `json:"base_runtime"`
	MemPerNode  int64   `json:"mem_per_node"`
	RemoteMiB   int64   `json:"remote_mib"`
	RemoteFrac  float64 `json:"remote_frac"`
	Dilation    float64 `json:"dilation"`
	Killed      bool    `json:"killed,omitempty"`
	Rejected    bool    `json:"rejected,omitempty"`
	Restarts    int     `json:"restarts,omitempty"`
}

// csvHeader matches jsonRecord's field order.
const csvHeader = "id,user,nodes,submit,start,end,wait,bsld,estimate,limit,base_runtime,mem_per_node,remote_mib,remote_frac,dilation,killed,rejected,restarts"

// Add implements Sink.
func (s *StreamSink) Add(r JobRecord) {
	if s.err != nil {
		return
	}
	if s.csv {
		if !s.headered {
			s.headered = true
			if _, err := fmt.Fprintln(s.bw, csvHeader); err != nil {
				s.err = err
				return
			}
		}
		_, err := fmt.Fprintf(s.bw, "%d,%d,%d,%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%g,%g,%t,%t,%d\n",
			r.ID, r.User, r.Nodes, r.Submit, r.Start, r.End, r.Wait(), r.BoundedSlowdown(),
			r.Estimate, r.Limit, r.BaseRuntime, r.MemPerNode, r.RemoteMiB, r.RemoteFrac,
			r.Dilation, r.Killed, r.Rejected, r.Restarts)
		s.err = err
		return
	}
	line, err := appendRecord(s.scratch[:0], &r)
	if err != nil {
		s.err = err
		return
	}
	s.scratch = append(line, '\n')
	_, s.err = s.bw.Write(s.scratch)
}

// appendRecord encodes r byte-identically to json.Marshal(jsonRecord)
// — same field order, omitempty semantics and float form, and the same
// failure on a non-finite float (pinned by a unit test and
// FuzzAppendRecord) — without reflection: the record sink runs once
// per job, and a reflective Marshal there cost about a fifth of a
// streamed replay's CPU.
func appendRecord(b []byte, r *JobRecord) ([]byte, error) {
	var err error
	b = strconv.AppendInt(append(b, `{"id":`...), int64(r.ID), 10)
	b = strconv.AppendInt(append(b, `,"user":`...), int64(r.User), 10)
	b = strconv.AppendInt(append(b, `,"nodes":`...), int64(r.Nodes), 10)
	b = strconv.AppendInt(append(b, `,"submit":`...), r.Submit, 10)
	b = strconv.AppendInt(append(b, `,"start":`...), r.Start, 10)
	b = strconv.AppendInt(append(b, `,"end":`...), r.End, 10)
	b = strconv.AppendInt(append(b, `,"wait":`...), r.Wait(), 10)
	if b, err = jsonenc.Float(append(b, `,"bsld":`...), r.BoundedSlowdown()); err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `,"estimate":`...), r.Estimate, 10)
	b = strconv.AppendInt(append(b, `,"limit":`...), r.Limit, 10)
	b = strconv.AppendInt(append(b, `,"base_runtime":`...), r.BaseRuntime, 10)
	b = strconv.AppendInt(append(b, `,"mem_per_node":`...), r.MemPerNode, 10)
	b = strconv.AppendInt(append(b, `,"remote_mib":`...), r.RemoteMiB, 10)
	if b, err = jsonenc.Float(append(b, `,"remote_frac":`...), r.RemoteFrac); err != nil {
		return b, err
	}
	if b, err = jsonenc.Float(append(b, `,"dilation":`...), r.Dilation); err != nil {
		return b, err
	}
	if r.Killed {
		b = append(b, `,"killed":true`...)
	}
	if r.Rejected {
		b = append(b, `,"rejected":true`...)
	}
	if r.Restarts != 0 {
		b = strconv.AppendInt(append(b, `,"restarts":`...), int64(r.Restarts), 10)
	}
	return append(b, '}'), nil
}

// Close implements Sink: it flushes and returns the first error.
func (s *StreamSink) Close() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}
