package sim

import (
	"fmt"
	"io"
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/metrics"
	"dismem/internal/scenario"
	"dismem/internal/trace"
	"dismem/internal/workload"
)

// Outputs are the consumers a run reports to; every field is optional
// and a nil one costs nothing. The engine turns them into one ordered
// list (attach), delivers each lifecycle event to that list in one
// loop, and closes the sinks exactly once through one latch, on
// whichever terminal path the run takes first: a failed Start or
// StartSource, a Finish error, or Finish success. Outputs are live
// code and writers, so a checkpoint never carries them: a resumed
// future reports only to the outputs its Overrides attach.
type Outputs struct {
	// Observer receives lifecycle callbacks; it must be read-only with
	// respect to engine state (see Observer).
	Observer Observer
	// RecordSink switches metrics to bounded recording: per-job records
	// stream to the sink (metrics.Discard to drop them) instead of
	// being retained, and the Report's percentile fields become
	// streaming estimates (exact up to stats.ExactQuantileBuffer
	// observations, P² beyond); everything else stays exact. Nil keeps
	// the retain-all Recorder. A resumed future keeps its checkpoint's
	// recording mode, and its sink receives only the future's records:
	// the prefix's records went to the parent's sink.
	RecordSink metrics.Sink
	// SeriesSink streams one utilization SeriesPoint per sampling tick
	// (see Config.SampleEvery). A resumed run's series is the
	// uninterrupted run's minus the rows the parent's sink already
	// received: concatenating the two files reproduces the clean run's
	// series byte for byte (JSONL; a CSV resume re-emits the header).
	SeriesSink metrics.SeriesSink
	// TraceSink streams per-job lifecycle trace events (submit,
	// dispatch with placement detail, terminate/kill with reason,
	// failure restarts, scenario interventions) in deterministic firing
	// order; see package trace. Like the series, a resumed run's JSONL
	// trace is the clean run's minus the events already streamed to the
	// parent's sink.
	TraceSink trace.TraceSink
}

// Close closes every attached sink once, in field order, and returns
// the first close error, naming its sink. The engine's close latch
// calls it; a caller calls it directly only for outputs it rejected
// before an engine existed to own them.
func (o Outputs) Close() error {
	var first error
	for _, s := range [...]struct {
		name string
		c    io.Closer
	}{{"record", o.RecordSink}, {"series", o.SeriesSink}, {"trace", o.TraceSink}} {
		if s.c == nil {
			continue
		}
		if err := s.c.Close(); err != nil && first == nil {
			first = fmt.Errorf("sim: closing %s sink: %w", s.name, err)
		}
	}
	return first
}

// samples reports whether any output consumes periodic samples; the
// engine arms its sampling tick chain only for such a consumer.
func (o Outputs) samples() bool { return o.Observer != nil || o.SeriesSink != nil }

// output is one consumer on the engine's output list. Hooks take plain
// values and must not mutate engine state. JobRecord and Sample travel
// by value: through an interface a pointer would move every record to
// the heap, even on a run with no outputs.
type output interface {
	submit(now int64, job *workload.Job)
	dispatch(now int64, job *workload.Job, a *cluster.Allocation, dilation float64)
	passEnd(now int64, dispatched, queueDepth int)
	// restart fires when a failure kill resubmits a running job.
	restart(now int64, job *workload.Job, start int64, restarts int)
	// terminate fires once per job record; failed marks a job killed
	// for good because its failure-restart budget ran out.
	terminate(now int64, rec metrics.JobRecord, failed bool)
	sample(s Sample)
	// scenario fires twice per intervention: before the machine
	// changes (applied false) and after (applied true).
	scenario(now int64, ev scenario.Event, applied bool)
}

// attach turns the configured outputs into the engine's ordered output
// list: the record, series and trace sinks, then the observer. Each
// output's own event order is what its bytes depend on; the order
// across outputs is not observable.
func (e *Engine) attach() {
	o := e.cfg.Outputs
	if o.RecordSink != nil {
		e.outs = append(e.outs, &recordOutput{sink: o.RecordSink})
	}
	if o.SeriesSink != nil {
		e.outs = append(e.outs, &seriesOutput{sink: o.SeriesSink})
	}
	if o.TraceSink != nil {
		e.outs = append(e.outs, &traceOutput{sink: o.TraceSink, m: e.m})
	}
	if o.Observer != nil {
		e.outs = append(e.outs, &observerOutput{obs: o.Observer})
	}
}

// nopOutput implements every hook as a no-op; adapters embed it and
// override the hooks they consume.
type nopOutput struct{}

func (nopOutput) submit(int64, *workload.Job)                                 {}
func (nopOutput) dispatch(int64, *workload.Job, *cluster.Allocation, float64) {}
func (nopOutput) passEnd(int64, int, int)                                     {}
func (nopOutput) restart(int64, *workload.Job, int64, int)                    {}
func (nopOutput) terminate(int64, metrics.JobRecord, bool)                    {}
func (nopOutput) sample(Sample)                                               {}
func (nopOutput) scenario(int64, scenario.Event, bool)                        {}

// recordOutput streams every job record to a record sink.
type recordOutput struct {
	nopOutput
	sink metrics.Sink
}

func (o *recordOutput) terminate(_ int64, rec metrics.JobRecord, _ bool) { o.sink.Add(rec) }

// seriesOutput streams one row per sampling tick to a series sink.
type seriesOutput struct {
	nopOutput
	sink metrics.SeriesSink
}

func (o *seriesOutput) sample(s Sample) {
	o.sink.Add(metrics.SeriesPoint{
		Now:             s.Now,
		QueueDepth:      s.QueueDepth,
		Running:         s.Running,
		Done:            s.Done,
		Events:          s.Events,
		BusyNodes:       s.Usage.BusyNodes,
		UsedCores:       s.Usage.UsedCores,
		UsedLocalMiB:    s.Usage.UsedLocal,
		UsedPoolMiB:     s.Usage.UsedPool,
		PoolDemandGiBps: s.Usage.PoolDemand,
		MaxPoolUtil:     s.Usage.MaxPoolUtil,
		MaxCongest:      s.Usage.MaxCongest,
		Pools:           s.Pools,
	})
}

// observerOutput is the public Observer on the output list.
type observerOutput struct {
	nopOutput
	obs Observer
}

func (o *observerOutput) dispatch(now int64, job *workload.Job, a *cluster.Allocation, dilation float64) {
	o.obs.OnDispatch(now, job, a.RemoteMiB(), dilation)
}

func (o *observerOutput) passEnd(now int64, dispatched, queueDepth int) {
	o.obs.OnPassEnd(now, dispatched, queueDepth)
}

func (o *observerOutput) terminate(now int64, rec metrics.JobRecord, _ bool) {
	o.obs.OnTerminate(now, rec)
}

func (o *observerOutput) sample(s Sample) { o.obs.OnSample(s) }

func (o *observerOutput) scenario(now int64, ev scenario.Event, applied bool) {
	if applied {
		o.obs.OnScenarioEvent(now, ev)
	}
}

// traceOutput turns lifecycle hooks into trace events.
type traceOutput struct {
	nopOutput
	sink trace.TraceSink
	m    *cluster.Machine // resolves the racks a dispatch touches
	// racks and pools are placement scratch, reused across dispatches;
	// chunk is the memory each dispatch's Racks and Pools are carved
	// from (see carve).
	racks, pools, chunk []int
}

// placementChunk is the length of one placement chunk: 4 KiB of ints,
// a few hundred dispatches' racks and pools.
const placementChunk = 512

func (o *traceOutput) submit(now int64, job *workload.Job) {
	o.sink.Add(trace.Event{
		Now: now, Type: trace.Submit,
		Job: job.ID, User: job.User, Nodes: job.Nodes, Submit: job.Submit,
	})
}

func (o *traceOutput) dispatch(now int64, job *workload.Job, a *cluster.Allocation, dilation float64) {
	racks, pools := o.placement(a)
	o.sink.Add(trace.Event{
		Now: now, Type: trace.Dispatch,
		Job: job.ID, User: job.User, Nodes: job.Nodes, Submit: job.Submit,
		Racks:    racks,
		Pools:    pools,
		LocalMiB: a.TotalMiB() - a.RemoteMiB(), RemoteMiB: a.RemoteMiB(),
		Dilation: dilation,
	})
}

func (o *traceOutput) restart(now int64, job *workload.Job, start int64, restarts int) {
	o.sink.Add(trace.Event{
		Now: now, Type: trace.Restart,
		Job: job.ID, User: job.User, Nodes: job.Nodes, Submit: job.Submit,
		Start: start, Restarts: restarts,
	})
}

func (o *traceOutput) terminate(now int64, rec metrics.JobRecord, failed bool) {
	reason := "done"
	switch {
	case rec.Rejected:
		reason = "rejected"
	case failed:
		reason = "failed"
	case rec.Killed:
		reason = "killed"
	}
	o.sink.Add(trace.Event{
		Now: now, Type: trace.Terminate,
		Job: rec.ID, User: rec.User, Nodes: rec.Nodes, Submit: rec.Submit,
		Start: rec.Start, Reason: reason, Restarts: rec.Restarts,
	})
}

// scenario traces an intervention before it is applied, so the kills
// it causes trace after their cause.
func (o *traceOutput) scenario(now int64, ev scenario.Event, applied bool) {
	if !applied {
		o.sink.Add(trace.Event{Now: now, Type: trace.ScenarioEvent, Detail: ev.String()})
	}
}

// placement flattens an allocation's placement for the trace: the
// racks its nodes sit in and the pools it borrows from, each ascending
// (nil when empty). It walks Shares directly (same pool rule as
// TouchedPools) in one pass over reused scratch, then carves the two
// results from the placement chunk.
func (o *traceOutput) placement(a *cluster.Allocation) (racks, pools []int) {
	nodes := o.m.Nodes()
	racks, pools = o.racks[:0], o.pools[:0]
	for _, sh := range a.Shares {
		r := nodes[sh.Node].Rack
		if i, ok := slices.BinarySearch(racks, r); !ok {
			racks = slices.Insert(racks, i, r)
		}
		if sh.RemoteMiB > 0 {
			p := int(sh.Pool)
			if i, ok := slices.BinarySearch(pools, p); !ok {
				pools = slices.Insert(pools, i, p)
			}
		}
	}
	o.racks, o.pools = racks, pools
	return o.carve(racks), o.carve(pools)
}

// carve copies v into the placement chunk and returns the copy, capped
// by a full slice expression so an append to it reallocates. Trace
// consumers such as the dmserve ring and the Perfetto writer keep
// events, so the copy must be fresh memory that nothing ever writes
// again: a chunk is only ever appended to, and a spent one is replaced,
// never reused. A chunk lives as long as the longest-kept event carved
// from it.
func (o *traceOutput) carve(v []int) []int {
	if len(v) == 0 {
		return nil
	}
	if len(v) > cap(o.chunk)-len(o.chunk) {
		o.chunk = make([]int, 0, max(placementChunk, len(v)))
	}
	i := len(o.chunk)
	o.chunk = append(o.chunk, v...)
	return o.chunk[i:len(o.chunk):len(o.chunk)]
}
