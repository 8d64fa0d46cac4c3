package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/source"
	"dismem/internal/workload"
)

// streamJobs is the stream workload's trace length, and
// streamInterarrival its mean interarrival: at 1800 s the default
// machine keeps up (offered load about 0.76), the queue stays a few
// jobs deep, and decode, the event loop and the sink encoders dominate.
const (
	streamJobs         = 100_000
	streamInterarrival = 1800
)

// replayRep is one measured replay: its wall time in seconds, its heap
// allocations, its DES events, and the digest of its outputs.
type replayRep struct {
	wall, allocs float64
	events       uint64
	digest       [32]byte
}

// field lists f of every rep.
func field(reps []replayRep, f func(replayRep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, rep := range reps {
		xs[i] = f(rep)
	}
	return xs
}

func repWall(rep replayRep) float64   { return rep.wall }
func repAllocs(rep replayRep) float64 { return rep.allocs }

// stream is the stream workload: a Lublin SWF trace on disk at path,
// replayed through SWFSource with JSONL record and trace sinks writing
// into counting discard writers.
type stream struct {
	path    string
	machine cluster.Config
	// setup writes the trace; it has run once already.
	setup *setupSampler
}

// open builds the replay's options, with the layer wrappers attached
// when t is non-nil. done runs after the simulation and returns the
// streamed outputs' sizes, which the digest covers beyond the report.
func (s *stream) open(t *tally) (opts dismem.Options, done func() (string, error), err error) {
	f, err := os.Open(s.path)
	if err != nil {
		return dismem.Options{}, nil, err
	}
	in := &countingReader{r: f}
	var swf io.Reader = f
	if t != nil {
		swf = in
	}
	rw, tw := &countingWriter{}, &countingWriter{}
	o := dismem.Options{
		Policy: "memaware", Model: "bandwidth:1,1",
		Source:     dismem.SWFSource(swf, dismem.SWFReadOptions{DefaultMemPerNode: 32 * 1024}),
		RecordSink: dismem.NewJSONLSink(rw),
		TraceSink:  dismem.NewJSONLTraceSink(tw),
	}
	if t != nil {
		if o, err = tapped(o, t); err != nil {
			f.Close()
			return o, nil, err
		}
		o.Source = &sourceTap{inner: o.Source, t: t}
		o.RecordSink = &recordTap{inner: o.RecordSink, t: t}
		o.TraceSink = &traceTap{inner: o.TraceSink, t: t}
	}
	done = func() (string, error) {
		if t != nil {
			t.inBytes, t.sinkBytes, t.traceBytes = in.n, rw.bytes, tw.bytes
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		return fmt.Sprintf("records %d/%d trace %d/%d", rw.bytes, rw.lines, tw.bytes, tw.lines), nil
	}
	return o, done, nil
}

// simulate runs o to completion and checks that every job was accounted
// for.
func simulate(o dismem.Options, done func() (string, error)) (*dismem.Result, string, error) {
	res, err := dismem.Simulate(o)
	if err != nil {
		return nil, "", err
	}
	extra, err := done()
	if err != nil {
		return nil, "", err
	}
	if got := res.Report.Jobs() + res.Report.Rejected; got != streamJobs {
		return nil, "", fmt.Errorf("replay accounted for %d jobs, want %d", got, streamJobs)
	}
	return res, extra, nil
}

// once runs one timed replay.
func (s *stream) once(t *tally) (replayRep, error) {
	o, done, err := s.open(t)
	if err != nil {
		return replayRep{}, err
	}
	runtime.GC()
	m0 := mallocs()
	start := time.Now()
	res, extra, err := simulate(o, done)
	rep := replayRep{wall: time.Since(start).Seconds(), allocs: float64(mallocs() - m0)}
	if err != nil {
		return rep, err
	}
	rep.events = res.Events
	rep.digest = sha256.Sum256(fmt.Appendf(nil, "%+v|%d|%s", *res.Report, res.Events, extra))
	return rep, nil
}

// peakHeap replays once more, untimed, with an observer that forces a
// collection every heapProbeEvery terminations, and returns the largest
// live heap it saw in bytes. Forcing the collection at fixed points of
// the replay makes the figure repeat from run to run.
func (s *stream) peakHeap() (uint64, error) {
	o, done, err := s.open(nil)
	if err != nil {
		return 0, err
	}
	probe := &heapProbe{}
	o.Observer = probe
	runtime.GC()
	if _, _, err := simulate(o, done); err != nil {
		return 0, err
	}
	return probe.peak, nil
}

// run measures the workload. Untraced, it repeats the replay for the
// run's seconds after one warm-up replay, timing the set-up again after
// each, and reports medians. Traced, it alternates untraced and traced
// replays, reports the per-layer metrics of the median traced one, and
// the tracing overhead. Every replay's digest must equal the warm-up's.
func (s *stream) run(c config, r *result) error {
	ref, err := s.once(nil)
	if err != nil {
		return err
	}
	r.check(true, "")
	var plain, traced []replayRep
	var tallied []*tally
	err = repeatFor(c.seconds, 2, func() error {
		rep, err := s.once(nil)
		if err != nil {
			return err
		}
		r.check(rep.digest == ref.digest, "untraced replay digest differs from the warm-up's")
		plain = append(plain, rep)
		if !c.trace {
			return s.setup.sampleAfter(time.Duration(rep.wall * float64(time.Second)))
		}
		t := &tally{machine: s.machine}
		rep, err = s.once(t)
		if err != nil {
			return err
		}
		r.check(rep.digest == ref.digest, "traced replay digest differs from the untraced one")
		traced = append(traced, rep)
		tallied = append(tallied, t)
		return nil
	})
	if err != nil {
		return err
	}
	wall := median(field(plain, repWall))
	if !c.trace {
		r.set("setup_s", s.setup.median(), "s")
		r.set("ops_per_s", streamJobs/wall, "1/s")
		r.set("latency_ms", wall*1e3, "ms")
		r.set("allocs_per_op", median(field(plain, repAllocs))/streamJobs, "count")
		peak, err := s.peakHeap()
		if err != nil {
			return err
		}
		r.detail("peak_heap_mb", float64(peak)/1e6, "MB")
		return nil
	}
	tw := field(traced, repWall)
	r.set("bench.trace_overhead_ratio", median(tw)/wall, "ratio")
	mid := medianIndex(tw)
	return replayLayers(r, tallied[mid], streamJobs, traced[mid].events, tw[mid])
}

// medianIndex returns the index of the lower median of xs.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(xs)-1)/2]
}

// tapped replaces o's policy and model strings with wrapped instances.
func tapped(o dismem.Options, t *tally) (dismem.Options, error) {
	s, err := tappedScheduler(o.Policy, t)
	if err != nil {
		return o, err
	}
	m, err := dismem.ParseModel(o.Model)
	if err != nil {
		return o, err
	}
	o.SchedulerImpl, o.Policy = s, ""
	o.ModelImpl, o.Model = &modelTap{inner: m, t: t}, ""
	return o, nil
}

// runStream replays a Lublin SWF trace from disk through SWFSource,
// streaming records and trace events as JSONL into counting discard
// writers.
func runStream(c config) (*result, error) {
	r := newResult()
	dir, err := os.MkdirTemp("", "perfbench-stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &stream{path: filepath.Join(dir, "trace.swf"), machine: dismem.DefaultMachine()}
	s.setup = &setupSampler{setup: func() error { return writeLublinSWF(s.path, c.seed, s.machine.TotalNodes()) }}
	if err := s.setup.sample(); err != nil {
		return nil, err
	}
	st, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	note("stream: %d jobs, %d-byte SWF trace, seed %d", streamJobs, st.Size(), c.seed)
	if err := s.run(c, r); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// writeLublinSWF writes the stream workload's trace to path.
func writeLublinSWF(path string, seed uint64, nodes int) error {
	cfg := workload.DefaultLublinConfig(0, seed, nodes)
	cfg.MeanInterarrival = streamInterarrival
	st, err := workload.NewLublinStream(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.NewSWFWriter(f).WriteAll(source.Gen(st, streamJobs, 0).Next); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
