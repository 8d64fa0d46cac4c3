// Command dmsched runs one batch-scheduling simulation and prints the
// resulting report.
//
// The workload is either synthetic (default) or an SWF trace given with
// -swf. The machine, policy, memory model, scenario and failure
// injection are set with the run flags it shares with dmserve
// (internal/config):
//
//	dmsched -policy memaware -local 64 -pool 4096 -model linear:0.5
//	dmsched -swf trace.swf -node-cores 32 -policy easy-oblivious
//	dmsched -mtbf 2000000 -repair 7200 -failure-seed 3
//
// Beyond the legacy policy names, -policy accepts a composable policy
// spec, and -progress streams live simulation state to stderr while the
// run is in flight:
//
//	dmsched -policy "order=sjf backfill=easy placer=memaware cap=3" -progress 6h
//
// -scenario perturbs the run with a deterministic intervention
// timeline (outages, pool resizes, penalty shifts, surges; see
// dismem.ParseScenario for the grammar):
//
//	dmsched -scenario "at=21600 down rack=2; at=64800 up rack=2"
//
// For archive-scale traces, -swf-stream replays the trace with memory
// bounded by live simulation state (not trace length), and
// -records-out streams per-job records to a JSONL/CSV file instead of
// retaining them (report percentiles become P² estimates beyond the
// exact-buffer threshold):
//
//	dmsched -swf trace.swf -swf-stream -records-out records.jsonl
//
// -checkpoint-at freezes the run at a virtual instant and replays a
// forked future from it — identical by default (a determinism check),
// or under a different intervention tail with -fork-scenario:
//
//	dmsched -checkpoint-at 43200 -fork-scenario "at=50000 down rack=2; at=64800 up rack=2"
//
// Long runs are interruptible: with -ckpt-save, SIGINT/SIGTERM freezes
// the run, writes a durable versioned checkpoint file (atomic
// temp+rename), prints the partial report, and exits with status 3.
// -ckpt-load resumes such a file and completes the run — bit-identical
// to the uninterrupted run. The checkpoint carries the run's
// description, so -ckpt-load rejects every run flag but -v:
//
//	dmsched -jobs 50000 -ckpt-save run.dmckpt     # ^C to interrupt
//	dmsched -ckpt-load run.dmckpt                 # finish the run
//
// -series-out streams the utilization time series (queue depth,
// running jobs, memory and pool usage per sampling tick) to a
// JSONL/CSV file, and -metrics-addr serves the same live state as a
// Prometheus text-format /metrics endpoint while the run is in
// flight. The sampling tick chain is part of the checkpointed state,
// so series files compose across -ckpt-save/-ckpt-load: the resumed
// run's series is exactly the suffix of an uninterrupted run's.
//
//	dmsched -jobs 50000 -series-out util.jsonl -metrics-addr :9090
//
// -trace-out streams the per-job lifecycle trace (submit, dispatch
// with placement detail, terminate with reason, restarts, scenario
// interventions) to a file; -trace-format picks JSONL (default) or
// Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
// Tracing is event-driven — it needs no sampling period. The JSONL
// form composes across -ckpt-save/-ckpt-load exactly like the series:
// an interrupted run's trace plus the resumed run's concatenate to the
// uninterrupted run's file, byte for byte.
//
//	dmsched -jobs 50000 -trace-out trace.json -trace-format perfetto
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dismem"
	"dismem/internal/config"
	"dismem/internal/profiling"
	"dismem/internal/report"
	"dismem/internal/serve"
	"dismem/internal/telemetry"
)

// exitInterrupted is the distinct status for a resumable interruption
// (signal mid-run), as opposed to 1 (failure) and 2 (bad usage).
const exitInterrupted = 3

func main() {
	run := config.Register(flag.CommandLine)
	var (
		progress  = flag.Duration("progress", 0, "print live progress to stderr every given span of simulated time (e.g. 6h; 0 = off)")
		swfStream = flag.Bool("swf-stream", false, "stream the -swf trace instead of loading it: memory stays bounded by live simulation state, not trace length (requires a submit-sorted trace; implies bounded metrics recording, so report percentiles are streaming estimates: exact up to 1024 jobs, P² beyond)")
		recordOut = flag.String("records-out", "", "stream per-job records to this file (.csv for CSV, else JSONL) with bounded metrics recording; report percentiles become streaming estimates (exact up to 1024 jobs, P² beyond)")
		cpAt      = flag.Int64("checkpoint-at", 0, "virtual time (seconds) to checkpoint the run at: the run is frozen there, completed, and a forked future is replayed from the same instant and printed after the original report (0 = off; not with -swf-stream, whose source cannot fork)")
		forkScen  = flag.String("fork-scenario", "", `scenario timeline for the forked future (requires -checkpoint-at): replaces the interventions remaining after the checkpoint, e.g. "at=50000 down rack=2; at=60000 up rack=2"`)
		ckptSave  = flag.String("ckpt-save", "", "on SIGINT/SIGTERM, freeze the run, write a durable checkpoint to this file, and exit with status 3 (resume with -ckpt-load)")
		ckptLoad  = flag.String("ckpt-load", "", "resume a run from a checkpoint file written by -ckpt-save; the checkpoint carries the workload, machine, policy, model, scenario and failures, so those flags are rejected")
		seriesOut = flag.String("series-out", "", "stream the utilization series to this file (.csv for CSV, else JSONL), one row per sampling tick; composes with -ckpt-save/-ckpt-load (the resumed series is the clean run's suffix)")
		traceOut  = flag.String("trace-out", "", "stream the per-job lifecycle trace to this file; JSONL composes with -ckpt-save/-ckpt-load (the resumed trace is the clean run's suffix)")
		traceFmt  = flag.String("trace-format", "jsonl", "trace encoding for -trace-out: jsonl | perfetto (Chrome trace-event JSON for Perfetto / chrome://tracing)")
		seriesEv  = flag.Duration("series-every", 0, "sampling period for -series-out and -metrics-addr in simulated time (default 1h; on -ckpt-load, 0 keeps the checkpointed period and phase)")
		metrAddr  = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) with live run state on this address while the run is in flight")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile (pprof allocs: cumulative sites plus post-GC in-use heap) to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfiling = stopProf
	defer flushProfiles()

	if *forkScen != "" && *cpAt <= 0 {
		fatalf("-fork-scenario requires -checkpoint-at")
	}
	if *seriesEv > 0 && *seriesOut == "" && *metrAddr == "" {
		fatalf("-series-every requires -series-out or -metrics-addr")
	}
	if *traceFmt != "jsonl" && *traceFmt != "perfetto" {
		fatalf("-trace-format %q: want jsonl or perfetto", *traceFmt)
	}
	if *ckptSave != "" && *traceOut != "" && *traceFmt == "perfetto" {
		// A perfetto file is one JSON document, not a line stream: an
		// interrupted file and a resumed file are each valid on their
		// own but do not concatenate. Only JSONL traces compose.
		fatalf("-ckpt-save composes only with -trace-format jsonl (a perfetto trace is a single JSON document and cannot be concatenated across an interrupt)")
	}
	if *ckptSave != "" {
		if *swfStream {
			fatalf("-ckpt-save cannot be combined with -swf-stream (a streamed trace source cannot checkpoint)")
		}
		if *recordOut != "" {
			fatalf("-ckpt-save cannot be combined with -records-out (a streamed record sink cannot be carried across a checkpoint)")
		}
		// -series-out IS allowed with -ckpt-save: the sampling tick
		// chain is checkpointed, so an interrupted series file plus the
		// resumed run's file concatenate to the uninterrupted series.
		if *cpAt > 0 {
			fatalf("-ckpt-save cannot be combined with -checkpoint-at")
		}
	}
	tele := newTelemetry(*progress, *seriesEv, *seriesOut, *metrAddr, *traceOut, *traceFmt)
	if *ckptLoad != "" {
		if *cpAt > 0 || *swfStream || *recordOut != "" {
			fatalf("-ckpt-load resumes a self-contained run; it only combines with -progress, -series-out, -series-every, -metrics-addr, -trace-out, -trace-format, -v and -ckpt-save")
		}
		if given := run.Given(); len(given) > 0 {
			fatalf("-ckpt-load resumes a self-contained run: the checkpoint carries its workload, machine, policy, model, scenario and failures, so -%s cannot apply", strings.Join(given, ", -"))
		}
		runFromCheckpoint(*ckptLoad, *ckptSave, tele)
		return
	}
	if *cpAt > 0 && *swfStream {
		// Fail in milliseconds, not after simulating the whole prefix:
		// a streamed SWF source cannot fork (see source.Forkable).
		fatalf("-checkpoint-at cannot be combined with -swf-stream (a streamed trace source cannot fork; load the trace with -swf alone)")
	}
	// Parse the fork scenario up front for the same reason: a grammar
	// typo or an unsupported modulation must not cost a full prefix
	// simulation before erroring.
	var forkSc *dismem.Scenario
	if *forkScen != "" {
		var err error
		forkSc, err = dismem.ParseScenario(*forkScen)
		if err != nil {
			fatalf("-fork-scenario: %v", err)
		}
		if forkSc.Modulates() {
			fatalf("-fork-scenario must not modulate arrivals (surge/diurnal warp submit times before a run starts and cannot be re-applied at a fork)")
		}
	}
	opts, err := run.Options()
	if err != nil {
		fatalf("%v", err)
	}
	if *swfStream {
		if run.SWF == "" {
			fatalf("-swf-stream requires -swf")
		}
		f, err := os.Open(run.SWF)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		// Bounded-memory replay: jobs decode lazily as the clock
		// reaches them; nothing is materialised (so no upfront
		// skipped-record count and no -v summary).
		opts.Source = dismem.SWFSource(f, run.SWFOptions(opts.Machine))
		if run.Verbose {
			fmt.Fprintln(os.Stderr, "note: -v workload summary unavailable when streaming (-swf-stream)")
		}
	} else if opts.Workload, err = run.Workload(opts.Machine, os.Stdout, os.Stderr); err != nil {
		fatalf("%v", err)
	}

	if *recordOut != "" {
		f, err := os.Create(*recordOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *recordOut, err)
			}
		}()
		if strings.HasSuffix(*recordOut, ".csv") {
			opts.RecordSink = dismem.NewCSVSink(f)
		} else {
			opts.RecordSink = dismem.NewJSONLSink(f)
		}
	} else if *swfStream {
		// Streaming a trace only to retain every record would defeat
		// the point: without -records-out, drop records and keep the
		// whole run flat-memory.
		opts.RecordSink = dismem.DiscardRecords
	}
	if *cpAt > 0 {
		runCheckpointed(run.Policy, opts, tele, *cpAt, forkSc, *recordOut, *seriesOut, *traceOut, *traceFmt)
		return
	}
	h, err := dismem.New(tele.apply(opts))
	if err != nil {
		fatalf("%v", err)
	}
	driveAndReport(h, run.Policy, *ckptSave)
}

// driveAndReport advances the simulation to completion from the main
// goroutine, handling SIGINT/SIGTERM gracefully: the run is truncated
// at a clean event boundary, optionally frozen to a durable checkpoint
// file, reported as a prefix, and the process exits with status 3.
func driveAndReport(h *dismem.Simulation, label, ckptSave string) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	interrupted := drive(ctx, h, ckptSave)
	res, err := h.Result()
	if err != nil {
		fatalf("%v", err)
	}
	printReport(label, res)
	if interrupted {
		flushProfiles()
		os.Exit(exitInterrupted)
	}
}

// drive runs the simulation in bounded chunks of virtual time, checking
// for cancellation between chunks so an interrupt is acted on at an
// event boundary on the main goroutine (never a cross-goroutine Stop
// racing the event loop). On interruption it writes the requested
// checkpoint before truncating, so the saved state is exactly the
// reported prefix.
func drive(ctx context.Context, h *dismem.Simulation, ckptSave string) bool {
	const chunk = 3600 // virtual seconds between interrupt checks
	for !h.Done() {
		if ctx.Err() != nil {
			if ckptSave != "" {
				cp, err := h.Checkpoint()
				if err != nil {
					fatalf("checkpoint at t=%d: %v", h.Now(), err)
				}
				if err := dismem.WriteCheckpointFile(ckptSave, cp); err != nil {
					fatalf("%v", err)
				}
				fmt.Fprintf(os.Stderr, "dmsched: interrupted at t=%d s; resume with -ckpt-load %s\n", h.Now(), ckptSave)
			} else {
				fmt.Fprintf(os.Stderr, "dmsched: interrupted at t=%d s (no -ckpt-save; reporting the partial run)\n", h.Now())
			}
			h.Stop()
			return true
		}
		h.RunUntil(h.Now() + chunk)
	}
	return false
}

// runFromCheckpoint resumes a durable checkpoint file and completes the
// run — or freezes it again on a further interrupt when ckptSave is
// set (checkpoints chain across any number of interruptions). The
// sampling tick chain is part of the checkpointed state, so with an
// equal (or unset) period the resumed run's -series-out file is
// exactly the suffix the uninterrupted run would have produced after
// the interrupt instant; a different explicit period restarts the
// chain fresh at the resume instant. The -trace-out file likewise
// holds exactly the clean run's trace suffix (tracing is event-driven
// and needs no period at all).
func runFromCheckpoint(path, ckptSave string, tele *liveTelemetry) {
	cp, err := dismem.ReadCheckpointFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	fo := dismem.ForkOptions{
		Observer: tele.observer,
		// 0 keeps the checkpointed period and phase (the series
		// suffix-composition contract); a nonzero equal value is the
		// same, a different one re-arms the chain at the resume
		// instant.
		SampleEvery: tele.sampleEvery,
		SeriesSink:  tele.sink,
		TraceSink:   tele.trace,
	}
	if fo.SampleEvery == 0 && tele.wantsSampling() && cp.SampleEvery() == 0 {
		// The checkpointed run never sampled, so there is no phase to
		// preserve: arm a fresh chain at the default period rather
		// than silently producing an empty series.
		fo.SampleEvery = defaultSampleEvery
	}
	h, err := dismem.Fork(cp, fo)
	if err != nil {
		fatalf("%v", err)
	}
	driveAndReport(h, "resumed:"+filepath.Base(path), ckptSave)
}

// runCheckpointed freezes the run at virtual time at, completes the
// original, then replays a forked future from the same instant —
// under forkSc's intervention tail when given, otherwise identical:
// both printed reports must match, which the CI fork-determinism
// smoke checks. The sampling tick chain is checkpointed state, and the
// fork is re-armed at the same period, so the reports match even with
// -progress/-series-out active — the fork's samples stay in phase
// with the original's. With -records-out (-series-out, -trace-out),
// the forked run's records (series, trace) stream to a sibling
// <path>.fork file (the original's sink cannot be shared across runs).
func runCheckpointed(label string, opts dismem.Options, tele *liveTelemetry, at int64, forkSc *dismem.Scenario, recordOut, seriesOut, traceOut, traceFmt string) {
	opts = tele.apply(opts)
	h, err := dismem.New(opts)
	if err != nil {
		fatalf("%v", err)
	}
	h.RunUntil(at)
	cp, err := h.Checkpoint()
	if err != nil {
		fatalf("checkpoint at t=%d: %v", at, err)
	}
	res, err := h.Run()
	if err != nil {
		fatalf("%v", err)
	}
	printReport(label, res)

	// The fork gets the same observer (observers are never carried
	// across a checkpoint; see dismem.ForkOptions), the same sampling
	// period (equal period = in-phase continuation of the checkpointed
	// tick chain), and its own sink files.
	fo := dismem.ForkOptions{Observer: opts.Observer, SampleEvery: opts.SampleEvery, Scenario: forkSc}
	if recordOut != "" {
		forkOut := recordOut + ".fork"
		f, err := os.Create(forkOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", forkOut, err)
			}
		}()
		if strings.HasSuffix(recordOut, ".csv") {
			fo.RecordSink = dismem.NewCSVSink(f)
		} else {
			fo.RecordSink = dismem.NewJSONLSink(f)
		}
		fmt.Fprintf(os.Stderr, "note: forked run records stream to %s\n", forkOut)
	}
	if seriesOut != "" {
		forkOut := seriesOut + ".fork"
		fo.SeriesSink = openSeriesSink(forkOut)
		fmt.Fprintf(os.Stderr, "note: forked run series streams to %s\n", forkOut)
	}
	if traceOut != "" {
		forkOut := traceOut + ".fork"
		fo.TraceSink = openTraceSink(forkOut, traceFmt)
		fmt.Fprintf(os.Stderr, "note: forked run trace streams to %s\n", forkOut)
	}
	fork, err := dismem.Fork(cp, fo)
	if err != nil {
		fatalf("fork: %v", err)
	}
	fres, err := fork.Run()
	if err != nil {
		fatalf("fork: %v", err)
	}
	fmt.Printf("--- fork at t=%d ---\n", at)
	printReport(label, fres)
}

// defaultSampleEvery is the sampling period (simulated seconds) used
// when -series-out or -metrics-addr need ticks but no explicit period
// was given via -series-every or -progress.
const defaultSampleEvery = 3600

// liveTelemetry bundles the consumers of the engine's observation
// hooks — the -progress printer, the -series-out sink and the
// -metrics-addr gauges on the sampling clock, plus the event-driven
// -trace-out sink — resolved from their flags once and wired
// identically into every run path.
type liveTelemetry struct {
	sampleEvery int64             // explicit period from flags (0 = none given)
	observer    dismem.Observer   // progress printer and/or gauge mirror (nil = neither)
	sink        dismem.SeriesSink // -series-out sink (nil = none)
	trace       dismem.TraceSink  // -trace-out sink (nil = none; needs no sampling)
}

// newTelemetry resolves the observation flags. It is also the flag
// validator: -progress and -series-every drive the same clock, so
// disagreeing periods are a fatal usage error, not a silent pick.
func newTelemetry(progress, seriesEv time.Duration, seriesOut, metrAddr, traceOut, traceFmt string) *liveTelemetry {
	prog := periodSeconds(progress)
	ser := periodSeconds(seriesEv)
	if prog > 0 && ser > 0 && prog != ser {
		fatalf("-progress %v and -series-every %v disagree; the run has a single sampling clock, so pass equal periods (or drop one)", progress, seriesEv)
	}
	t := &liveTelemetry{sampleEvery: prog}
	if ser > 0 {
		t.sampleEvery = ser
	}
	var obs []dismem.Observer
	if prog > 0 {
		obs = append(obs, progressPrinter{})
	}
	if metrAddr != "" {
		g := telemetry.NewGaugeSet()
		bound, err := telemetry.ListenAndServe(metrAddr, g)
		if err != nil {
			fatalf("-metrics-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dmsched: serving http://%s/metrics\n", bound)
		obs = append(obs, &gaugeObserver{g: g})
	}
	switch len(obs) {
	case 0:
	case 1:
		t.observer = obs[0]
	default:
		t.observer = fanObserver{targets: obs}
	}
	if seriesOut != "" {
		t.sink = openSeriesSink(seriesOut)
	}
	if traceOut != "" {
		t.trace = openTraceSink(traceOut, traceFmt)
	}
	return t
}

// periodSeconds converts a duration flag to whole simulated seconds;
// sub-second values still mean "sample" (clamped up to 1s).
func periodSeconds(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	if s := int64(d / time.Second); s >= 1 {
		return s
	}
	return 1
}

// wantsSampling reports whether any consumer needs the sampling tick
// chain armed. The trace sink deliberately does not count: tracing is
// event-driven and works with sampling off entirely.
func (t *liveTelemetry) wantsSampling() bool {
	return t.observer != nil || t.sink != nil
}

// apply wires the resolved consumers into a fresh run's options,
// defaulting the period when a consumer needs ticks and no explicit
// period was given.
func (t *liveTelemetry) apply(opts dismem.Options) dismem.Options {
	opts.Observer = t.observer
	opts.SeriesSink = t.sink
	opts.TraceSink = t.trace
	opts.SampleEvery = t.sampleEvery
	if opts.SampleEvery == 0 && t.wantsSampling() {
		opts.SampleEvery = defaultSampleEvery
	}
	return opts
}

// fanObserver fans each sample out to several consumers in order.
type fanObserver struct {
	dismem.NopObserver
	targets []dismem.Observer
}

// OnSample implements dismem.Observer.
func (f fanObserver) OnSample(s dismem.Sample) {
	for _, o := range f.targets {
		o.OnSample(s)
	}
}

// gaugeObserver mirrors each sample into the /metrics gauges, with the
// same metric names dmserve exports for its baseline.
type gaugeObserver struct {
	dismem.NopObserver
	g *telemetry.GaugeSet
}

// OnSample implements dismem.Observer.
func (o *gaugeObserver) OnSample(s dismem.Sample) { serve.MirrorSample(o.g, s) }

// fileSeriesSink closes the underlying file when the engine closes the
// sink (the engine closes it on every terminal path, including an
// interrupted run), so the series is fully on disk when the run
// reports.
type fileSeriesSink struct {
	dismem.SeriesSink
	f *os.File
}

// Close implements dismem.SeriesSink.
func (s *fileSeriesSink) Close() error {
	err := s.SeriesSink.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSeriesSink creates the -series-out file and picks the encoding
// by suffix (.csv = CSV, anything else = JSONL).
func openSeriesSink(path string) dismem.SeriesSink {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if strings.HasSuffix(path, ".csv") {
		return &fileSeriesSink{SeriesSink: dismem.NewCSVSeriesSink(f), f: f}
	}
	return &fileSeriesSink{SeriesSink: dismem.NewJSONLSeriesSink(f), f: f}
}

// fileTraceSink closes the underlying file when the engine closes the
// sink — on every terminal path, including an interrupted run — so
// the trace is fully on disk when the run reports.
type fileTraceSink struct {
	dismem.TraceSink
	f *os.File
}

// Close implements dismem.TraceSink.
func (s *fileTraceSink) Close() error {
	err := s.TraceSink.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openTraceSink creates the -trace-out file in the requested encoding
// (format is validated at flag-parse time).
func openTraceSink(path, format string) dismem.TraceSink {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if format == "perfetto" {
		return &fileTraceSink{TraceSink: dismem.NewPerfettoTraceSink(f), f: f}
	}
	return &fileTraceSink{TraceSink: dismem.NewJSONLTraceSink(f), f: f}
}

// progressPrinter streams one status line per sample tick.
type progressPrinter struct{ dismem.NopObserver }

// OnSample implements dismem.Observer.
func (progressPrinter) OnSample(s dismem.Sample) {
	fmt.Fprintf(os.Stderr,
		"t=%7.1fh  queued %4d  running %4d  done %6d  busy %3d nodes  pool %5.1f%%  %d events\n",
		float64(s.Now)/3600, s.QueueDepth, s.Running, s.Done,
		s.Usage.BusyNodes, 100*s.Usage.MaxPoolUtil, s.Events)
}

func printReport(policy string, res *dismem.Result) {
	fmt.Print(report.Format(policy, res))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dmsched: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}

// stopProfiling finalises -cpuprofile/-memprofile; flushProfiles runs
// it at most once, so the deferred call and the explicit calls ahead
// of os.Exit compose.
var stopProfiling func() error

func flushProfiles() {
	if stopProfiling == nil {
		return
	}
	if err := stopProfiling(); err != nil {
		fmt.Fprintf(os.Stderr, "dmsched: %v\n", err)
	}
	stopProfiling = nil
}
