// Package dismem is a simulator and scheduling library for batch job
// scheduling on HPC systems with disaggregated memory resources.
//
// It reproduces the system of the CLUSTER 2024 paper "Job Scheduling in
// High Performance Computing Systems with Disaggregated Memory
// Resources": a discrete-event simulation of racks of nodes with
// reduced local DRAM plus rack-level (or global) memory pools, batch
// schedulers ranging from classic FCFS/EASY/conservative baselines to
// the disaggregation-aware policy, and the metrics the paper's
// evaluation reports.
//
// Quick start — fire and forget:
//
//	wl := dismem.SyntheticWorkload(5000, 1)
//	res, err := dismem.Simulate(dismem.Options{
//		Machine:  dismem.DefaultMachine(),
//		Policy:   "memaware",
//		Model:    "linear:0.5",
//		Workload: wl,
//	})
//
// Policies are composable specs: any combination of queue order,
// backfill discipline, placement policy and chassis knobs can be
// written inline,
//
//	res, err := dismem.Simulate(dismem.Options{
//		Policy:   "order=sjf backfill=easy placer=memaware cap=3 patience=1800",
//		Workload: wl,
//	})
//
// and every legacy name ("memaware", "easy-local", ...) is an alias
// resolved through the same grammar (see NewScheduler).
//
// For observation and control while a run is in flight, New returns a
// steppable handle instead of a finished result:
//
//	s, err := dismem.New(dismem.Options{Policy: "memaware", Workload: wl})
//	for !s.Done() {
//		s.RunUntil(s.Now() + 3600) // advance one simulated hour
//		fmt.Println(s.Now(), s.QueueDepth(), s.Usage().BusyNodes)
//	}
//	res, err := s.Result()
//
// A live Simulation can be frozen and forked into divergent futures —
// the "same prefix, divergent futures" methodology of outage and
// policy what-if studies — without replaying the shared prefix:
//
//	s.RunUntil(21600)                    // replay the morning
//	cp, err := s.Checkpoint()            // freeze 06:00
//	base, err := dismem.Fork(cp, dismem.ForkOptions{})
//	hit, err := dismem.Fork(cp, dismem.ForkOptions{Scenario: outage})
//
// A fork with no overrides is bit-identical to a from-scratch run
// (DESIGN.md §8); overrides swap the scenario tail, policy, or
// failure seed from the fork instant on.
//
// Checkpoints are also durable: SaveCheckpoint/LoadCheckpoint (and the
// atomic WriteCheckpointFile/ReadCheckpointFile) serialize a frozen
// run as a versioned, digest-protected envelope, so it survives the
// process and resumes bit-identically in another one — corrupted,
// truncated or version-skewed files are always rejected, never
// silently misread (DESIGN.md §9). dmsched -ckpt-save/-ckpt-load build
// on this, and the crash-safe dmsweep -store/-resume shares its
// durability discipline: it resumes from the run store, where a unit
// is done exactly when its record is archived.
//
// Runs can be perturbed by a deterministic scenario timeline — outages
// and recoveries, pool degradation, fabric brownouts, arrival surges
// and diurnal cycles, staged growth — compiled from the same key=value
// grammar family (see ParseScenario):
//
//	sc, err := dismem.ParseScenario("at=21600 down rack=2; at=64800 up rack=2")
//	res, err := dismem.Simulate(dismem.Options{
//		Policy: "memaware", Workload: wl, Scenario: sc,
//	})
//
// Interventions run as ordinary simulation events, so scenario runs
// replay bit-identically per seed.
//
// Workloads can stream instead of materialising: Options.Source pulls
// jobs lazily (SWF traces via SWFSource, lazy generators via
// GenSource/LublinSource), and Options.RecordSink streams per-job
// records out instead of retaining them, so memory stays bounded by
// live simulation state rather than trace length — a million-job
// replay runs in a few megabytes:
//
//	f, _ := os.Open("million_jobs.swf")
//	res, err := dismem.Simulate(dismem.Options{
//		Policy:     "memaware",
//		Source:     dismem.SWFSource(f, dismem.SWFReadOptions{}),
//		RecordSink: dismem.DiscardRecords, // or NewJSONLSink(out)
//	})
//
// Streamed replays are bit-identical to slice replays of the same
// trace; bounded recording keeps every report field exact except the
// four percentile fields, which become streaming estimates — exact up
// to 1024 jobs, P² beyond (DESIGN.md §7).
//
// Observer hooks (Options.Observer, Options.SampleEvery) deliver
// per-dispatch, per-termination, per-pass, per-intervention and
// periodic-sample callbacks without polling.
//
// See the examples directory for complete programs and DESIGN.md for
// the architecture and experiment inventory.
package dismem

import (
	"fmt"
	"io"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/metrics"
	"dismem/internal/scenario"
	"dismem/internal/sched"
	"dismem/internal/sim"
	"dismem/internal/source"
	"dismem/internal/spec"
	"dismem/internal/trace"
	"dismem/internal/workload"
)

// Re-exported types: the public API surface wraps the internal packages
// so downstream users never import dismem/internal/... directly.
type (
	// MachineConfig describes the simulated machine (see
	// internal/cluster.Config for field documentation).
	MachineConfig = cluster.Config
	// Workload is an ordered batch of jobs.
	Workload = workload.Workload
	// Job is one batch job.
	Job = workload.Job
	// GenConfig parameterises the synthetic workload generator.
	GenConfig = workload.GenConfig
	// LublinConfig parameterises the Lublin-Feitelson workload model.
	LublinConfig = workload.LublinConfig
	// Report is the reduced result of one simulation.
	Report = metrics.Report
	// JobRecord is the per-job outcome.
	JobRecord = metrics.JobRecord
	// Result bundles report, per-job records and event counts.
	Result = sim.Result
	// Scheduler is the scheduling-policy interface.
	Scheduler = sched.Scheduler
	// MemoryModel maps remote fraction and congestion to dilation.
	MemoryModel = memmodel.Model
	// FailureConfig parameterises node failure injection.
	FailureConfig = sim.FailureConfig
	// Scenario is a deterministic intervention timeline: outages and
	// recoveries, pool degradation/resize, remote-penalty shifts,
	// arrival surges and diurnal cycles, staged machine growth. Build
	// one with ParseScenario or construct it literally; see
	// internal/scenario for the grammar and the determinism contract.
	Scenario = scenario.Scenario
	// ScenarioEvent is one timed intervention of a Scenario, delivered
	// to Observer.OnScenarioEvent when applied.
	ScenarioEvent = scenario.Event
	// Observer receives engine lifecycle callbacks (see Options).
	// Implementations must be read-only w.r.t. engine state.
	Observer = sim.Observer
	// NopObserver is an embeddable no-op Observer.
	NopObserver = sim.NopObserver
	// Sample is the live-state snapshot observers and the Simulation
	// handle expose.
	Sample = sim.Sample
	// Usage is the machine occupancy snapshot.
	Usage = cluster.Usage
	// Source streams jobs into a simulation lazily, in nondecreasing
	// submit order, so memory stays bounded by live state instead of
	// trace length. Build one with WorkloadSource, SWFSource, GenSource
	// or LublinSource, and attach it with Options.Source; see
	// internal/source for the contract.
	Source = source.Source
	// Sink consumes per-job records as they are produced: the
	// bounded-memory alternative to retaining them all. Build one with
	// NewJSONLSink / NewCSVSink (or use DiscardRecords) and attach it
	// with Options.RecordSink.
	Sink = metrics.Sink
	// SeriesSink consumes periodic utilization samples as a run
	// produces them: the time-series analogue of Sink. Build one with
	// NewJSONLSeriesSink / NewCSVSeriesSink (or use DiscardSeries) and
	// attach it with Options.SeriesSink plus a SampleEvery period.
	SeriesSink = metrics.SeriesSink
	// SeriesPoint is one row of the utilization time series a
	// SeriesSink receives (see internal/metrics for the wire schema).
	SeriesPoint = metrics.SeriesPoint
	// TraceSink consumes per-job lifecycle trace events — submit,
	// dispatch with placement detail, terminate/kill with reason,
	// failure restarts, scenario interventions — in deterministic
	// firing order. Build one with NewJSONLTraceSink /
	// NewPerfettoTraceSink (or use DiscardTrace) and attach it with
	// Options.TraceSink; see internal/trace for the contract.
	TraceSink = trace.TraceSink
	// TraceEvent is one typed trace event a TraceSink receives (see
	// internal/trace for the taxonomy and wire schema).
	TraceEvent = trace.Event
	// SWFReadOptions controls SWF trace import (ReadSWF and SWFSource).
	SWFReadOptions = workload.SWFReadOptions
)

// DiscardRecords is the Sink that drops every record: bounded
// recording with no streamed output. The Report still carries exact
// counts and means plus streaming percentile estimates (exact up to
// 1024 jobs, P² beyond).
var DiscardRecords Sink = metrics.Discard

// DiscardSeries is the SeriesSink that drops every sample: sampling
// runs (observers still fire) but no series is exported.
var DiscardSeries SeriesSink = metrics.DiscardSeries

// DiscardTrace is the TraceSink that drops every event.
var DiscardTrace TraceSink = trace.Discard

// Topology constants for MachineConfig.
const (
	TopologyNone   = cluster.TopologyNone
	TopologyRack   = cluster.TopologyRack
	TopologyGlobal = cluster.TopologyGlobal
)

// DefaultMachine returns the evaluation machine: 16 racks x 16 nodes x
// 32 cores with 64 GiB local DRAM and 4 TiB rack pools.
func DefaultMachine() MachineConfig { return cluster.DefaultConfig() }

// BaselineMachine returns a conventional machine with localMiB DRAM per
// node and no pool.
func BaselineMachine(localMiB int64) MachineConfig { return cluster.BaselineConfig(localMiB) }

// SyntheticWorkload generates the default calibrated workload of n jobs
// for the default machine.
func SyntheticWorkload(n int, seed uint64) *Workload {
	return workload.MustGenerate(workload.DefaultGenConfig(n, seed, cluster.DefaultConfig().TotalNodes()))
}

// GenerateWorkload generates a workload from an explicit configuration.
func GenerateWorkload(cfg GenConfig) (*Workload, error) { return workload.Generate(cfg) }

// DefaultGen returns the calibrated workload-generator configuration
// for n jobs on machine mc (job widths scale with the machine).
func DefaultGen(n int, seed uint64, mc MachineConfig) GenConfig {
	return workload.DefaultGenConfig(n, seed, mc.TotalNodes())
}

// ParseModel builds a memory model from a spec like "linear:0.5",
// "step:0.1,0.5" or "bandwidth:0.5,1".
func ParseModel(spec string) (MemoryModel, error) { return memmodel.Parse(spec) }

// WorkloadSource streams an in-memory workload: the adapter that runs
// the classic slice path through Options.Source (bit-identical to
// passing Options.Workload).
func WorkloadSource(w *Workload) Source { return source.FromWorkload(w) }

// SWFSource streams jobs lazily from an SWF trace reader with O(1)
// memory: the bounded-memory replay path for archive-scale traces. The
// trace must be sorted by submit time (the archive convention); the
// caller keeps ownership of r. See also ReadSWF via the workload
// helpers for traces that need sorting.
func SWFSource(r io.Reader, opt SWFReadOptions) Source { return source.SWF(r, opt) }

// GenSource streams the calibrated synthetic generator lazily: with
// cfg.Jobs == 0 it produces until maxJobs jobs have been emitted or the
// first submit past horizonSec (0 disables either cap — an open-ended
// saturation source). A capped stream equals the materialised
// equivalent job for job.
func GenSource(cfg GenConfig, maxJobs int, horizonSec int64) (Source, error) {
	st, err := workload.NewGenStream(cfg)
	if err != nil {
		return nil, err
	}
	return source.Gen(st, maxJobs, horizonSec), nil
}

// LublinSource streams the Lublin–Feitelson generator lazily, with the
// same cap semantics as GenSource.
func LublinSource(cfg LublinConfig, maxJobs int, horizonSec int64) (Source, error) {
	st, err := workload.NewLublinStream(cfg)
	if err != nil {
		return nil, err
	}
	return source.Gen(st, maxJobs, horizonSec), nil
}

// NewJSONLSink returns a Sink writing one JSON object per record line
// to w. The sink buffers; the engine flushes and closes it at the end
// of the run (the caller still closes any underlying file).
func NewJSONLSink(w io.Writer) Sink { return metrics.NewJSONLSink(w) }

// NewCSVSink returns a Sink writing a header plus one CSV row per
// record to w, with the same lifecycle as NewJSONLSink.
func NewCSVSink(w io.Writer) Sink { return metrics.NewCSVSink(w) }

// NewJSONLSeriesSink returns a SeriesSink writing one JSON object per
// sample line to w. The sink buffers; the engine flushes and closes it
// at the end of the run (the caller still closes any underlying file).
func NewJSONLSeriesSink(w io.Writer) SeriesSink { return metrics.NewJSONLSeriesSink(w) }

// NewCSVSeriesSink returns a SeriesSink writing a header plus one CSV
// row per sample to w, with the same lifecycle as NewJSONLSeriesSink.
func NewCSVSeriesSink(w io.Writer) SeriesSink { return metrics.NewCSVSeriesSink(w) }

// NewJSONLTraceSink returns a TraceSink writing one JSON object per
// trace event line to w: the composable export format — an interrupted
// run's trace plus its resume's trace concatenate byte-for-byte to the
// clean run's (DESIGN.md §12). The sink buffers; the engine flushes and
// closes it at the end of the run (the caller still closes any
// underlying file).
func NewJSONLTraceSink(w io.Writer) TraceSink { return trace.NewJSONLSink(w) }

// NewPerfettoTraceSink returns a TraceSink writing Chrome trace-event
// JSON that loads directly in Perfetto (ui.perfetto.dev): jobs as
// duration spans grouped onto per-rack and per-pool tracks, scenario
// interventions and restarts as instant events. Valid JSON only after
// the engine closes it; same lifecycle as NewJSONLTraceSink.
func NewPerfettoTraceSink(w io.Writer) TraceSink { return trace.NewPerfettoSink(w) }

// Options configures a simulation (see New and Simulate).
type Options struct {
	// Machine is the machine configuration (DefaultMachine if zero).
	// Non-zero configurations are validated; nonsense (negative DRAM,
	// zero cores) is an error, not a silent default.
	Machine MachineConfig
	// Policy selects the scheduler: a legacy policy name (see
	// Policies) or a composable spec string (see NewScheduler).
	// Ignored when SchedulerImpl is set.
	Policy string
	// SchedulerImpl overrides Policy with a concrete scheduler.
	SchedulerImpl Scheduler
	// Model is a memory-model spec (ParseModel syntax); default
	// "linear:0.5". Ignored when ModelImpl is set.
	Model string
	// ModelImpl overrides Model with a concrete implementation.
	ModelImpl MemoryModel
	// Workload is the trace to run. Exactly one of Workload and Source
	// must be set.
	Workload *Workload
	// Source streams the workload lazily instead: memory stays bounded
	// by live simulation state (running + queued jobs), not trace
	// length, which is what makes multi-million-job replay and
	// open-ended saturation runs possible. Streamed jobs are validated
	// as they arrive (structural checks plus submit ordering; the
	// whole-trace duplicate-ID check is skipped) and a mid-stream
	// source error surfaces from Result after in-flight work drains.
	Source Source
	// RecordSink switches metrics to bounded recording: per-job records
	// stream to the sink (DiscardRecords to drop them, NewJSONLSink /
	// NewCSVSink to export) instead of being retained, and the Report's
	// four percentile fields become streaming estimates (exact up to
	// 1024 jobs, P² beyond) — counts, means,
	// utilizations and fairness stay exact. Result.Recorder then
	// retains no records. Nil keeps the default retain-all recorder.
	// The run owns each sink from the call that receives the Options:
	// it is closed exactly once, when the run ends or when New (or
	// Simulate) rejects the Options.
	RecordSink Sink
	// StrictKill disables the dilation-extended walltime limit: jobs
	// are killed at the raw user estimate even when the system itself
	// slowed them down.
	StrictKill bool
	// Failures optionally injects node failures.
	Failures *FailureConfig
	// Scenario optionally perturbs the run with a deterministic
	// intervention timeline (see ParseScenario). Nil and the empty
	// scenario leave the run bit-identical to a scenario-free one; a
	// Scenario is immutable once built and may be shared across
	// concurrent simulations.
	Scenario *Scenario
	// CheckInvariants enables O(machine) state validation per event.
	CheckInvariants bool
	// Observer optionally receives lifecycle callbacks (dispatches,
	// terminations, pass ends, periodic samples). Callbacks must be
	// read-only w.r.t. engine state; a nil Observer costs nothing.
	Observer Observer
	// SampleEvery is the period, in simulated seconds, of periodic
	// sampling ticks (0 = no sampling). Each tick delivers
	// Observer.OnSample and streams a SeriesPoint to SeriesSink;
	// ignored when neither consumer is configured.
	SampleEvery int64
	// SeriesSink streams one utilization SeriesPoint per sampling tick:
	// the time-series analogue of RecordSink. Requires SampleEvery > 0
	// to produce anything. Closed like RecordSink, also on rejection.
	SeriesSink SeriesSink
	// TraceSink streams per-job lifecycle trace events in deterministic
	// firing order: submit, dispatch with placement detail (racks,
	// pools, local/remote split), terminate/kill with reason, failure
	// restarts and scenario interventions. Nil is zero-cost. Closed
	// like RecordSink, also on rejection. Unlike SeriesSink, tracing
	// is event-driven and needs no SampleEvery.
	TraceSink TraceSink
}

// Simulate runs one simulation to completion: a convenience wrapper
// over New for callers that need no in-flight observation.
func Simulate(o Options) (*Result, error) {
	s, err := New(o)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Policies returns the legacy policy names, sorted: the evaluation's
// aliases. Spec strings (see NewScheduler) select arbitrarily many more
// combinations.
func Policies() []string { return spec.Aliases() }

// NewScheduler compiles a policy name or composable spec —
// space-separated key=value terms — into a fresh scheduler:
//
//	order=sjf backfill=easy placer=memaware cap=3 patience=1800
//
// Terms: order (fcfs|sjf|wfp|largest), backfill (none|easy|
// conservative), placer (local|spill|memaware), cap / balance / shape
// (memaware admission knobs), patience (seconds a spilling job waits
// for local capacity), maxscan / maxres (backfill and reservation
// depth limits), maxperuser (running-job throttle), and name (report
// label). Unspecified terms default to the paper's policy: order=fcfs
// backfill=easy placer=memaware. A bare legacy name
// ("memaware-patient", see Policies) expands to its canonical spec and
// keeps the name as its label.
func NewScheduler(policy string) (Scheduler, error) {
	s, err := spec.Parse(policy)
	if err != nil {
		return nil, fmt.Errorf("dismem: %w", err)
	}
	return s, nil
}

// ParseScenario compiles a scenario spec — ';'- or newline-separated
// statements of key=value terms plus one verb, in the same grammar
// family as NewScheduler — into an intervention timeline:
//
//	at=3600 down rack=2; at=7200 up rack=2
//	at=3600 resize pool=all cap=1048576
//	at=3600 beta scale=2
//	at=86400 grow racks=1
//	from=3600 until=7200 rate=3 surge
//	from=0 period=86400 amp=0.5 diurnal
//
// Timed interventions run as ordinary DES events (bit-identical per
// seed); surge/diurnal statements reshape the workload's arrival
// process before the run starts. Scenario.String() emits a canonical
// spec that parses back to the same scenario.
func ParseScenario(scenarioSpec string) (*Scenario, error) {
	s, err := scenario.Parse(scenarioSpec)
	if err != nil {
		return nil, fmt.Errorf("dismem: %w", err)
	}
	return s, nil
}
