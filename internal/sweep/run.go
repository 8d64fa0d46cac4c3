package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dismem"
	"dismem/internal/metrics"
	"dismem/internal/runstore"
	"dismem/internal/sim"
	"dismem/internal/workload"
)

// ErrInterrupted reports a sweep cancelled through Options.Ctx (for
// example by SIGINT/SIGTERM in dmsweep). The units of every finished
// cell, and the completed seed-order prefix of the interrupted one,
// were already archived to the store, if one is attached, so the same
// sweep can be resumed without redoing them.
var ErrInterrupted = errors.New("sweep: interrupted")

// Options scales an experiment. Zero values select the full evaluation
// scale; benches pass reduced numbers. Negative values are an error
// (Run, RunAll and Cell.Run reject them).
type Options struct {
	// Jobs per simulation (default 8000).
	Jobs int
	// Seeds per cell; reported numbers are seed means (default 5).
	Seeds int
	// Workers caps how many (cell, seed) simulation units run
	// concurrently (default GOMAXPROCS). A unit is one seed of a
	// Cell.Run.
	Workers int
	// Ctx, when non-nil, cancels the sweep cooperatively: in-flight
	// simulations stop at their next sample tick, pending units are
	// skipped, and the sweep returns ErrInterrupted.
	Ctx context.Context
	// Store, when non-nil, archives every completed cacheable unit as a
	// "sweep-unit" run record at the cell's barrier, once its seeds
	// drain. Records are appended in seed order and carry no wall-clock
	// state, so a resumed sweep archives byte-identical records to an
	// uninterrupted one. Cells holding live code (Scheduler, StopWhen)
	// have no durable identity and are skipped.
	Store *runstore.Store
	// Resume serves every unit already archived in Store from its record
	// instead of re-running it — the crash-safe resume behind dmsweep
	// -resume. A unit is done exactly when its content-derived key is
	// archived, so a resume at a different scale serves only the units
	// the two scales share. It is opt-in: without it, archived results
	// are never served.
	Resume bool
	// UnitDone, when non-nil, is called once per successfully completed
	// simulation unit, including units served from the store on resume.
	// It runs on the unit's worker goroutine, so it must be safe for
	// concurrent use (dmsweep feeds an atomic /metrics progress counter
	// with it). It observes progress only — it cannot fail the sweep.
	UnitDone func()
}

// validate rejects a negative scale, naming the field: zero selects the
// default, and a negative value is a mistake, never a request for it.
func (o Options) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Jobs", o.Jobs}, {"Seeds", o.Seeds}, {"Workers", o.Workers}} {
		if f.v < 0 {
			return fmt.Errorf("sweep: Options.%s is %d; want >= 0 (0 selects the default)", f.name, f.v)
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = 8000
	}
	if o.Seeds <= 0 {
		o.Seeds = 5
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) note() string {
	return fmt.Sprintf("%d jobs/run, mean of %d seeds", o.Jobs, o.Seeds)
}

// interrupted reports whether the sweep's context has been cancelled.
func (o Options) interrupted() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Cell describes one simulation configuration to run across seeds.
type Cell struct {
	Machine dismem.MachineConfig
	// Policy is a policy name or spec string (dismem.NewScheduler);
	// Scheduler (factory) overrides it.
	Policy string
	// Scheduler builds a fresh scheduler per seed when set. Cells with
	// a Scheduler factory hold live code and are never archived to or
	// served from a Store.
	Scheduler func() dismem.Scheduler
	// Model is a memory-model spec (default linear:0.5).
	Model string
	// Gen overrides the default workload generator config; when nil the
	// calibrated default for the cell's machine is used. The Jobs and
	// Seed fields are always overwritten by the harness.
	Gen *dismem.GenConfig
	// StrictKill disables dilation-extended walltime limits.
	StrictKill bool
	// Failures optionally injects node failures (each seed gets an
	// independent failure stream derived from its workload seed).
	Failures *sim.FailureConfig
	// Scenario optionally perturbs every seed's run with the same
	// deterministic intervention timeline (dismem.ParseScenario), so
	// experiment tables can sweep over outage severities, surge
	// amplitudes, and the like. Scenarios are immutable and shared
	// across the parallel seed goroutines.
	Scenario *dismem.Scenario
	// Bounded runs every seed with bounded metrics recording
	// (dismem.DiscardRecords): memory stays independent of Jobs, the
	// aggregate columns are unchanged except the percentile ones, which
	// become streaming estimates (exact up to 1024 jobs, P² beyond),
	// and Agg.Records stays nil (CDF reductions
	// need retain mode). Use it for cells far above the default scale.
	Bounded bool
	// StopWhen, when set, aborts each seed's simulation early: it is
	// evaluated against periodic engine samples (every SampleEvery
	// simulated seconds) and the run stops at the first true. The
	// seed's report then covers only the simulated prefix — useful to
	// cut off diverged or saturated cells in large scenario fan-outs.
	// Seeds run on parallel goroutines and share this predicate, so it
	// must be safe for concurrent use (stateless, or synchronised).
	// Like Scheduler, StopWhen makes the cell's units uncacheable.
	StopWhen func(dismem.Sample) bool
	// SampleEvery is the sampling period for StopWhen in simulated
	// seconds (default 3600).
	SampleEvery int64
}

// abortObserver stops its simulation at the first sample matching the
// cell's StopWhen predicate, or as soon as the sweep's context is
// cancelled (so interrupted sweeps drain in bounded time instead of
// finishing multi-hour simulated runs).
type abortObserver struct {
	dismem.NopObserver
	h    *dismem.Simulation
	stop func(dismem.Sample) bool
	ctx  context.Context
}

// OnSample implements dismem.Observer.
func (a *abortObserver) OnSample(s dismem.Sample) {
	if a.ctx != nil && a.ctx.Err() != nil {
		a.h.Stop()
		return
	}
	if a.stop != nil && a.stop(s) {
		a.h.Stop()
	}
}

// Agg is the seed-mean of the report quantities the tables print.
type Agg struct {
	MeanWait, P95Wait   float64 // seconds
	MeanBSld, P95BSld   float64
	NodeUtil            float64
	LocalUtil, PoolUtil float64
	Throughput          float64 // jobs/hour
	MakespanH           float64
	RemoteFrac          float64 // fraction of jobs using the pool
	MeanDilRemote       float64 // mean dilation over remote jobs
	P95DilRemote        float64
	KilledFrac          float64
	RejectedFrac        float64
	Jobs                float64
	NodeFailures        float64 // mean node failures per run
	FailureKills        float64 // mean jobs killed by failures per run
	JainWait            float64 // Jain fairness of per-user wait (seed 1)

	// StoppedRuns counts seeds truncated by the cell's StopWhen
	// predicate (their reports cover only the simulated prefix).
	StoppedRuns int

	// Reports keeps the per-seed reports for custom reductions.
	Reports []*metrics.Report
	// Records keeps per-job records of the first seed for CDF figures.
	Records []metrics.JobRecord
}

// seedOut is one seed's outcome, collected for aggregation. It carries
// plain data (not live simulation handles) so archived units and live
// runs are indistinguishable to aggregate().
type seedOut struct {
	rep     *metrics.Report
	stopped bool
	records []metrics.JobRecord // first seed of retain-mode cells only
	jain    float64             // first seed only
	err     error
}

// Run simulates the cell for every seed and averages. Seeds run on a
// worker pool of Options.Workers goroutines; results merge in seed
// order, not completion order, so the aggregate is identical to a
// serial run. With a Store attached, completed units are archived at
// the cell's barrier, and with Resume set, archived units are served
// from the store instead of re-run; with a cancelled Ctx, Run returns
// ErrInterrupted.
func (c Cell) Run(o Options) (Agg, error) {
	if err := o.validate(); err != nil {
		return Agg{}, err
	}
	o = o.withDefaults()
	mc := c.machine()

	// Unit identities exist only for cacheable cells, and are computed
	// only when there is a store to archive them to.
	var specs [][]byte
	if o.Store != nil {
		specs = c.unitSpecs(o, mc)
	}
	outs := make([]seedOut, o.Seeds)
	units := make([]int, 0, o.Seeds)
	for s := range outs {
		if o.Resume && specs != nil {
			// KeyOf IDs have full length, so Get matches exactly.
			if run, err := o.Store.Get(runstore.KeyOf(unitKind, specs[s], s)); err == nil {
				outs[s] = seedOutFromRun(run)
				if outs[s].err == nil && o.UnitDone != nil {
					o.UnitDone()
				}
				continue
			}
		}
		units = append(units, s)
	}
	o.pool(units, outs, func(s int) seedOut {
		h, err := c.newSeed(o, mc, s)
		if err != nil {
			return seedOut{err: err}
		}
		return seedResult(h, s)
	})
	if err := c.archive(o, mc, outs, specs); err != nil {
		return Agg{}, err
	}
	return aggregate(outs)
}

// machine returns the cell's machine, DefaultMachine when unset.
func (c Cell) machine() dismem.MachineConfig {
	if c.Machine.IsZero() {
		return dismem.DefaultMachine()
	}
	return c.Machine
}

// pool runs unit for every seed in seeds on a fixed pool of o.Workers
// goroutines and stores each outcome in outs. Units write only their
// own slot, so the merge is in seed order, not completion order, and
// nothing downstream depends on the worker count. Every completed unit
// is reported to o.UnitDone.
func (o Options) pool(seeds []int, outs []seedOut, unit func(s int) seedOut) {
	workers := min(o.Workers, len(seeds))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range feed {
				outs[s] = o.runUnit(func() seedOut { return unit(s) })
				if outs[s].err == nil && o.UnitDone != nil {
					o.UnitDone()
				}
			}
		}()
	}
	for _, s := range seeds {
		feed <- s
	}
	close(feed)
	wg.Wait()
}

// unitKind is the run-store kind of an archived sweep unit.
const unitKind = "sweep-unit"

// archive appends the cell's completed units to the run store in seed
// order, stopping at the first unit that did not complete: the archive
// then holds a seed-order prefix of the cell whatever the worker count
// or the interruption point, so a resumed sweep appends the remaining
// units exactly where a clean sweep would have. Units served from the
// store re-append as no-ops. Live-code cells (nil specs) have no
// durable identity and are skipped; a store write failure is a sweep
// failure — an archive that silently drops runs is worse than none.
func (c Cell) archive(o Options, mc dismem.MachineConfig, outs []seedOut, specs [][]byte) error {
	if specs == nil {
		return nil
	}
	for s, out := range outs {
		if out.err != nil {
			return nil // aggregate() surfaces the failure
		}
		rec := runstore.Run{
			ID:       runstore.KeyOf(unitKind, specs[s], s),
			Kind:     unitKind,
			Label:    c.cellLabel(mc),
			Seed:     s,
			Spec:     specs[s],
			Report:   out.rep,
			Stopped:  out.stopped,
			JainWait: out.jain,
			Records:  out.records,
		}
		if err := o.Store.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// seedOutFromRun rehydrates an archived unit. Only seed 0's record
// carries Records and JainWait, matching what seedResult collects.
func seedOutFromRun(run runstore.Run) seedOut {
	if run.Report == nil {
		return seedOut{err: fmt.Errorf("sweep: archived unit %s has no report", run.ID)}
	}
	return seedOut{rep: run.Report, stopped: run.Stopped, records: run.Records, jain: run.JainWait}
}

// errNotCacheable marks a unit whose cell cannot be described by data
// alone (custom Scheduler factory or StopWhen predicate); such units
// always run live and are never archived.
var errNotCacheable = errors.New("sweep: cell holds live code; unit not cacheable")

// unitSpec is the canonical, data-only description of one (cell, seed)
// unit. Its JSON encoding (struct order, sorted map keys) is the
// preimage of the unit's run-store ID, so two cells with identical
// effective configuration share one archived record.
type unitSpec struct {
	Format     string                  `json:"format"`
	Machine    dismem.MachineConfig    `json:"machine"`
	Policy     string                  `json:"policy"`
	Model      string                  `json:"model"`
	Gen        workload.GenConfigState `json:"gen"`
	StrictKill bool                    `json:"strictKill,omitempty"`
	Failures   *sim.FailureConfig      `json:"failures,omitempty"`
	Scenario   string                  `json:"scenario,omitempty"`
	Bounded    bool                    `json:"bounded,omitempty"`
	Jobs       int                     `json:"jobs"`
	Seed       int                     `json:"seed"`
}

// unitSpecFormat versions the unit spec. Bump it when a change to the
// simulator alters a unit's results without changing its spec, so
// archived results from before the change are not served on resume.
const unitSpecFormat = "dmsweep-unit/1"

// unitSpecs returns every seed's canonical unit spec JSON, or nil when
// the cell is not cacheable.
func (c Cell) unitSpecs(o Options, mc dismem.MachineConfig) [][]byte {
	specs := make([][]byte, o.Seeds)
	for s := range specs {
		b, err := c.unitSpecJSON(o, mc, s)
		if err != nil {
			return nil
		}
		specs[s] = b
	}
	return specs
}

// unitSpecJSON builds the canonical configuration JSON for seed s of
// the cell — the identity preimage of its run-store record — or
// errNotCacheable when the cell holds live code (Scheduler factory or
// StopWhen predicate) or a workload distribution with no serializable
// state.
func (c Cell) unitSpecJSON(o Options, mc dismem.MachineConfig, s int) ([]byte, error) {
	if c.Scheduler != nil || c.StopWhen != nil {
		return nil, errNotCacheable
	}
	gs, err := workload.GenConfigToState(c.seedGen(o, mc, s))
	if err != nil {
		return nil, fmt.Errorf("%w (%v)", errNotCacheable, err)
	}
	spec := unitSpec{
		Format:     unitSpecFormat,
		Machine:    mc,
		Policy:     c.Policy,
		Model:      c.Model,
		Gen:        gs,
		StrictKill: c.StrictKill,
		Failures:   c.seedFailures(s),
		Bounded:    c.Bounded,
		Jobs:       o.Jobs,
		Seed:       s,
	}
	if c.Scenario != nil {
		spec.Scenario = c.Scenario.String()
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("%w (%v)", errNotCacheable, err)
	}
	return b, nil
}

// cellLabel is the human-readable run-store annotation for a cell.
func (c Cell) cellLabel(mc dismem.MachineConfig) string {
	model := c.Model
	if model == "" {
		model = "linear:0.5"
	}
	return fmt.Sprintf("%s/%s r%dx%d", c.Policy, model, mc.Racks, mc.NodesPerRack)
}

// unitRetries is how often a unit is retried after a panic inside it,
// so a unit gets up to two attempts. A unit that keeps panicking fails
// the sweep with the recovered value.
const unitRetries = 1

// runUnit runs one unit with the unitRetries panic retry budget,
// honouring cancellation before, during (via the abort observer), and
// after the run.
func (o Options) runUnit(unit func() seedOut) seedOut {
	var out seedOut
	for attempt := 0; ; attempt++ {
		if o.interrupted() {
			return seedOut{err: ErrInterrupted}
		}
		out = attemptUnit(unit)
		var pe *unitPanicError
		if out.err == nil || !errors.As(out.err, &pe) || attempt >= unitRetries {
			break
		}
	}
	if o.interrupted() {
		// A run stopped mid-way by the cancel observer yields a
		// truncated report; never let it masquerade as the unit's
		// result.
		return seedOut{err: ErrInterrupted}
	}
	return out
}

// unitPanicError wraps a panic recovered inside one unit so the retry
// loop can distinguish it from ordinary configuration errors (which
// retrying cannot fix).
type unitPanicError struct{ val any }

func (e *unitPanicError) Error() string {
	return fmt.Sprintf("sweep: panic in simulation unit: %v", e.val)
}

// attemptUnit performs a single attempt, converting a panic anywhere in
// workload generation or simulation into a unitPanicError instead of
// tearing down the whole sweep's worker pool.
func attemptUnit(unit func() seedOut) (out seedOut) {
	defer func() {
		if r := recover(); r != nil {
			out = seedOut{err: &unitPanicError{val: r}}
		}
	}()
	return unit()
}

// seedResult runs h to completion and keeps what aggregate needs; the
// first seed also keeps its records and fairness.
func seedResult(h *dismem.Simulation, s int) seedOut {
	res, err := h.Run()
	if err != nil {
		return seedOut{err: err}
	}
	out := seedOut{rep: res.Report, stopped: res.Stopped}
	if s == 0 {
		out.records = res.Recorder.Records()
		out.jain = res.Recorder.JainWait()
	}
	return out
}

// seedGen is seed s's workload generator: the cell's Gen, or the
// calibrated default for machine mc, with the harness-owned job count
// and seed.
func (c Cell) seedGen(o Options, mc dismem.MachineConfig, s int) dismem.GenConfig {
	var gen dismem.GenConfig
	if c.Gen != nil {
		gen = *c.Gen
	} else {
		gen = dismem.DefaultGen(o.Jobs, 0, mc)
	}
	gen.Jobs = o.Jobs
	gen.Seed = uint64(s + 1)
	return gen
}

// seedFailures is seed s's failure config: the cell's, with an
// independent failure stream per seed (nil when the cell injects none).
func (c Cell) seedFailures(s int) *sim.FailureConfig {
	if c.Failures == nil {
		return nil
	}
	fc := *c.Failures
	fc.Seed += uint64(s)
	return &fc
}

// seedOptions is seed s's run description: the cell's configuration
// plus the seed's workload and failure stream.
func (c Cell) seedOptions(o Options, mc dismem.MachineConfig, s int) (dismem.Options, error) {
	wl, err := cachedWorkload(c.seedGen(o, mc, s))
	if err != nil {
		return dismem.Options{}, err
	}
	opts := dismem.Options{
		Machine:    mc,
		Policy:     c.Policy,
		Model:      c.Model,
		Workload:   wl,
		StrictKill: c.StrictKill,
		Failures:   c.seedFailures(s),
		Scenario:   c.Scenario,
	}
	if c.Bounded {
		opts.RecordSink = dismem.DiscardRecords
	}
	if c.Scheduler != nil {
		opts.SchedulerImpl = c.Scheduler()
	}
	return opts, nil
}

// newSeed builds seed s's run (see seedOptions). With StopWhen, or a
// cancellable sweep context, the run carries the abort observer,
// sampled every SampleEvery simulated seconds (default 3600) and wired
// to the returned handle; no event fires before that, since
// construction only primes the event queue.
func (c Cell) newSeed(o Options, mc dismem.MachineConfig, s int) (*dismem.Simulation, error) {
	opts, err := c.seedOptions(o, mc, s)
	if err != nil {
		return nil, err
	}
	var abort *abortObserver
	if c.StopWhen != nil || o.Ctx != nil {
		abort = &abortObserver{stop: c.StopWhen, ctx: o.Ctx}
		opts.Observer, opts.SampleEvery = abort, c.SampleEvery
		if opts.SampleEvery <= 0 {
			opts.SampleEvery = 3600
		}
	}
	h, err := dismem.New(opts)
	if err != nil {
		return nil, err
	}
	if abort != nil {
		abort.h = h
	}
	return h, nil
}

// wlCache shares generated workloads across cells: comparison
// experiments run many cells over identical (gen, jobs, seed) tuples,
// and the engine never mutates a Workload, so one generation serves
// them all. Keyed on the printed config — two configs share an entry
// only when their full printed state matches, so a miss is the worst a
// key collision failure mode can produce. Bounded by wholesale reset:
// sweeps cycle through few distinct configs, so eviction precision is
// worth less than the simplicity.
var wlCache = struct {
	sync.Mutex
	m map[string]*dismem.Workload
}{m: make(map[string]*dismem.Workload)}

const wlCacheCap = 32

func cachedWorkload(gen dismem.GenConfig) (*dismem.Workload, error) {
	key := fmt.Sprintf("%#v", gen)
	wlCache.Lock()
	wl, ok := wlCache.m[key]
	wlCache.Unlock()
	if ok {
		return wl, nil
	}
	// Generate outside the lock: concurrent workers generating
	// different seeds must not serialise. A duplicate generation racing
	// on one key is harmless — generation is deterministic, so either
	// winner is the same workload.
	wl, err := dismem.GenerateWorkload(gen)
	if err != nil {
		return nil, err
	}
	wlCache.Lock()
	if len(wlCache.m) >= wlCacheCap {
		clear(wlCache.m)
	}
	wlCache.m[key] = wl
	wlCache.Unlock()
	return wl, nil
}

// aggregate reduces per-seed outcomes to the seed-mean Agg (the first
// seed additionally contributes records and fairness). Outcomes merge
// in seed order regardless of which worker finished first, keeping the
// reduction bit-identical across worker counts.
func aggregate(outs []seedOut) (Agg, error) {
	var agg Agg
	for s, ot := range outs {
		if ot.err != nil {
			return Agg{}, fmt.Errorf("sweep: seed %d: %w", s+1, ot.err)
		}
		r := ot.rep
		agg.MeanWait += r.Wait.Mean()
		agg.P95Wait += r.P95Wait
		agg.MeanBSld += r.BSld.Mean()
		agg.P95BSld += r.P95BSld
		agg.NodeUtil += r.NodeUtil
		agg.LocalUtil += r.LocalMemUtil
		agg.PoolUtil += r.PoolUtil
		agg.Throughput += r.ThroughputPerHour
		agg.MakespanH += float64(r.MakespanSec) / 3600
		agg.RemoteFrac += r.RemoteJobFraction
		agg.MeanDilRemote += r.DilationRemote.Mean()
		agg.P95DilRemote += r.P95DilationRemote
		agg.KilledFrac += r.KilledFraction()
		total := float64(r.Jobs() + r.Rejected)
		if total > 0 {
			agg.RejectedFrac += float64(r.Rejected) / total
		}
		agg.Jobs += float64(r.Jobs())
		agg.NodeFailures += float64(r.NodeFailures)
		agg.FailureKills += float64(r.FailureKills)
		if ot.stopped {
			agg.StoppedRuns++
		}
		agg.Reports = append(agg.Reports, r)
		if s == 0 {
			agg.Records = ot.records
			agg.JainWait = ot.jain
		}
	}
	n := float64(len(outs))
	agg.MeanWait /= n
	agg.P95Wait /= n
	agg.MeanBSld /= n
	agg.P95BSld /= n
	agg.NodeUtil /= n
	agg.LocalUtil /= n
	agg.PoolUtil /= n
	agg.Throughput /= n
	agg.MakespanH /= n
	agg.RemoteFrac /= n
	agg.MeanDilRemote /= n
	agg.P95DilRemote /= n
	agg.KilledFrac /= n
	agg.RejectedFrac /= n
	agg.Jobs /= n
	agg.NodeFailures /= n
	agg.FailureKills /= n
	return agg, nil
}

// MustRun is Run, panicking on error (experiments are deterministic; an
// error here is a programming bug, not an input condition). The panic
// value is the error itself, so the registry's Run/RunAll can recover
// an ErrInterrupted sweep and surface it as a plain error.
func (c Cell) MustRun(o Options) Agg {
	agg, err := c.Run(o)
	if err != nil {
		panic(err)
	}
	return agg
}

// recorderFromRecords rebuilds a metrics recorder from a cell's
// retained first-seed records, for reductions (fairness, CDFs) that
// operate on a Recorder.
func recorderFromRecords(a Agg) *metrics.Recorder {
	rec := metrics.NewRecorder()
	for _, r := range a.Records {
		rec.Add(r)
	}
	return rec
}
