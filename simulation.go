package dismem

import (
	"fmt"

	"dismem/internal/memmodel"
	"dismem/internal/sim"
)

// Simulation is a long-lived handle on one in-flight simulation. Unlike
// Simulate, which runs to completion, a Simulation can be advanced
// event by event (Step) or to a virtual deadline (RunUntil), queried
// for live state between advances (Now, QueueDepth, Running, Usage),
// and stopped early (Stop). It is single-goroutine state: drive it from
// one goroutine only.
type Simulation struct {
	eng *sim.Engine
	// opts is how the run was built, as resolve returns it: defaults
	// filled, outputs dropped. Checkpoint records it, and Fork rebuilds
	// a fresh scheduler from its policy spec when the fork does not
	// override it.
	opts Options
	// horizon, when > 0, is where Run truncates this forked future
	// (ForkOptions.Horizon); Fork has already validated it against the
	// checkpoint's frozen clock.
	horizon int64
}

// New validates o, builds the engine and primes the event queue without
// firing any event: the returned handle sits at virtual time 0 with
// every arrival scheduled. Drive it with Step / RunUntil / Run and
// collect the outcome with Result.
//
// The outputs belong to the run from this call on: a rejection before
// an engine exists closes them here, and once one exists its close
// latch does.
func New(o Options) (*Simulation, error) {
	outs := sim.Outputs{Observer: o.Observer, RecordSink: o.RecordSink, SeriesSink: o.SeriesSink, TraceSink: o.TraceSink}
	var eng *sim.Engine
	rec, cfg, err := resolve(o)
	switch {
	case o.Workload == nil && o.Source == nil:
		err = fmt.Errorf("dismem: nil workload (set Options.Workload or Options.Source)")
	case o.Workload != nil && o.Source != nil:
		err = fmt.Errorf("dismem: both Workload and Source set; choose one")
	case err != nil:
		err = fmt.Errorf("dismem: %w", err)
	default:
		cfg.Outputs = outs
		eng, err = sim.New(cfg)
	}
	if err != nil {
		_ = outs.Close()
		return nil, err
	}
	if o.Source != nil {
		err = eng.StartSource(o.Source)
	} else {
		err = eng.Start(o.Workload)
	}
	if err != nil {
		return nil, err
	}
	return &Simulation{eng: eng, opts: rec}, nil
}

// resolve is the one place a run description becomes an engine
// configuration, for new runs and loaded checkpoints alike. It fills
// the defaults — DefaultMachine for a zero Machine, "linear:0.5" for
// an empty Model without a ModelImpl — validates the machine and the
// failure config, and builds the memory model and scheduler. It
// returns the Options the run records (defaults filled, outputs
// dropped) and the sim.Config without outputs. Its errors name the
// field at fault and carry no package prefix; the caller adds one.
func resolve(o Options) (Options, sim.Config, error) {
	o.Observer, o.RecordSink, o.SeriesSink, o.TraceSink = nil, nil, nil, nil
	if o.Machine.IsZero() {
		o.Machine = DefaultMachine()
	}
	if o.Model == "" && o.ModelImpl == nil {
		o.Model = "linear:0.5"
	}
	if err := o.Machine.Validate(); err != nil {
		return o, sim.Config{}, fmt.Errorf("machine config: %w", err)
	}
	model := o.ModelImpl
	if model == nil {
		var err error
		if model, err = memmodel.Parse(o.Model); err != nil {
			return o, sim.Config{}, fmt.Errorf("memory model: %w", err)
		}
	}
	s := o.SchedulerImpl
	if s == nil {
		var err error
		if s, err = NewScheduler(o.Policy); err != nil {
			return o, sim.Config{}, fmt.Errorf("policy: %w", err)
		}
	}
	if o.Failures != nil {
		if err := o.Failures.Validate(); err != nil {
			return o, sim.Config{}, fmt.Errorf("failure config: %w", err)
		}
	}
	return o, sim.Config{
		Machine:         o.Machine,
		Model:           model,
		Scheduler:       s,
		ExtendLimit:     !o.StrictKill,
		CheckInvariants: o.CheckInvariants,
		Failures:        o.Failures,
		Scenario:        o.Scenario,
		SampleEvery:     o.SampleEvery,
	}, nil
}

// Step fires the single earliest event. It returns false, firing
// nothing, once the simulation is Done.
func (s *Simulation) Step() bool { return s.eng.Step() }

// RunUntil fires every event scheduled at or before virtual time t and
// leaves the clock at exactly t, even when the simulation's last event
// is earlier (use the final Report, not Now, to recover the true end
// of a run).
func (s *Simulation) RunUntil(t int64) { s.eng.RunUntil(t) }

// Run advances the simulation to completion and returns the result:
// New + Run is equivalent to Simulate. A fork taken with
// ForkOptions.Horizon > 0 instead advances to that horizon and
// truncates there (Result.Stopped set), unless it drains first.
func (s *Simulation) Run() (*Result, error) {
	if s.horizon > 0 {
		s.eng.RunUntil(s.horizon)
		// A future still running at the horizon, or stuck there with
		// queued jobs, is cut short rather than reported as failed.
		if !s.eng.Done() || s.eng.Outstanding() {
			s.eng.Stop()
		}
	} else {
		s.eng.RunAll()
	}
	return s.eng.Finish()
}

// Stop halts the simulation after the current event: a deliberate
// early exit, not an error. Result then covers the simulated prefix
// with Result.Stopped set. Safe to call from Observer callbacks.
func (s *Simulation) Stop() { s.eng.Stop() }

// Now returns the virtual clock in seconds since simulation start.
func (s *Simulation) Now() int64 { return s.eng.Now() }

// Done reports whether the simulation can make no more progress:
// everything terminated, Stop was called, or the run is stuck, with
// queued jobs nothing left can start (Result then reports them as an
// error, whether or not the run samples).
func (s *Simulation) Done() bool { return s.eng.Done() }

// QueueDepth returns the number of jobs waiting to be dispatched.
func (s *Simulation) QueueDepth() int { return s.eng.QueueDepth() }

// Running returns the number of jobs currently holding resources.
func (s *Simulation) Running() int { return s.eng.RunningCount() }

// Usage returns the live machine occupancy snapshot; O(pools).
func (s *Simulation) Usage() Usage { return s.eng.Usage() }

// Events returns the number of DES events fired so far.
func (s *Simulation) Events() uint64 { return s.eng.Events() }

// Sample returns the full live-state snapshot observers receive.
func (s *Simulation) Sample() Sample { return s.eng.Sample() }

// Result closes the metrics window and returns the outcome. It errors
// while events or arrivals are still pending (advance with Run, or
// truncate with Stop, first); afterwards it is idempotent.
func (s *Simulation) Result() (*Result, error) {
	if !s.eng.Done() {
		return nil, fmt.Errorf("dismem: simulation has pending work at t=%d; call Run to finish or Stop to truncate", s.eng.Now())
	}
	return s.eng.Finish()
}
