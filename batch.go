package dismem

import "dismem/internal/sim"

// Batched execution: run many simulations back to back while recycling
// every piece of engine state that is independent of an individual run
// — the machine (reset, not rebuilt, when consecutive runs share a
// configuration), the DES event pool, and the engine's dispatch-pass
// and bookkeeping scratch. A sequence of n runs performs one machine
// construction and O(1) steady-state allocations per job instead of
// rebuilding the world n times; results are bit-identical to n
// independent Simulate calls (pinned by TestRunnerMatchesLoopOfSimulate).
//
// The unit of reuse is the Runner. internal/sweep gives each of its
// pool workers one Runner so a whole parameter sweep amortises
// construction across every (cell, seed) unit the worker executes.

// A Runner executes simulations sequentially, recycling run-independent
// engine state from each completed run into the next. Every run is
// described by its own complete Options, exactly as for Simulate. It is
// single-goroutine state (like Simulation); concurrent batches use one
// Runner per goroutine.
type Runner struct {
	// prev is the last successfully finished engine, consumed (and
	// cleared) by the next run as its donor of recyclable state.
	prev *sim.Engine
}

// NewRunner returns a Runner with no state to recycle yet.
func NewRunner() *Runner { return &Runner{} }

// Run executes one run of o, recycling state from the Runner's previous
// run when the machine configuration is unchanged. The Result is
// identical — byte for byte across reports, records, series and traces
// — to Simulate(o).
func (r *Runner) Run(o Options) (*Result, error) {
	s, err := r.NewSimulation(o)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	r.Retire(s)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// NewSimulation builds the Runner's next run as a steppable Simulation,
// consuming the Runner's recyclable state (so at most one outstanding
// handle per Runner benefits from reuse). Drive it like any Simulation;
// when done, hand it back with Retire so the following run can recycle
// its engine.
func (r *Runner) NewSimulation(o Options) (*Simulation, error) {
	prev := r.prev
	r.prev = nil // construction consumes the donor, even on error
	return newSimulation(o, prev)
}

// Retire returns a Simulation built by NewSimulation to the Runner as
// the reuse donor for the next run. Retiring an unfinished or failed
// handle is safe — it is simply not reused (a run that never collected
// its Result cannot donate state without corrupting the next run).
func (r *Runner) Retire(s *Simulation) {
	if s != nil {
		r.prev = s.eng
	}
}
