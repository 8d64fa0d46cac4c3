package sweep

import (
	"fmt"

	"dismem"
)

// ForkPoint holds per-seed checkpoints of one cell's shared prefix:
// the state of every seed's simulation frozen at a common virtual
// time. Build one with Cell.CheckpointAt and run divergent futures
// from it with Cell.ForkFrom — the standard shared-prefix methodology
// for what-if sweeps ("replay the morning once, then try every outage
// tail"), which avoids re-simulating the prefix per variant cell.
type ForkPoint struct {
	cps []*dismem.Checkpoint
	at  int64
	// scheduler is the base cell's factory, retained so variant forks
	// that keep the base policy each get a FRESH scheduler instance:
	// reusing the instance captured in the checkpoints would share one
	// mutable scheduler across concurrently driven forks.
	scheduler func() dismem.Scheduler
	// o holds the sweep options the prefix ran with: forks run on the
	// same worker pool, with the same retry budget and cancellation.
	o Options
}

// At returns the virtual time the prefix was frozen at.
func (fp *ForkPoint) At() int64 { return fp.at }

// Seeds returns how many per-seed checkpoints the fork point holds.
func (fp *ForkPoint) Seeds() int { return len(fp.cps) }

// CheckpointAt simulates the cell's prefix to virtual time t for every
// seed, on Run's worker pool, and freezes each seed's state. The cell's
// StopWhen predicate is not applied during the prefix — the prefix is
// a fixed horizon by construction. Each prefix ends once it is
// checkpointed, closing its Series and Trace sinks; with a cancelled
// Ctx, CheckpointAt returns ErrInterrupted.
func (c Cell) CheckpointAt(o Options, t int64) (*ForkPoint, error) {
	o = o.withDefaults()
	mc := c.machine()
	base := c
	base.StopWhen = nil

	cps := make([]*dismem.Checkpoint, o.Seeds)
	outs := make([]seedOut, o.Seeds)
	o.pool(seedRange(o.Seeds), outs, func(s int, r *dismem.Runner) seedOut {
		h, err := base.newSeed(o, mc, s, r)
		if err != nil {
			return seedOut{err: err}
		}
		h.RunUntil(t)
		cps[s], err = h.Checkpoint()
		h.Stop()
		if _, rerr := h.Result(); err == nil {
			err = rerr
		}
		r.Retire(h)
		return seedOut{err: err}
	})
	for s, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("sweep: checkpoint seed %d: %w", s+1, out.err)
		}
	}
	return &ForkPoint{cps: cps, at: t, scheduler: c.Scheduler, o: o}, nil
}

// ForkFrom resumes this cell's future from a shared fork point, one
// fork per seed on the fork point's worker pool, and aggregates like
// Run. The receiver describes the FUTURE only:
//
//   - Scenario, when set, replaces the remaining intervention timeline
//     (see dismem.ForkOptions.Scenario); nil keeps the base cell's.
//   - Policy / Scheduler, when set, replace the scheduling policy from
//     the fork instant on.
//   - Failures, when set, reseeds the future failure stream per seed
//     (the base cell must have configured failure injection).
//   - StopWhen / SampleEvery apply to the future as in Run.
//   - Series and Trace, when set, attach per-seed sinks to the forked
//     future as in Run (parent sinks are never carried over).
//
// Machine, Model, Gen, StrictKill and Bounded are fixed by the base
// cell at checkpoint time and ignored here. One fork point serves any
// number of variant cells; each ForkFrom forks fresh state.
func (c Cell) ForkFrom(fp *ForkPoint) (Agg, error) {
	outs := make([]seedOut, len(fp.cps))
	fp.o.pool(seedRange(len(fp.cps)), outs, func(s int, _ *dismem.Runner) seedOut {
		fo := dismem.ForkOptions{Scenario: c.Scenario, Policy: c.Policy}
		switch {
		case c.Scheduler != nil:
			fo.SchedulerImpl = c.Scheduler()
		case c.Policy == "" && fp.scheduler != nil:
			// Variant keeps the base cell's factory-built policy:
			// build a fresh instance rather than sharing the one
			// frozen in the checkpoint.
			fo.SchedulerImpl = fp.scheduler()
		}
		if fc := c.seedFailures(s); fc != nil {
			fo.ReseedFailures = true
			fo.FailureSeed = fc.Seed
		}
		h, err := c.startSeed(fp.o, s, func(out dismem.Options) (*dismem.Simulation, error) {
			fo.Observer, fo.SampleEvery = out.Observer, out.SampleEvery
			fo.SeriesSink, fo.TraceSink = out.SeriesSink, out.TraceSink
			return dismem.Fork(fp.cps[s], fo)
		})
		if err != nil {
			return seedOut{err: err}
		}
		return seedResult(h, s)
	})
	return aggregate(outs)
}

// seedRange returns the seeds 0..n-1.
func seedRange(n int) []int {
	seeds := make([]int, n)
	for s := range seeds {
		seeds[s] = s
	}
	return seeds
}
