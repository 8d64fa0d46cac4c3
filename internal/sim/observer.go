package sim

import (
	"dismem/internal/cluster"
	"dismem/internal/metrics"
	"dismem/internal/scenario"
	"dismem/internal/workload"
)

// Sample is a point-in-time view of a running engine: the scheduler's
// backlog, the machine's occupancy, and how far the simulation has
// progressed. It is what periodic OnSample ticks deliver and what
// Engine.Sample returns for ad-hoc polling between steps.
type Sample struct {
	// Now is the virtual clock in seconds since simulation start.
	Now int64
	// QueueDepth is the number of jobs waiting to be dispatched.
	QueueDepth int
	// Running is the number of jobs currently holding resources.
	Running int
	// Done counts jobs that reached a terminal state (completed,
	// killed, or rejected).
	Done int
	// Events is the number of DES events fired so far.
	Events uint64
	// Usage is the machine occupancy snapshot.
	Usage cluster.Usage
	// Pools is the per-pool usage breakdown, ascending by pool ID
	// (empty on pool-less machines). It backs the labeled per-pool
	// gauges on /metrics and the series export's pool columns.
	Pools []metrics.PoolPoint
	// RackFree is the number of available (up, idle) nodes per rack,
	// indexed by rack.
	RackFree []int
}

// Observer receives engine lifecycle callbacks. All methods are invoked
// synchronously from inside the event loop, so implementations MUST be
// read-only with respect to engine and machine state: mutating the
// machine, the queue, or the workload from a callback corrupts the
// simulation and breaks the determinism contract (DESIGN.md §2).
// Stopping early is the one sanctioned intervention, via the owning
// handle's Stop method (it only halts the event loop).
//
// A nil Observer costs nothing: it never joins the engine's output list
// (see Outputs), and without it or a series sink the engine schedules
// no sampling events.
type Observer interface {
	// OnDispatch fires when a job starts, after its allocation is
	// committed. remoteMiB is the pool memory the placement borrowed
	// and dilation the runtime multiplier the model predicts for it.
	OnDispatch(now int64, job *workload.Job, remoteMiB int64, dilation float64)
	// OnTerminate fires when a job reaches a terminal state, with the
	// record the metrics recorder keeps. Failure kills that will be
	// resubmitted are not terminal and do not fire this hook.
	OnTerminate(now int64, rec metrics.JobRecord)
	// OnPassEnd fires after every scheduling pass with the number of
	// jobs it dispatched and the queue depth it left behind.
	OnPassEnd(now int64, dispatched, queueDepth int)
	// OnSample fires every Config.SampleEvery simulated seconds while
	// jobs remain outstanding (never when SampleEvery is 0). Sampling
	// inserts extra DES events, so Result.Events differs from an
	// unsampled run; all scheduling outcomes are unchanged.
	OnSample(s Sample)
	// OnScenarioEvent fires after a scenario intervention has been
	// applied to the machine (and before the re-dilation and
	// scheduling pass it triggers). Interventions cancelled because
	// every job already terminated do not fire.
	OnScenarioEvent(now int64, ev scenario.Event)
}

// NopObserver implements Observer with no-ops; embed it to implement
// only the hooks of interest.
type NopObserver struct{}

// OnDispatch implements Observer.
func (NopObserver) OnDispatch(int64, *workload.Job, int64, float64) {}

// OnTerminate implements Observer.
func (NopObserver) OnTerminate(int64, metrics.JobRecord) {}

// OnPassEnd implements Observer.
func (NopObserver) OnPassEnd(int64, int, int) {}

// OnSample implements Observer.
func (NopObserver) OnSample(Sample) {}

// OnScenarioEvent implements Observer.
func (NopObserver) OnScenarioEvent(int64, scenario.Event) {}
