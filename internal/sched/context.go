// Package sched implements batch schedulers for the simulated machine:
// queue-ordering policies (FCFS, SJF, WFP, largest-first), backfilling
// (EASY and conservative), and placement policies (local-DRAM-only and
// disaggregation-oblivious spill). The disaggregation-aware placement
// policy — the paper's contribution — lives in internal/core and plugs
// into the same interfaces.
package sched

import (
	"sort"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// RunningJob is the scheduler-visible state of a dispatched job.
type RunningJob struct {
	Job   *workload.Job
	Start int64
	// Limit is the job's wall-clock limit in seconds (the user estimate,
	// possibly extended for predicted dilation by the engine's limit
	// rule). Start+Limit is the latest instant the job can hold nodes.
	Limit int64
	Alloc *cluster.Allocation
}

// GuaranteedEnd returns the latest time the job's resources are held.
func (r *RunningJob) GuaranteedEnd() int64 { return r.Start + r.Limit }

// Context is everything a scheduler may consult during one pass. The
// machine is live: committing an allocation immediately updates it so
// later placements in the same pass see the new state.
type Context struct {
	Now     int64
	Machine *cluster.Machine
	Model   memmodel.Model
	// Queue holds pending jobs in arrival order; schedulers reorder a
	// copy according to their queue policy. Between passes the engine
	// only appends to it (arrivals and requeued jobs) and removes the
	// jobs the previous pass dispatched, keeping the rest in order.
	Queue []*workload.Job
	// Running holds the dispatched jobs in ascending job ID order. It
	// is engine-owned state: read-only to the scheduler.
	Running []RunningJob
	// ExtendLimit mirrors the engine's limit rule: when true, a job
	// placed with predicted dilation D gets limit = ceil(estimate*D)
	// instead of estimate, and planners must reserve accordingly.
	ExtendLimit bool
	// ByEndFn, when set by the engine, returns Running sorted by
	// (GuaranteedEnd, JobID) from incrementally maintained state, so a
	// pass never re-sorts the running set. The slice it returns is
	// engine-owned state, read-only like Running. ByEnd falls back to
	// sorting a copy when it is nil.
	ByEndFn func() []RunningJob
	// CheckInvariants mirrors the engine's check mode: a scheduler that
	// takes incremental shortcuts also computes each such result the
	// full way and panics on a difference (see Batch.Pass).
	CheckInvariants bool

	userRunning map[int]int
	userBuilt   bool
	byEnd       []RunningJob
	byEndValid  bool
}

// Reset clears the per-pass memoized state (the lazy per-user counts
// and the ByEnd view) so one Context value can be reused across passes
// without reallocating its internals. The exported fields are left for
// the caller to refill.
func (c *Context) Reset() {
	clear(c.userRunning)
	c.userBuilt = false
	c.byEnd = nil
	c.byEndValid = false
}

// RunningOfUser returns how many jobs of user are running: those in
// the Running snapshot plus those a Batch pass has committed so far.
// The per-user counts are built once per pass, so per-job throttling
// checks are O(1) instead of O(running).
func (c *Context) RunningOfUser(user int) int {
	c.countUsers()
	return c.userRunning[user]
}

// started counts a job committed during this pass toward its user.
func (c *Context) started(user int) {
	c.countUsers()
	c.userRunning[user]++
}

// countUsers builds the per-user counts of the Running snapshot once
// per pass.
func (c *Context) countUsers() {
	if c.userBuilt {
		return
	}
	if c.userRunning == nil {
		c.userRunning = make(map[int]int, len(c.Running))
	}
	for i := range c.Running {
		c.userRunning[c.Running[i].Job.User]++
	}
	c.userBuilt = true
}

// ByEnd returns the running jobs sorted by (GuaranteedEnd, JobID), the
// order reservation planners consume releases in. The view is computed
// at most once per Context.
func (c *Context) ByEnd() []RunningJob {
	if c.byEndValid {
		return c.byEnd
	}
	if c.ByEndFn != nil {
		c.byEnd = c.ByEndFn()
	} else {
		c.byEnd = append([]RunningJob(nil), c.Running...)
		sort.Slice(c.byEnd, func(i, j int) bool {
			ei, ej := c.byEnd[i].GuaranteedEnd(), c.byEnd[j].GuaranteedEnd()
			if ei != ej {
				return ei < ej
			}
			return c.byEnd[i].Job.ID < c.byEnd[j].Job.ID
		})
	}
	c.byEndValid = true
	return c.byEnd
}

// Limit returns the wall-clock limit the engine will assign to job if
// started now with predicted dilation.
func (c *Context) Limit(job *workload.Job, dilation float64) int64 {
	return Limit(job, dilation, c.ExtendLimit)
}

// Limit is the one limit rule, shared by the engine and the planners:
// the job's estimate, or, when extend is set and dilation > 1,
// ⌈Estimate × dilation⌉ clamped to [Estimate, workload.MaxSeconds].
// The clamp is a range check on the float, made before the conversion:
// Go leaves an out-of-range float-to-int64 conversion to the
// implementation (amd64 yields -2^63), and a NaN dilation fails every
// comparison, so it clamps to the maximum too.
func Limit(job *workload.Job, dilation float64, extend bool) int64 {
	if !extend || dilation <= 1 {
		return job.Estimate
	}
	l := float64(job.Estimate)*dilation + 0.999999
	if !(l < workload.MaxSeconds) {
		return workload.MaxSeconds
	}
	return max(int64(l), job.Estimate)
}

// Dispatch is one job started during a pass; its allocation is already
// committed to the machine. Plan.Alloc is the committed allocation (the
// machine-owned copy when the scheduler commits via AllocateCopy), so
// it stays valid for the job's whole residency even when the placer
// recycles its planning scratch.
type Dispatch struct {
	Job  *workload.Job
	Plan Plan
}

// Scheduler examines the queue and starts jobs. Pass commits the
// allocations of returned dispatches to ctx.Machine before returning.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Pass runs one scheduling cycle and returns the started jobs in
	// dispatch order. The returned slice may be scheduler-owned scratch,
	// valid only until the next Pass call; callers that need it longer
	// must copy it.
	Pass(ctx *Context) []Dispatch
	// Feasible reports whether job could ever run on an idle machine m
	// under the given memory model; the engine rejects infeasible jobs
	// at submission so they cannot block the queue forever.
	Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool
}
