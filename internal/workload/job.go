// Package workload defines the batch-job model, reads and writes traces
// in the Standard Workload Format (SWF), and generates synthetic
// workloads whose marginal distributions follow the published shapes of
// production HPC traces (heavy-tailed runtimes and memory footprints,
// bursty arrivals, power-of-two job sizes).
package workload

import (
	"fmt"
	"sort"
)

// State is a job's lifecycle state within a simulation.
type State int

// Job lifecycle states in submission order.
const (
	// StatePending means submitted and waiting in the queue.
	StatePending State = iota
	// StateRunning means dispatched onto nodes.
	StateRunning
	// StateCompleted means finished within its walltime estimate.
	StateCompleted
	// StateKilled means terminated at the walltime-estimate boundary
	// before its (possibly dilated) work finished.
	StateKilled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateKilled:
		return "killed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one batch job. Times are in seconds, memory in MiB. The
// scheduler sees Submit, Nodes, CoresPerNode, MemPerNode and Estimate;
// BaseRuntime is ground truth known only to the simulator.
type Job struct {
	// ID is a unique positive identifier (SWF job number).
	ID int
	// User and Group identify the submitter (SWF fields; used by
	// fairness metrics and the WFP policy).
	User, Group int
	// Submit is the arrival time in seconds since trace start.
	Submit int64
	// Nodes is the number of whole nodes requested (exclusive use).
	Nodes int
	// CoresPerNode is the per-node core request; 0 means "all cores".
	CoresPerNode int
	// MemPerNode is the requested per-node memory footprint in MiB.
	MemPerNode int64
	// Estimate is the user-provided walltime limit in seconds. A job
	// still running at Start+Estimate is killed.
	Estimate int64
	// BaseRuntime is the true runtime in seconds on all-local memory.
	// The effective runtime may be longer when part of the footprint
	// is served from a disaggregated pool.
	BaseRuntime int64
}

// MaxSeconds bounds every time a job carries (Submit, Estimate and
// BaseRuntime): 2^40 s, about 34,800 years. Anything later is no real
// job, and the bound leaves the simulator room to add a start, a
// dilated limit and a finish without overflowing int64.
const MaxSeconds = 1 << 40

// Validate reports the first structural problem with the job, or nil.
func (j *Job) Validate() error {
	switch {
	case j.ID <= 0:
		return fmt.Errorf("workload: job %d: non-positive id", j.ID)
	case j.Submit < 0:
		return fmt.Errorf("workload: job %d: negative submit time %d", j.ID, j.Submit)
	case j.Nodes <= 0:
		return fmt.Errorf("workload: job %d: non-positive node count %d", j.ID, j.Nodes)
	case j.CoresPerNode < 0:
		return fmt.Errorf("workload: job %d: negative cores/node %d", j.ID, j.CoresPerNode)
	case j.MemPerNode < 0:
		return fmt.Errorf("workload: job %d: negative mem/node %d", j.ID, j.MemPerNode)
	case j.Estimate <= 0:
		return fmt.Errorf("workload: job %d: non-positive estimate %d", j.ID, j.Estimate)
	case j.BaseRuntime <= 0:
		return fmt.Errorf("workload: job %d: non-positive runtime %d", j.ID, j.BaseRuntime)
	case j.Submit > MaxSeconds || j.Estimate > MaxSeconds || j.BaseRuntime > MaxSeconds:
		return fmt.Errorf("workload: job %d: submit %d, estimate %d or runtime %d above MaxSeconds (%d)",
			j.ID, j.Submit, j.Estimate, j.BaseRuntime, int64(MaxSeconds))
	}
	return nil
}

// TotalMem returns the job's aggregate memory footprint in MiB.
func (j *Job) TotalMem() int64 { return int64(j.Nodes) * j.MemPerNode }

// Accuracy returns the user's runtime-estimate accuracy
// BaseRuntime/Estimate, the standard trace metric (≤ 1 for
// overestimating users, > 1 would mean the job gets killed).
func (j *Job) Accuracy() float64 {
	if j.Estimate == 0 {
		return 0
	}
	return float64(j.BaseRuntime) / float64(j.Estimate)
}

// Workload is an ordered batch of jobs plus optional provenance.
type Workload struct {
	// Name labels the trace (file name or generator signature).
	Name string
	// Jobs is sorted by (Submit, ID).
	Jobs []*Job
}

// Validate checks every job and the arrival ordering.
func (w *Workload) Validate() error {
	var prev int64 = -1
	seen := make(map[int]bool, len(w.Jobs))
	for _, j := range w.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("workload: duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
		if j.Submit < prev {
			return fmt.Errorf("workload: job %d arrives at %d before previous arrival %d",
				j.ID, j.Submit, prev)
		}
		prev = j.Submit
	}
	return nil
}

// Sort orders jobs by (Submit, ID) in place.
func (w *Workload) Sort() {
	sort.SliceStable(w.Jobs, func(i, k int) bool {
		a, b := w.Jobs[i], w.Jobs[k]
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		return a.ID < b.ID
	})
}

// Span returns the interval [first submit, last submit] covered by the
// workload, or (0, 0) when empty.
func (w *Workload) Span() (first, last int64) {
	if len(w.Jobs) == 0 {
		return 0, 0
	}
	return w.Jobs[0].Submit, w.Jobs[len(w.Jobs)-1].Submit
}

// Clone returns a deep copy; simulations mutate nothing in Workload, but
// sweeps that rescale estimates need private copies.
func (w *Workload) Clone() *Workload {
	out := &Workload{Name: w.Name, Jobs: make([]*Job, len(w.Jobs))}
	for i, j := range w.Jobs {
		cp := *j
		out.Jobs[i] = &cp
	}
	return out
}
