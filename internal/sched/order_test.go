package sched

import (
	"slices"
	"testing"

	"dismem/internal/stats"
	"dismem/internal/workload"
)

func jobsForOrder() []*workload.Job {
	return []*workload.Job{
		{ID: 1, Submit: 100, Nodes: 4, Estimate: 1000, BaseRuntime: 500},
		{ID: 2, Submit: 50, Nodes: 16, Estimate: 100, BaseRuntime: 50},
		{ID: 3, Submit: 200, Nodes: 1, Estimate: 5000, BaseRuntime: 2000},
		{ID: 4, Submit: 50, Nodes: 2, Estimate: 100, BaseRuntime: 80},
	}
}

func ids(jobs []*workload.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func equalIDs(a []int, b ...int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFCFSOrder(t *testing.T) {
	q := jobsForOrder()
	FCFS{}.Sort(300, q)
	if got := ids(q); !equalIDs(got, 2, 4, 1, 3) {
		t.Fatalf("FCFS order = %v, want [2 4 1 3] (submit, then id)", got)
	}
}

func TestSJFOrder(t *testing.T) {
	q := jobsForOrder()
	SJF{}.Sort(300, q)
	if got := ids(q); !equalIDs(got, 2, 4, 1, 3) {
		t.Fatalf("SJF order = %v, want [2 4 1 3] (estimate, then id)", got)
	}
}

func TestLargestFirstOrder(t *testing.T) {
	q := jobsForOrder()
	LargestFirst{}.Sort(300, q)
	if got := ids(q); !equalIDs(got, 2, 1, 4, 3) {
		t.Fatalf("LargestFirst order = %v, want [2 1 4 3]", got)
	}
}

func TestWFPOrder(t *testing.T) {
	// At now=1050: job2 has wait 1000, estimate 100 → (10)^3*16 huge;
	// job3 wait 850/5000 → tiny. Large old short-estimate jobs first.
	q := jobsForOrder()
	WFP{}.Sort(1050, q)
	if got := ids(q); got[0] != 2 {
		t.Fatalf("WFP order = %v, want job 2 first", got)
	}
	// Jobs never waiting get score 0 and keep ID order among ties.
	q2 := []*workload.Job{
		{ID: 5, Submit: 1050, Nodes: 4, Estimate: 100},
		{ID: 6, Submit: 1050, Nodes: 9, Estimate: 100},
	}
	WFP{}.Sort(1050, q2)
	if got := ids(q2); !equalIDs(got, 5, 6) {
		t.Fatalf("WFP tie order = %v, want [5 6]", got)
	}
}

func TestWFPNegativeWaitClamped(t *testing.T) {
	// A job "arriving in the future" (clock skew) must not produce NaN
	// or panic; it sorts as zero-score.
	q := []*workload.Job{
		{ID: 1, Submit: 2000, Nodes: 4, Estimate: 100},
		{ID: 2, Submit: 0, Nodes: 4, Estimate: 100},
	}
	WFP{}.Sort(1000, q)
	if got := ids(q); !equalIDs(got, 2, 1) {
		t.Fatalf("WFP with future submit = %v, want [2 1]", got)
	}
}

func TestOrderNames(t *testing.T) {
	for _, o := range []Order{FCFS{}, SJF{}, LargestFirst{}, WFP{}} {
		if o.Name() == "" {
			t.Errorf("%T has empty name", o)
		}
	}
}

func TestOrderStability(t *testing.T) {
	// Identical jobs (same keys) must keep their relative order.
	q := []*workload.Job{
		{ID: 1, Submit: 10, Nodes: 2, Estimate: 100},
		{ID: 2, Submit: 10, Nodes: 2, Estimate: 100},
		{ID: 3, Submit: 10, Nodes: 2, Estimate: 100},
	}
	for _, o := range []Order{FCFS{}, SJF{}, LargestFirst{}, WFP{}} {
		o.Sort(500, q)
		if got := ids(q); !equalIDs(got, 1, 2, 3) {
			t.Fatalf("%s broke tie stability: %v", o.Name(), got)
		}
	}
}

// TestFCFSSortMatchesSortFunc: FCFS.Sort sorts only a queue it finds
// out of order, and its result must equal slices.SortFunc with
// fcfsCompare on queues already in order, in order with a requeued
// tail (older jobs appended behind later arrivals, as failure restarts
// leave them), and shuffled.
func TestFCFSSortMatchesSortFunc(t *testing.T) {
	rng := stats.NewRNG(22)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		q := make([]*workload.Job, n)
		for i := range q {
			// Few distinct submits, so (Submit, ID) ties on Submit are common.
			q[i] = &workload.Job{ID: i + 1, Submit: int64(rng.Intn(8))}
		}
		slices.SortFunc(q, fcfsCompare)
		switch trial % 3 {
		case 1:
			if n > 1 {
				k := rng.Intn(n)
				tail := q[k]
				q = append(slices.Delete(q, k, k+1), tail)
			}
		case 2:
			rng.Shuffle(n, func(i, j int) { q[i], q[j] = q[j], q[i] })
		}
		want := slices.Clone(q)
		slices.SortFunc(want, fcfsCompare)
		FCFS{}.Sort(0, q)
		if !slices.Equal(q, want) {
			t.Fatalf("trial %d: FCFS.Sort gave %v, SortFunc %v", trial, ids(q), ids(want))
		}
	}
}
