package dismem_test

// Alloc-budget regression tests: the allocation-discipline refactor
// took the hot path from ~110 allocations per simulated job to ~2
// (fresh construction) and ~1 (batched Runner reuse). These tests pin
// a ceiling well above today's numbers but far below any accidental
// regression — a new per-dispatch slice or per-event box shows up as
// tens of thousands of allocations per run and fails loudly here, in
// ordinary `go test ./...`, without anyone having to read a benchmark.

import (
	"testing"

	"dismem"
)

const (
	allocBudgetJobs = 1000
	// freshAllocsPerJob bounds one Simulate (engine construction
	// included). Measured ~1.8 today; the seed sat at ~110.
	freshAllocsPerJob = 12.0
	// batchAllocsPerJob bounds a steady-state Runner run, where the
	// machine, event pool and scratch all carry over. Measured ~1.1.
	batchAllocsPerJob = 8.0
)

func allocBudgetOptions() dismem.Options {
	return dismem.Options{
		Policy: "memaware", Model: "bandwidth:1,1",
		Workload: dismem.SyntheticWorkload(allocBudgetJobs, 1),
	}
}

func TestAllocBudgetSimulate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	opts := allocBudgetOptions()
	perRun := testing.AllocsPerRun(3, func() {
		res, err := dismem.Simulate(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			t.Fatal("no jobs ran")
		}
	})
	if perJob := perRun / allocBudgetJobs; perJob > freshAllocsPerJob {
		t.Errorf("Simulate allocates %.2f allocs/job (%.0f/run), budget %.1f — the hot path grew an allocation site",
			perJob, perRun, freshAllocsPerJob)
	}
}

func TestAllocBudgetRunner(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	opts := allocBudgetOptions()
	r := dismem.NewRunner()
	// AllocsPerRun's own warm-up call doubles as the batch's cold
	// first run, so the measured runs are all steady-state reuse.
	perRun := testing.AllocsPerRun(3, func() {
		res, err := r.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			t.Fatal("no jobs ran")
		}
	})
	if perJob := perRun / allocBudgetJobs; perJob > batchAllocsPerJob {
		t.Errorf("Runner.Run allocates %.2f allocs/job (%.0f/run), budget %.1f — batch reuse is leaking construction work",
			perJob, perRun, batchAllocsPerJob)
	}
}
