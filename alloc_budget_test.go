package dismem_test

// Alloc-budget regression tests. Two bounds pin the per-job allocation
// contract (DESIGN.md §13):
//
//   - A per-run ceiling on allocations per job at 1,000 jobs for one
//     Simulate, engine construction included. It sits a stated margin
//     above today's measurement.
//   - A marginal bound: (allocs at 5,000 jobs − allocs at 1,000 jobs) ÷
//     4,000 must stay at or below marginalAllocsPerJob. Construction and
//     other per-run costs cancel in the difference, so what is left is
//     the per-job cost alone. Today's per-job paths allocate almost
//     nothing, so one new per-job site (a fresh slice per dispatch, a
//     boxed payload per event, a *Job per decoded line, a reflective
//     encode per record) adds at least one allocation per job and fails
//     here, in ordinary `go test ./...`.
//
// The marginal bound covers Simulate under memaware and under the two
// baseline placers (easy-local, easy-oblivious), and a streamed SWF
// replay with JSONL record and trace sinks, the archive-scale path that
// carries source decode and sink encode.
//
// A third bound pins a fork's cost per running job: (allocs of a Fork
// with many jobs running − allocs with few) ÷ the difference in running
// jobs. A fork clones the running set into arrays, so that quotient is
// near 0, and a per-running-job allocation in the clone fails it.

import (
	"bytes"
	"io"
	"testing"

	"dismem"
	"dismem/internal/source"
	"dismem/internal/workload"
)

const (
	allocBudgetJobs = 1000
	// freshAllocsPerJob bounds one Simulate (engine construction
	// included) at allocBudgetJobs. Measured 0.91, plus a margin of 0.59:
	// less than one allocation per job, so one new per-job site fails.
	// The seed sat at ~110.
	freshAllocsPerJob = 1.5
	// marginalAllocsPerJob bounds the allocations each further job adds
	// (see the file comment). Measured 0.12 (Simulate), 0.05
	// (easy-local), 0.13 (easy-oblivious) and 0.04 (streamed replay).
	marginalAllocsPerJob = 0.5
	// forkAllocsPerRunningJob bounds the allocations each further
	// running job adds to a Fork (see the file comment). Measured 0.1;
	// cloning each running job's allocation, shares, running state and
	// end event one by one measured 4.5.
	forkAllocsPerRunningJob = 0.25
)

func allocBudgetOptions(jobs int) dismem.Options {
	return policyBudgetOptions("memaware", jobs)
}

func policyBudgetOptions(policy string, jobs int) dismem.Options {
	return dismem.Options{
		Policy: policy, Model: "bandwidth:1,1",
		Workload: dismem.SyntheticWorkload(jobs, 1),
	}
}

// simulateAllocs returns Simulate's allocations per run of o.
func simulateAllocs(t *testing.T, o dismem.Options) float64 {
	return testing.AllocsPerRun(3, func() {
		res, err := dismem.Simulate(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			t.Fatal("no jobs ran")
		}
	})
}

// streamAllocs returns the allocations of one streamed replay of a
// jobs-long Lublin SWF trace, with JSONL record and trace sinks writing
// to io.Discard.
func streamAllocs(t *testing.T, jobs int) float64 {
	nodes := dismem.DefaultMachine().TotalNodes()
	cfg := workload.DefaultLublinConfig(0, 1, nodes)
	cfg.MeanInterarrival = 1800
	st, err := workload.NewLublinStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var swf bytes.Buffer
	if err := workload.NewSWFWriter(&swf).WriteAll(source.Gen(st, jobs, 0).Next); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(3, func() {
		res, err := dismem.Simulate(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1",
			Source:     dismem.SWFSource(bytes.NewReader(swf.Bytes()), dismem.SWFReadOptions{DefaultMemPerNode: 32 * 1024}),
			RecordSink: dismem.NewJSONLSink(io.Discard),
			TraceSink:  dismem.NewJSONLTraceSink(io.Discard),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Report.Jobs() + res.Report.Rejected; got != jobs {
			t.Fatalf("replay accounted for %d jobs, want %d", got, jobs)
		}
	})
}

func TestAllocBudgetSimulate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	perRun := simulateAllocs(t, allocBudgetOptions(allocBudgetJobs))
	if perJob := perRun / allocBudgetJobs; perJob > freshAllocsPerJob {
		t.Errorf("Simulate allocates %.2f allocs/job (%.0f/run), budget %.2f — the hot path grew an allocation site",
			perJob, perRun, freshAllocsPerJob)
	}
}

// TestAllocBudgetMarginal pins the per-job allocation cost of each
// path: the growth in allocations from 1,000 to 5,000 jobs, per job.
func TestAllocBudgetMarginal(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	const small, large = 1000, 5000
	for _, c := range []struct {
		name   string
		allocs func(jobs int) float64
	}{
		{"Simulate", func(n int) float64 { return simulateAllocs(t, allocBudgetOptions(n)) }},
		{"Simulate easy-local", func(n int) float64 { return simulateAllocs(t, policyBudgetOptions("easy-local", n)) }},
		{"Simulate easy-oblivious", func(n int) float64 { return simulateAllocs(t, policyBudgetOptions("easy-oblivious", n)) }},
		{"streamed SWF replay", func(n int) float64 { return streamAllocs(t, n) }},
	} {
		a, b := c.allocs(small), c.allocs(large)
		marginal := (b - a) / (large - small)
		t.Logf("%s: %.0f allocs at %d jobs, %.0f at %d: %.3f allocs per further job", c.name, a, small, b, large, marginal)
		if marginal > marginalAllocsPerJob {
			t.Errorf("%s: each further job allocates %.3f times (%.0f allocs at %d jobs, %.0f at %d), budget %.2f — a per-job allocation site",
				c.name, marginal, a, small, b, large, marginalAllocsPerJob)
		}
	}
}

// forkAllocs checkpoints a memaware run of SyntheticWorkload(2000, 1)
// at instant at and returns the allocations of one Fork of it, with
// the number of jobs running at the checkpoint.
func forkAllocs(t *testing.T, at int64) (allocs float64, running int) {
	h, err := dismem.New(dismem.Options{Policy: "memaware", Workload: dismem.SyntheticWorkload(2000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	h.RunUntil(at)
	cp, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := dismem.Fork(cp, dismem.ForkOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, h.Running()
}

// TestAllocBudgetFork pins a fork's cost per running job: the growth in
// a Fork's allocations between a checkpoint with many jobs running and
// one with few, per further running job.
func TestAllocBudgetFork(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	busy, nBusy := forkAllocs(t, 100_000)
	quiet, nQuiet := forkAllocs(t, 600_000)
	if nBusy <= nQuiet {
		t.Fatalf("%d jobs running at t=100000, %d at t=600000: the fixture lost its spread", nBusy, nQuiet)
	}
	perJob := (busy - quiet) / float64(nBusy-nQuiet)
	t.Logf("Fork: %.0f allocs with %d running, %.0f with %d: %.3f per further running job", busy, nBusy, quiet, nQuiet, perJob)
	if perJob > forkAllocsPerRunningJob {
		t.Errorf("Fork allocates %.3f times per running job (%.0f allocs with %d running, %.0f with %d), budget %.2f — a per-running-job allocation site",
			perJob, busy, nBusy, quiet, nQuiet, forkAllocsPerRunningJob)
	}
}
