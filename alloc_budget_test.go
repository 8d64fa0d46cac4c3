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
// The marginal bound covers Simulate and a streamed SWF replay with
// JSONL record and trace sinks, the archive-scale path that carries
// source decode and sink encode.

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
	// (see the file comment). Measured 0.12 (Simulate) and 0.04
	// (streamed replay).
	marginalAllocsPerJob = 0.5
)

func allocBudgetOptions(jobs int) dismem.Options {
	return dismem.Options{
		Policy: "memaware", Model: "bandwidth:1,1",
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
