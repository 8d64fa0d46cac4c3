package dismem_test

import (
	"strings"
	"sync"
	"testing"

	"dismem"
)

// frozen returns the shared checkpoint fixture for the validation
// tests: the adversarial fork configuration advanced to t=30000.
func frozen(t *testing.T) *dismem.Checkpoint {
	t.Helper()
	parent := mustNew(t, forkOpts(dismem.SyntheticWorkload(400, 4)))
	parent.RunUntil(30000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestForkOptionValidation pins the pointed up-front errors: a bad
// what-if request must fail at Fork with a message naming the defect,
// never surface as a confusing failure deep inside sim (and never
// after paying for a full future replay first).
func TestForkOptionValidation(t *testing.T) {
	cp := frozen(t)
	cases := []struct {
		name string
		o    dismem.ForkOptions
		want string // substring of the error
	}{
		{
			name: "horizon before the frozen clock",
			o:    dismem.ForkOptions{Horizon: 20000},
			want: "precedes the checkpoint's frozen clock t=30000",
		},
		{
			name: "negative horizon",
			o:    dismem.ForkOptions{Horizon: -1},
			want: "precedes the checkpoint's frozen clock",
		},
		{
			name: "malformed scenario tail",
			o:    dismem.ForkOptions{ScenarioSpec: "at=50000 explode rack=2"},
			want: "fork scenario",
		},
		{
			name: "scenario tail with garbage term",
			o:    dismem.ForkOptions{ScenarioSpec: "down rack"},
			want: "fork scenario",
		},
		{
			name: "modulating scenario tail (spec form)",
			o:    dismem.ForkOptions{ScenarioSpec: "from=40000 until=50000 rate=3 surge"},
			want: "must not modulate arrivals",
		},
		{
			name: "both scenario forms set",
			o:    dismem.ForkOptions{ScenarioSpec: "at=50000 down rack=1", Scenario: &dismem.Scenario{}},
			want: "both ScenarioSpec and Scenario",
		},
		{
			name: "malformed policy spec",
			o:    dismem.ForkOptions{Policy: "order=bogus placer=memaware"},
			want: "fork policy",
		},
		{
			name: "unknown policy name",
			o:    dismem.ForkOptions{Policy: "no-such-policy or=terms"},
			want: "fork policy",
		},
		{
			name: "reseed without failure injection requires config",
			o:    dismem.ForkOptions{ReseedFailures: true, FailureSeed: 9},
			want: "", // valid here: the fixture has failure injection
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dismem.Fork(cp, tc.o)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Fork() = %v, want success", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Fork() error = %v, want substring %q", err, tc.want)
			}
		})
	}

	if _, err := dismem.Fork(nil, dismem.ForkOptions{}); err == nil ||
		!strings.Contains(err.Error(), "nil checkpoint") {
		t.Fatalf("Fork(nil) error = %v, want nil-checkpoint refusal", err)
	}
}

// TestForkHorizonRun pins the horizon semantics: Run stops exactly at
// the horizon with Result.Stopped set, a horizon at the frozen clock is
// a valid zero-length future, and a horizon past the natural end
// completes normally (Stopped unset).
func TestForkHorizonRun(t *testing.T) {
	cp := frozen(t)
	full := mustRun(t, mustFork(t, cp, dismem.ForkOptions{}))

	cut := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Horizon: cp.At() + 10000}))
	if !cut.Stopped {
		t.Fatal("horizon-bounded fork did not report Stopped")
	}
	if cut.Report.Jobs() >= full.Report.Jobs() {
		t.Fatalf("horizon-bounded fork terminated %d jobs, want fewer than the full run's %d",
			cut.Report.Jobs(), full.Report.Jobs())
	}

	zero := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Horizon: cp.At()}))
	if !zero.Stopped {
		t.Fatal("zero-length future did not report Stopped")
	}

	past := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Horizon: 1 << 40}))
	if past.Stopped {
		t.Fatal("fork with a horizon past the natural end reported Stopped")
	}
	sameResults(t, "far horizon vs unbounded", full, past)
}

// TestConcurrentForksBitIdentical enforces the checkpoint concurrency
// contract under -race: one checkpoint forked from 8 goroutines
// simultaneously must produce results bit-identical to the serial
// fork — same report, same event count, same records.
func TestConcurrentForksBitIdentical(t *testing.T) {
	cp := frozen(t)
	serial := mustRun(t, mustFork(t, cp, dismem.ForkOptions{}))

	const goroutines = 8
	results := make([]*dismem.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := dismem.Fork(cp, dismem.ForkOptions{})
			if err != nil {
				errs[g] = err
				return
			}
			results[g], errs[g] = f.Run()
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		sameResults(t, "concurrent fork", serial, results[g])
	}
}

// TestForksWhileParentRuns extends the concurrency contract to a live
// parent. A checkpoint shares the parent's retained records, including
// the part-full last chunk the parent keeps appending into; here the
// parent steps to completion while 8 goroutines fork and run the
// checkpoint. Under -race, every fork must equal a serial fork, and
// the parent must finish equal to a run that was never checkpointed.
func TestForksWhileParentRuns(t *testing.T) {
	opts := forkOpts(dismem.SyntheticWorkload(800, 4))
	unforked := mustRun(t, mustNew(t, opts))
	parent := mustNew(t, opts)
	parent.RunUntil(20000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	serial := mustRun(t, mustFork(t, cp, dismem.ForkOptions{}))
	// A prefix that is not a whole number of 256-record chunks leaves
	// the shared last chunk part full, so the parent writes into it.
	prefix := len(mustRun(t, mustFork(t, cp, dismem.ForkOptions{Horizon: cp.At()})).Recorder.Records())
	if prefix == 0 || prefix%256 == 0 {
		t.Fatalf("checkpoint holds %d records; want a part-full last chunk", prefix)
	}

	const goroutines = 8
	results := make([]*dismem.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := dismem.Fork(cp, dismem.ForkOptions{})
			if err != nil {
				errs[g] = err
				return
			}
			results[g], errs[g] = f.Run()
		}(g)
	}
	final, err := parent.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		sameResults(t, "fork beside a running parent", serial, results[g])
	}
	if len(final.Recorder.Records()) <= prefix+256 {
		t.Fatalf("parent appended only %d records past the checkpoint", len(final.Recorder.Records())-prefix)
	}
	sameResults(t, "parent after checkpoint", unforked, final)
}
