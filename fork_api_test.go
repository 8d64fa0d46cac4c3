package dismem_test

import (
	"maps"
	"strings"
	"testing"

	"dismem"
)

// forkOpts is the adversarial public-API configuration for fork tests:
// contention-sensitive model, failures and a scenario timeline.
func forkOpts(wl *dismem.Workload) dismem.Options {
	sc, err := dismem.ParseScenario("at=21600 down rack=2; at=43200 up rack=2; at=50000 beta scale=1.5")
	if err != nil {
		panic(err)
	}
	return dismem.Options{
		Policy:          "memaware",
		Model:           "bandwidth:1,1",
		Workload:        wl,
		Scenario:        sc,
		Failures:        &dismem.FailureConfig{MTBFPerNodeSec: 2_000_000, RepairSec: 7200, Seed: 5},
		CheckInvariants: true,
	}
}

func mustRun(t *testing.T, s *dismem.Simulation) *dismem.Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResults(t *testing.T, label string, a, b *dismem.Result) {
	t.Helper()
	if *a.Report != *b.Report {
		t.Fatalf("%s: reports differ:\n%+v\n%+v", label, a.Report, b.Report)
	}
	if a.Events != b.Events || a.ScenarioEvents != b.ScenarioEvents {
		t.Fatalf("%s: events %d/%d != %d/%d", label, a.Events, a.ScenarioEvents, b.Events, b.ScenarioEvents)
	}
	ra, rb := a.Recorder.Records(), b.Recorder.Records()
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d records != %d", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: record %d differs:\n%+v\n%+v", label, i, ra[i], rb[i])
		}
	}
}

// TestForkGolden is the public golden test: run-to-T + fork ≡ fresh run
// with the identical prefix — events, report and records — and the
// parent continues unharmed after being checkpointed.
func TestForkGolden(t *testing.T) {
	wl := dismem.SyntheticWorkload(800, 1)
	fresh := mustRun(t, mustNew(t, forkOpts(wl)))

	parent := mustNew(t, forkOpts(wl))
	parent.RunUntil(30000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.At() != 30000 {
		t.Fatalf("checkpoint at %d, want 30000", cp.At())
	}
	fork, err := dismem.Fork(cp, dismem.ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "fork vs fresh", fresh, mustRun(t, fork))
	sameResults(t, "parent vs fresh", fresh, mustRun(t, parent))

	// The checkpoint is reusable after its forks completed.
	again, err := dismem.Fork(cp, dismem.ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "second fork vs fresh", fresh, mustRun(t, again))
}

func mustNew(t *testing.T, o dismem.Options) *dismem.Simulation {
	t.Helper()
	s, err := dismem.New(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestForkWhatIf pins the headline use case: one warmed-up prefix, two
// futures — with and without an outage tail — plus determinism of each.
func TestForkWhatIf(t *testing.T) {
	wl := dismem.SyntheticWorkload(600, 2)
	opts := dismem.Options{Policy: "memaware", Model: "bandwidth:1,1", Workload: wl}
	parent := mustNew(t, opts)
	parent.RunUntil(20000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	outage, err := dismem.ParseScenario("at=25000 down rack=1; at=40000 up rack=1")
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, mustFork(t, cp, dismem.ForkOptions{}))
	hitA := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Scenario: outage}))
	hitB := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Scenario: outage}))
	sameResults(t, "outage forks", hitA, hitB)
	if hitA.ScenarioEvents != 2 {
		t.Fatalf("outage fork applied %d interventions, want 2", hitA.ScenarioEvents)
	}
	if *base.Report == *hitA.Report {
		t.Fatal("outage future identical to baseline future")
	}

	// Policy what-if: the same prefix under a different future policy.
	sjfA := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Policy: "order=sjf placer=memaware"}))
	sjfB := mustRun(t, mustFork(t, cp, dismem.ForkOptions{Policy: "order=sjf placer=memaware"}))
	sameResults(t, "policy forks", sjfA, sjfB)
}

// TestForkPolicySwitchRejectsInfeasibleQueue: a memaware run queues
// jobs that fit only with pool memory. A fork that switches to
// easy-local must reject exactly the queued jobs easy-local can never
// start, at the fork instant, and run everything else to completion
// instead of leaving them queued forever.
func TestForkPolicySwitchRejectsInfeasibleQueue(t *testing.T) {
	wl := dismem.SyntheticWorkload(2000, 3)
	opts := dismem.Options{Policy: "memaware", Workload: wl}
	mem := mustRun(t, mustNew(t, opts))
	neverLocal := map[int]bool{} // the jobs a fresh easy-local run rejects
	for _, r := range mustRun(t, mustNew(t, dismem.Options{Policy: "easy-local", Workload: wl})).Recorder.Records() {
		if r.Rejected {
			neverLocal[r.ID] = true
		}
	}
	for _, at := range []int64{43200, 86400} {
		cp := checkpointAt(t, opts, at)
		// The fork's rejections: memaware's before the instant, the
		// queued jobs easy-local can never start, and easy-local's
		// after the instant.
		want := map[int]bool{}
		queued, stuck := 0, 0
		for _, r := range mem.Recorder.Records() {
			switch {
			case r.Submit > at:
				if neverLocal[r.ID] {
					want[r.ID] = true
				}
			case r.Rejected:
				want[r.ID] = true
			case r.Start > at:
				queued++
				if neverLocal[r.ID] {
					want[r.ID] = true
					stuck++
				}
			}
		}
		if stuck == 0 {
			t.Fatalf("t=%d: none of %d queued jobs is infeasible under easy-local; the fixture tests nothing", at, queued)
		}
		res, err := mustFork(t, cp, dismem.ForkOptions{Policy: "easy-local"}).Run()
		if err != nil {
			t.Fatalf("easy-local fork at t=%d: %v", at, err)
		}
		got := map[int]bool{}
		for _, r := range res.Recorder.Records() {
			if r.Rejected {
				got[r.ID] = true
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("t=%d: fork rejected %d jobs, want %d (%d of %d queued jobs infeasible under easy-local)",
				at, len(got), len(want), stuck, queued)
		}
		if n := res.Report.Jobs() + res.Report.Rejected; n != len(wl.Jobs) {
			t.Fatalf("t=%d: fork accounted for %d jobs, want %d", at, n, len(wl.Jobs))
		}
		t.Logf("t=%d: %d queued, %d rejected at the fork", at, queued, stuck)
	}
}

// TestForkKeepingPolicyKeepsQueue: while a scenario has emptied the
// pools, queued jobs that need pool memory fail the scheduler's
// Feasible, yet the uninterrupted run keeps them queued until the
// pools come back. A fork that keeps the policy, by omission or by
// naming it, must keep them too: it replays the uninterrupted run.
func TestForkKeepingPolicyKeepsQueue(t *testing.T) {
	sc, err := dismem.ParseScenario("at=40000 resize pool=all cap=0; at=90000 resize pool=all cap=4194304")
	if err != nil {
		t.Fatal(err)
	}
	const at = 43200
	opts := dismem.Options{Policy: "memaware", Workload: dismem.SyntheticWorkload(2000, 3), Scenario: sc}
	fresh := mustRun(t, mustNew(t, opts))
	local := dismem.DefaultMachine().LocalMemMiB
	needPool := 0
	for _, r := range fresh.Recorder.Records() {
		if !r.Rejected && r.Submit <= at && r.Start > at && r.MemPerNode > local {
			needPool++
		}
	}
	if needPool == 0 {
		t.Fatal("no queued job needs pool memory at the fork; the fixture tests nothing")
	}
	cp := checkpointAt(t, opts, at)
	sameResults(t, "fork without overrides", fresh, mustRun(t, mustFork(t, cp, dismem.ForkOptions{})))
	sameResults(t, "fork naming memaware", fresh, mustRun(t, mustFork(t, cp, dismem.ForkOptions{Policy: "memaware"})))
}

func mustFork(t *testing.T, cp *dismem.Checkpoint, o dismem.ForkOptions) *dismem.Simulation {
	t.Helper()
	s, err := dismem.Fork(cp, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestForkBoundedRecording forks a bounded run into a fresh JSONL sink:
// the fork streams only its own suffix records, and its report matches
// a fresh bounded run.
func TestForkBoundedRecording(t *testing.T) {
	wl := dismem.SyntheticWorkload(500, 3)
	opts := dismem.Options{Policy: "memaware", Workload: wl, RecordSink: dismem.DiscardRecords}

	fresh := mustRun(t, mustNew(t, opts))

	parent := mustNew(t, opts)
	parent.RunUntil(15000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	fork := mustFork(t, cp, dismem.ForkOptions{RecordSink: dismem.NewJSONLSink(&buf)})
	res := mustRun(t, fork)
	if *res.Report != *fresh.Report {
		t.Fatalf("bounded fork report differs:\n%+v\n%+v", res.Report, fresh.Report)
	}
	suffix := strings.Count(buf.String(), "\n")
	if suffix == 0 {
		t.Fatal("fork streamed no records")
	}
	if suffix >= res.Report.Jobs()+res.Report.Rejected {
		t.Fatalf("fork streamed %d records, want only the post-checkpoint suffix of %d total",
			suffix, res.Report.Jobs()+res.Report.Rejected)
	}
}

// TestForkStreamingSWFRefused pins the documented limitation with a
// clear error instead of a corrupt fork.
func TestForkStreamingSWFRefused(t *testing.T) {
	trace := "1 0 0 3600 1 -1 500 1 7200 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"2 999999 0 3600 1 -1 500 1 7200 -1 1 1 1 -1 -1 -1 -1 -1\n"
	s := mustNew(t, dismem.Options{
		Policy:     "memaware",
		Source:     dismem.SWFSource(strings.NewReader(trace), dismem.SWFReadOptions{}),
		RecordSink: dismem.DiscardRecords,
	})
	s.RunUntil(10000)
	if _, err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "fork") {
		t.Fatalf("SWF-stream checkpoint error = %v, want forkability refusal", err)
	}
}
