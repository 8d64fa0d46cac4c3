package dismem_test

import (
	"bytes"
	"strings"
	"testing"

	"dismem"
	"dismem/internal/workload"
)

func TestPoliciesRegistry(t *testing.T) {
	pols := dismem.Policies()
	want := []string{"easy-local", "easy-oblivious", "fcfs-local", "memaware"}
	for _, w := range want {
		found := false
		for _, p := range pols {
			if p == w {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("policy %q missing from registry %v", w, pols)
		}
	}
	for _, p := range pols {
		s, err := dismem.NewScheduler(p)
		if err != nil {
			t.Fatalf("NewScheduler(%q): %v", p, err)
		}
		if s.Name() != p {
			t.Fatalf("scheduler for %q reports name %q", p, s.Name())
		}
	}
	if _, err := dismem.NewScheduler("bogus"); err == nil || !strings.HasPrefix(err.Error(), `dismem: spec: unknown policy "bogus"`) {
		t.Fatalf("unknown policy error = %v", err)
	}
}

func TestSchedulersAreFreshInstances(t *testing.T) {
	a, _ := dismem.NewScheduler("memaware")
	b, _ := dismem.NewScheduler("memaware")
	if a == b {
		t.Fatal("NewScheduler returned a shared instance")
	}
}

func TestSimulateSmoke(t *testing.T) {
	wl := dismem.SyntheticWorkload(600, 1)
	res, err := dismem.Simulate(dismem.Options{
		Policy:   "memaware",
		Model:    "linear:0.5",
		Workload: wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Jobs()+r.Rejected != 600 {
		t.Fatalf("job conservation: %d+%d != 600", r.Jobs(), r.Rejected)
	}
	if r.NodeUtil <= 0 || r.NodeUtil > 1 {
		t.Fatalf("node util %g outside (0,1]", r.NodeUtil)
	}
}

func TestSimulateDefaults(t *testing.T) {
	wl := dismem.SyntheticWorkload(200, 2)
	// Zero machine and empty model pick the documented defaults.
	res, err := dismem.Simulate(dismem.Options{Policy: "easy-oblivious", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Jobs() == 0 {
		t.Fatal("no jobs ran under defaults")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := dismem.Simulate(dismem.Options{Policy: "memaware"}); err == nil {
		t.Fatal("nil workload accepted")
	}
	wl := dismem.SyntheticWorkload(10, 1)
	if _, err := dismem.Simulate(dismem.Options{Policy: "nope", Workload: wl}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := dismem.Simulate(dismem.Options{Policy: "memaware", Model: "zap:1", Workload: wl}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	wl := dismem.SyntheticWorkload(400, 5)
	runOnce := func() *dismem.Report {
		res, err := dismem.Simulate(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	a, b := runOnce(), runOnce()
	if a.Wait.Mean() != b.Wait.Mean() || a.NodeUtil != b.NodeUtil || a.Completed != b.Completed {
		t.Fatal("identical simulations diverged")
	}
}

// TestSlowdownCapThroughSpec: the memaware slowdown cap, set through
// the spec grammar, bounds every admitted pool-using job's dilation end
// to end. At least one job must use the pool, so the check cannot pass
// vacuously.
func TestSlowdownCapThroughSpec(t *testing.T) {
	s, err := dismem.NewScheduler("placer=memaware cap=1.2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := dismem.Simulate(dismem.Options{SchedulerImpl: s, Model: "linear:1", Workload: dismem.SyntheticWorkload(300, 1)})
	if err != nil {
		t.Fatal(err)
	}
	remote := 0
	for _, r := range res.Recorder.Records() {
		if r.Rejected || r.RemoteMiB == 0 {
			continue
		}
		remote++
		if r.Dilation > 1.2+1e-9 {
			t.Fatalf("job %d dilation %g exceeds cap 1.2", r.ID, r.Dilation)
		}
	}
	if remote == 0 {
		t.Fatal("no admitted job used the pool: the cap was never exercised")
	}
}

func TestBaselineRunsWholeWorkload(t *testing.T) {
	// The 256 GiB baseline must accept every generated job (footprints
	// are capped at 256 GiB): zero rejections by construction.
	wl := dismem.SyntheticWorkload(500, 3)
	res, err := dismem.Simulate(dismem.Options{
		Machine:  dismem.BaselineMachine(256 * 1024),
		Policy:   "easy-local",
		Workload: wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Rejected != 0 {
		t.Fatalf("baseline rejected %d jobs", res.Report.Rejected)
	}
}

func TestSWFThroughPublicAPI(t *testing.T) {
	// Generate → write SWF → read back → simulate: the trace-import
	// path users exercise with real archive traces.
	wl := dismem.SyntheticWorkload(200, 4)
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, wl); err != nil {
		t.Fatal(err)
	}
	back, skipped, err := workload.ReadSWF(&buf, workload.SWFReadOptions{})
	if err != nil || skipped != 0 {
		t.Fatalf("read back: %v (skipped %d)", err, skipped)
	}
	res, err := dismem.Simulate(dismem.Options{Policy: "memaware", Workload: back})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Jobs()+res.Report.Rejected != 200 {
		t.Fatal("SWF round-trip lost jobs")
	}
}

func TestSimulateWithFailures(t *testing.T) {
	wl := dismem.SyntheticWorkload(300, 6)
	res, err := dismem.Simulate(dismem.Options{
		Policy:   "memaware",
		Workload: wl,
		Failures: &dismem.FailureConfig{MTBFPerNodeSec: 200 * 3600, RepairSec: 3600, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.NodeFailures == 0 {
		t.Fatal("no failures injected at MTBF 200h on a 256-node machine")
	}
	if r.Jobs()+r.Rejected != 300 {
		t.Fatalf("job conservation with failures: %d+%d != 300", r.Jobs(), r.Rejected)
	}
	// Restart counts on records must sum to the failure-kill total minus
	// abandoned attempts (each record carries its own restarts).
	total := 0
	for _, rec := range res.Recorder.Records() {
		total += rec.Restarts
	}
	if total != r.FailureKills {
		t.Fatalf("restart accounting: records sum %d, report %d", total, r.FailureKills)
	}
}

func TestFairnessThroughFacade(t *testing.T) {
	wl := dismem.SyntheticWorkload(400, 8)
	res, err := dismem.Simulate(dismem.Options{Policy: "easy-oblivious", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	fair := res.Recorder.Fairness()
	if len(fair.Users) == 0 {
		t.Fatal("no per-user stats")
	}
	if fair.JainWait <= 0 || fair.JainWait > 1 {
		t.Fatalf("JainWait = %g outside (0,1]", fair.JainWait)
	}
	if fair.GiniNodeHours < 0 || fair.GiniNodeHours > 1 {
		t.Fatalf("GiniNodeHours = %g outside [0,1]", fair.GiniNodeHours)
	}
	jobs := 0
	for _, u := range fair.Users {
		jobs += u.Jobs
	}
	if jobs != res.Report.Jobs() {
		t.Fatalf("per-user jobs %d != report jobs %d", jobs, res.Report.Jobs())
	}
}

func TestDefaultGenScalesToMachine(t *testing.T) {
	mc := dismem.DefaultMachine()
	mc.Racks = 2 // 32-node machine
	gen := dismem.DefaultGen(100, 1, mc)
	if gen.MaxNodes != 32 {
		t.Fatalf("MaxNodes = %d, want 32", gen.MaxNodes)
	}
}
