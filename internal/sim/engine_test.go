package sim

import (
	"strings"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/memmodel"
	"dismem/internal/metrics"
	"dismem/internal/sched"
	"dismem/internal/workload"
)

// tinyMachine: 1 rack x 2 nodes, 1000 MiB local; pool/fabric per test.
func tinyMachine(poolMiB int64, fabric float64) cluster.Config {
	cfg := cluster.Config{
		Racks: 1, NodesPerRack: 2, CoresPerNode: 4, LocalMemMiB: 1000,
		Topology: cluster.TopologyNone,
	}
	if poolMiB > 0 {
		cfg.Topology = cluster.TopologyRack
		cfg.PoolMiB = poolMiB
		cfg.FabricGiBps = fabric
		cfg.TrafficGiBpsPerNode = 2
	}
	return cfg
}

func easyLocal() sched.Scheduler {
	return &sched.Batch{Order: sched.FCFS{}, Backfill: sched.BackfillEASY, Placer: &sched.LocalOnly{}}
}

func easySpill() sched.Scheduler {
	return &sched.Batch{Order: sched.FCFS{}, Backfill: sched.BackfillEASY, Placer: &sched.Spill{}}
}

func run(t *testing.T, cfg Config, jobs ...*workload.Job) *Result {
	t.Helper()
	cfg.CheckInvariants = true
	w := &workload.Workload{Name: "test", Jobs: jobs}
	w.Sort()
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func record(t *testing.T, res *Result, id int) *metrics.JobRecord {
	t.Helper()
	for i := range res.Recorder.Records() {
		r := &res.Recorder.Records()[i]
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no record for job %d", id)
	return nil
}

func TestSingleJobTiming(t *testing.T) {
	res := run(t, Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()},
		&workload.Job{ID: 1, Submit: 10, Nodes: 1, MemPerNode: 500, Estimate: 1000, BaseRuntime: 100},
	)
	r := record(t, res, 1)
	if r.Start != 10 || r.End != 110 || r.Killed || r.Rejected {
		t.Fatalf("record = %+v, want start 10 end 110", r)
	}
	if r.Wait() != 0 || r.Runtime() != 100 || r.Response() != 100 {
		t.Fatalf("derived metrics wrong: wait=%d runtime=%d", r.Wait(), r.Runtime())
	}
	if res.Report.Completed != 1 || res.Report.Killed != 0 {
		t.Fatalf("report = %+v", res.Report)
	}
}

func TestQueueingWhenMachineFull(t *testing.T) {
	res := run(t, Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()},
		&workload.Job{ID: 1, Submit: 0, Nodes: 2, MemPerNode: 500, Estimate: 200, BaseRuntime: 100},
		&workload.Job{ID: 2, Submit: 5, Nodes: 2, MemPerNode: 500, Estimate: 200, BaseRuntime: 50},
	)
	r1, r2 := record(t, res, 1), record(t, res, 2)
	if r1.Start != 0 || r1.End != 100 {
		t.Fatalf("job1 = %+v", r1)
	}
	if r2.Start != 100 || r2.End != 150 {
		t.Fatalf("job2 = %+v, want start at job1's end", r2)
	}
	if r2.Wait() != 95 {
		t.Fatalf("job2 wait = %d, want 95", r2.Wait())
	}
}

func TestEASYBackfillEndToEnd(t *testing.T) {
	// Node 0+1 busy until 100 (job1). Job2 wants both nodes (estimate
	// 100 → reservation at 100). Job3 (1 node, est 50) backfills at 5.
	res := run(t, Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()},
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 1, Estimate: 100, BaseRuntime: 100},
		&workload.Job{ID: 2, Submit: 5, Nodes: 2, MemPerNode: 1, Estimate: 100, BaseRuntime: 100},
		&workload.Job{ID: 3, Submit: 5, Nodes: 1, MemPerNode: 1, Estimate: 50, BaseRuntime: 40},
	)
	r2, r3 := record(t, res, 2), record(t, res, 3)
	if r3.Start != 5 {
		t.Fatalf("job3 start = %d, want 5 (backfilled)", r3.Start)
	}
	if r2.Start != 100 {
		t.Fatalf("job2 start = %d, want 100 (head reservation kept)", r2.Start)
	}
}

func TestDilatedRuntimeAndExtendedLimit(t *testing.T) {
	// mem 2000 on 1000 local → f=0.5; linear β=1 → dilation 1.5.
	// Base 100 → wall-clock 150. Estimate 120 < 150 but ExtendLimit
	// raises the limit to 180, so the job completes.
	res := run(t, Config{
		Machine: tinyMachine(4000, 100), Model: memmodel.Linear{Beta: 1},
		Scheduler: easySpill(), ExtendLimit: true,
	},
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 2000, Estimate: 120, BaseRuntime: 100},
	)
	r := record(t, res, 1)
	if r.Killed {
		t.Fatal("dilated job killed despite extended limit")
	}
	if r.End != 150 {
		t.Fatalf("end = %d, want 150 (100 x 1.5)", r.End)
	}
	if r.Limit != 180 {
		t.Fatalf("limit = %d, want 180 (120 x 1.5)", r.Limit)
	}
	if r.Dilation != 1.5 || r.RemoteFrac != 0.5 || r.RemoteMiB != 1000 {
		t.Fatalf("record = %+v", r)
	}
}

func TestStrictKillAtEstimate(t *testing.T) {
	res := run(t, Config{
		Machine: tinyMachine(4000, 100), Model: memmodel.Linear{Beta: 1},
		Scheduler: easySpill(), ExtendLimit: false,
	},
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 2000, Estimate: 120, BaseRuntime: 100},
	)
	r := record(t, res, 1)
	if !r.Killed {
		t.Fatal("dilated job not killed under strict limits")
	}
	if r.End != 120 || r.Limit != 120 {
		t.Fatalf("end/limit = %d/%d, want 120/120", r.End, r.Limit)
	}
	if res.Report.Killed != 1 {
		t.Fatalf("report killed = %d", res.Report.Killed)
	}
}

func TestKillAtEstimateLocalJob(t *testing.T) {
	// Underestimating user: base 200, estimate 100 → killed at 100
	// regardless of ExtendLimit (dilation 1).
	res := run(t, Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal(), ExtendLimit: true},
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 1, Estimate: 100, BaseRuntime: 200},
	)
	r := record(t, res, 1)
	if !r.Killed || r.End != 100 {
		t.Fatalf("record = %+v, want killed at 100", r)
	}
}

func TestRejectInfeasibleJob(t *testing.T) {
	res := run(t, Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()},
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 5000, Estimate: 100, BaseRuntime: 50},
		&workload.Job{ID: 2, Submit: 0, Nodes: 1, MemPerNode: 500, Estimate: 100, BaseRuntime: 50},
	)
	r1 := record(t, res, 1)
	if !r1.Rejected {
		t.Fatal("infeasible job not rejected")
	}
	if res.Report.Rejected != 1 || res.Report.Completed != 1 {
		t.Fatalf("report = %+v", res.Report)
	}
}

func TestReDilationUnderContention(t *testing.T) {
	// Hand-computed two-job contention scenario (see comments inline).
	cfg := tinyMachine(4000, 2)
	cfg.TrafficGiBpsPerNode = 4
	model := memmodel.Bandwidth{Beta: 1, Gamma: 1}
	res := run(t, Config{Machine: cfg, Model: model, Scheduler: easySpill(), ExtendLimit: true},
		// Job 1: f=0.5, demand 2 GiB/s on a 2 GiB/s fabric → c=1,
		// over=0 → dilation 1.5. Alone it would end at 150.
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 2000, Estimate: 10000, BaseRuntime: 100},
		// Job 2 arrives at 50: total demand 4 → c=2 → over=1 →
		// dilation 1 + 1*0.5*(1+1) = 2.0 for both jobs.
		&workload.Job{ID: 2, Submit: 50, Nodes: 1, MemPerNode: 2000, Estimate: 10000, BaseRuntime: 100},
	)
	r1, r2 := record(t, res, 1), record(t, res, 2)
	// Job 1: 50s at rate 1/1.5 → 33.33 work done, 66.67 left; at rate
	// 1/2 that takes 133.33s → ends ceil(183.33) = 184.
	if r1.End != 184 {
		t.Fatalf("job1 end = %d, want 184 (re-dilated)", r1.End)
	}
	// Job 2 runs at rate 1/2 from 50 until job1 ends at 184 (67 work
	// done), then at 1/1.5: remaining 33 work takes 49.5s → 233.5 → 234.
	if r2.End != 234 {
		t.Fatalf("job2 end = %d, want 234 (re-accelerated)", r2.End)
	}
}

func TestDeterminism(t *testing.T) {
	gen := workload.DefaultGenConfig(400, 3, 16)
	w1 := workload.MustGenerate(gen)
	w2 := workload.MustGenerate(gen)
	mk := func(w *workload.Workload) *Result {
		res, err := Run(Config{
			Machine:   cluster.DefaultConfig(),
			Model:     memmodel.Bandwidth{Beta: 1, Gamma: 1},
			Scheduler: &sched.Batch{Order: sched.FCFS{}, Backfill: sched.BackfillEASY, Placer: core.New()},
		}, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(w1), mk(w2)
	ra, rb := a.Recorder.Records(), b.Recorder.Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, ra[i], rb[i])
		}
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestJobConservation(t *testing.T) {
	w := workload.MustGenerate(workload.DefaultGenConfig(800, 9, 32))
	res, err := Run(Config{
		Machine:         cluster.DefaultConfig(),
		Model:           memmodel.Linear{Beta: 0.5},
		Scheduler:       easySpill(),
		ExtendLimit:     true,
		CheckInvariants: true,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	rp := res.Report
	if got := rp.Completed + rp.Killed + rp.Rejected; got != len(w.Jobs) {
		t.Fatalf("job conservation violated: %d accounted, %d submitted", got, len(w.Jobs))
	}
	for _, r := range res.Recorder.Records() {
		if r.Rejected {
			continue
		}
		if r.Start < r.Submit {
			t.Fatalf("job %d started before submission: %+v", r.ID, r)
		}
		if r.End <= r.Start {
			t.Fatalf("job %d has non-positive runtime: %+v", r.ID, r)
		}
		if r.End > r.Start+r.Limit {
			t.Fatalf("job %d ran past its limit: %+v", r.ID, r)
		}
		if r.Dilation < 1 {
			t.Fatalf("job %d dilation < 1: %+v", r.ID, r)
		}
	}
}

// stuckScheduler never dispatches anything: the engine must detect the
// wedged queue instead of reporting success.
type stuckScheduler struct{}

func (stuckScheduler) Name() string                         { return "stuck" }
func (stuckScheduler) Pass(*sched.Context) []sched.Dispatch { return nil }
func (stuckScheduler) Feasible(*workload.Job, *cluster.Machine, memmodel.Model) bool {
	return true
}

func TestEngineDetectsStuckQueue(t *testing.T) {
	w := &workload.Workload{Jobs: []*workload.Job{
		{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 1, Estimate: 10, BaseRuntime: 5},
	}}
	_, err := Run(Config{Machine: tinyMachine(0, 0), Scheduler: stuckScheduler{}}, w)
	if err == nil || !strings.Contains(err.Error(), "never terminated") {
		t.Fatalf("stuck queue not detected: %v", err)
	}
}

func TestNilSchedulerRejected(t *testing.T) {
	if _, err := New(Config{Machine: tinyMachine(0, 0)}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestInvalidWorkloadRejected(t *testing.T) {
	w := &workload.Workload{Jobs: []*workload.Job{{ID: 0}}}
	_, err := Run(Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()}, w)
	if err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// One job on 1 of 2 nodes for the full makespan → node util 0.5.
	res := run(t, Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()},
		&workload.Job{ID: 1, Submit: 0, Nodes: 1, MemPerNode: 500, Estimate: 200, BaseRuntime: 100},
	)
	if u := res.Report.NodeUtil; u != 0.5 {
		t.Fatalf("node util = %g, want 0.5", u)
	}
	// Local memory util: 500/(2*1000) = 0.25 for the whole span.
	if u := res.Report.LocalMemUtil; u != 0.25 {
		t.Fatalf("local mem util = %g, want 0.25", u)
	}
}
