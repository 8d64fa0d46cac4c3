package sched_test

import (
	"fmt"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/scenario"
	"dismem/internal/sched"
	"dismem/internal/sim"
	"dismem/internal/spec"
	"dismem/internal/workload"
)

// TestResumedPassesMatchFullPasses checks resumed passes against full
// passes. Three hand-built fixtures pin the conditions that random runs
// reach only rarely: the two decisions that make a pass time-dependent,
// and a running job whose guaranteed end has come; then a matrix of
// policies, machines and perturbations runs with the engine's check
// mode on. In that mode every resumed pass is also computed as a full
// pass on a clone of the machine, and any difference in dispatched jobs
// or placements panics; the test requires that resumed passes did occur
// under each backfill mode, so the comparison was exercised.
func TestResumedPassesMatchFullPasses(t *testing.T) {
	t.Run("hold-at-now", testResumeAfterHoldAtNow)
	t.Run("patience", testResumeAfterPatienceSkip)
	t.Run("end-at-now", testResumeWithEndAtNow)
	if testing.Short() {
		t.Skip("check-mode matrix in -short mode")
	}
	policies := []string{
		"order=fcfs backfill=none placer=local",
		"order=fcfs backfill=none placer=memaware patience=3600",
		"order=fcfs backfill=none placer=spill maxperuser=2",
		"order=fcfs backfill=easy placer=local",
		"order=fcfs backfill=easy placer=spill maxscan=16",
		"order=fcfs backfill=easy placer=memaware patience=1800",
		"order=fcfs backfill=easy placer=memaware maxperuser=3",
		"order=fcfs backfill=conservative placer=local maxres=24",
		"order=fcfs backfill=conservative placer=spill patience=1800",
		"order=fcfs backfill=conservative placer=memaware",
		"order=fcfs backfill=conservative placer=memaware maxperuser=2 maxres=64",
		"order=sjf backfill=easy placer=memaware",
		"order=wfp backfill=conservative placer=spill",
		"order=largest backfill=none placer=local",
	}
	rack := cluster.DefaultConfig()
	rack.LocalMemMiB = 64 * 1024
	rack.Topology = cluster.TopologyRack
	rack.PoolMiB = 2048 * 1024
	rack.FabricGiBps = 8
	global := rack
	global.Topology = cluster.TopologyGlobal
	global.PoolMiB *= int64(global.Racks)
	global.FabricGiBps *= float64(global.Racks)
	// A small machine runs few jobs at once, so fewer terminations
	// separate its passes and more of them resume.
	small := rack
	small.Racks, small.NodesPerRack = 4, 8
	small.PoolMiB = 512 * 1024
	machines := []struct {
		name string
		mc   cluster.Config
	}{{"rack", rack}, {"global", global}, {"small", small}}

	// The scenario takes a rack down and back, doubles the remote
	// penalty for a while, and shrinks one pool below its usage before
	// restoring it.
	outage := scenario.MustParse(`
		at=20000 down rack=2
		at=30000 beta scale=2
		at=40000 resize pool=1 cap=262144
		at=60000 up rack=2
		at=90000 beta scale=1
		at=100000 resize pool=1 cap=2097152`)
	variants := []struct {
		name     string
		failures bool
		scenario *scenario.Scenario
		strict   bool
	}{
		{name: "plain"},
		{name: "failures", failures: true},
		{name: "scenario", scenario: outage, strict: true},
	}

	resumed := map[sched.BackfillMode]int{}
	for _, pol := range policies {
		for _, m := range machines {
			mc := m.mc
			for _, v := range variants {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/%s/seed%d", pol, m.name, v.name, seed)
					b, err := spec.Parse(pol)
					if err != nil {
						t.Fatal(err)
					}
					cfg := sim.Config{
						Machine:         mc,
						Model:           memmodel.Bandwidth{Beta: 1, Gamma: 1},
						Scheduler:       b,
						ExtendLimit:     !v.strict,
						CheckInvariants: true,
						Scenario:        v.scenario,
					}
					if v.failures {
						cfg.Failures = &sim.FailureConfig{
							MTBFPerNodeSec: int64(mc.TotalNodes()) * 7200,
							RepairSec:      3600, Seed: seed, MaxRestarts: 2,
						}
					}
					// Offered load per node matches the default machine's.
					gen := workload.DefaultGenConfig(400, seed, mc.TotalNodes())
					gen.MeanInterarrival *= 256 / float64(mc.TotalNodes())
					wl := workload.MustGenerate(gen)
					runChecked(t, name, cfg, wl)
					resumed[b.Backfill] += sched.ResumedPasses(b)
				}
			}
		}
	}
	for _, mode := range []sched.BackfillMode{sched.BackfillNone, sched.BackfillEASY, sched.BackfillConservative} {
		if resumed[mode] == 0 {
			t.Errorf("no pass resumed under backfill=%s: the check mode compared nothing", mode)
		} else {
			t.Logf("backfill=%s: %d resumed passes checked", mode, resumed[mode])
		}
	}
}

// runChecked runs one simulation and turns a check-mode panic into a
// test failure naming the run.
func runChecked(t *testing.T, name string, cfg sim.Config, wl *workload.Workload) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: %v", name, r)
		}
	}()
	if _, err := sim.Run(cfg, wl); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// refuse places jobs as LocalOnly does, except job id, which it never
// places: it stands in for a placement that per-rack fragmentation
// rules out although the aggregate capacity exists.
type refuse struct {
	sched.LocalOnly
	id int
}

func (p refuse) Plan(j *workload.Job, m *cluster.Machine, model memmodel.Model) *sched.Plan {
	if j.ID == p.id {
		return nil
	}
	return p.LocalOnly.Plan(j, m, model)
}

// passAt runs one pass of b at now with the check mode on, turning its
// panic into a test failure, and returns the dispatched job IDs.
func passAt(t *testing.T, b *sched.Batch, m *cluster.Machine, model memmodel.Model, now int64, queue []*workload.Job, running []sched.RunningJob) (ids []int) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("pass at %d: %v", now, r)
		}
	}()
	ctx := &sched.Context{Now: now, Machine: m, Model: model, Queue: queue, Running: running, CheckInvariants: true}
	for _, d := range b.Pass(ctx) {
		ids = append(ids, d.Job.ID)
	}
	return ids
}

// testResumeAfterHoldAtNow: on 3 free nodes, job 1 (1 node) fits the
// profile now but has no placement, so conservative backfill holds its
// reservation at now, [0, 100), and job 2 (3 nodes) reserves [100,
// 200). At t=10 job 3 (1 node, 100 s) arrives. A full pass re-holds job
// 1 on [10, 110) and moves job 2 to [110, 210), so job 3 fits beside
// job 1 and starts. The profile carried from t=0 still has job 2 at
// [100, 200), where job 3 does not fit: the pass at 0 must not be
// resumed.
func testResumeAfterHoldAtNow(t *testing.T) {
	m := cluster.MustNew(cluster.Config{Racks: 1, NodesPerRack: 3, CoresPerNode: 8, LocalMemMiB: 1000})
	b := &sched.Batch{Order: sched.FCFS{}, Backfill: sched.BackfillConservative, Placer: refuse{id: 1}}
	job := func(id, nodes int, submit int64) *workload.Job {
		return &workload.Job{ID: id, Nodes: nodes, MemPerNode: 100, Submit: submit, Estimate: 100, BaseRuntime: 100}
	}
	q := []*workload.Job{job(1, 1, 0), job(2, 3, 0)}
	if got := passAt(t, b, m, nil, 0, q, nil); len(got) != 0 {
		t.Fatalf("pass at 0 started %v", got)
	}
	q = append(q, job(3, 1, 10))
	if got := passAt(t, b, m, nil, 10, q, nil); fmt.Sprint(got) != "[3]" {
		t.Errorf("pass at 10 started %v, want [3]", got)
	}
}

// testResumeAfterPatienceSkip: under EASY with 50 s of spill patience,
// job 1 could spill at t=10 but is 10 s old, so it waits, and job 2
// (4 nodes, 2 free) is the blocked head. Nothing changes until t=60,
// when job 1's patience has run out and a full pass starts it: the
// pass at 10 must not be resumed.
func testResumeAfterPatienceSkip(t *testing.T) {
	m := cluster.MustNew(cluster.Config{
		Racks: 1, NodesPerRack: 4, CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: cluster.TopologyRack, PoolMiB: 10000, FabricGiBps: 10, TrafficGiBpsPerNode: 2,
	})
	model := memmodel.Linear{Beta: 0.5}
	holder := &workload.Job{ID: 90, Nodes: 2, MemPerNode: 100, Estimate: 1000, BaseRuntime: 1000}
	plan := sched.LocalOnly{}.Plan(holder, m, model)
	if err := m.Allocate(plan.Alloc); err != nil {
		t.Fatal(err)
	}
	running := []sched.RunningJob{{Job: holder, Start: 0, Limit: 1000, Alloc: plan.Alloc}}
	b := &sched.Batch{Order: sched.FCFS{}, Backfill: sched.BackfillEASY, Placer: sched.Spill{}, SpillPatience: 50}
	q := []*workload.Job{
		{ID: 1, Nodes: 1, MemPerNode: 1500, Estimate: 100, BaseRuntime: 100},
		{ID: 2, Nodes: 4, MemPerNode: 100, Estimate: 100, BaseRuntime: 100},
	}
	if got := passAt(t, b, m, model, 10, q, running); len(got) != 0 {
		t.Fatalf("pass at 10 started %v", got)
	}
	if got := passAt(t, b, m, model, 60, q, running); fmt.Sprint(got) != "[1]" {
		t.Errorf("pass at 60 started %v, want [1]", got)
	}
}

// testResumeWithEndAtNow: job 1 (one node, 500 MiB of pool) does not
// fit the aggregate free pool at t=50, because pool 0 was shrunk below
// its usage and its free MiB is negative, so conservative backfill
// reserves it from t=100, when job 91 guarantees to release 300 MiB of
// pool 1. At t=100 job 91 still runs: its end event can sit behind the
// pass at that instant. A full pass then finds job 1 fits the profile
// now, and pool 1 alone holds it, so job 1 starts: the pass at 50 must
// not be resumed while a running job's guaranteed end is at or before
// Now.
func testResumeWithEndAtNow(t *testing.T) {
	m := cluster.MustNew(cluster.Config{
		Racks: 2, NodesPerRack: 2, CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: cluster.TopologyRack, PoolMiB: 1000, FabricGiBps: 10, TrafficGiBpsPerNode: 2,
	})
	hold := func(id int, node cluster.NodeID, pool cluster.PoolID, remote, end int64) sched.RunningJob {
		j := &workload.Job{ID: id, Nodes: 1, MemPerNode: 1000 + remote, Estimate: end, BaseRuntime: end}
		a := &cluster.Allocation{JobID: id, Shares: []cluster.NodeShare{{Node: node, LocalMiB: 1000, RemoteMiB: remote, Pool: pool}}}
		if err := m.Allocate(a); err != nil {
			t.Fatal(err)
		}
		return sched.RunningJob{Job: j, Start: 0, Limit: end, Alloc: a}
	}
	running := []sched.RunningJob{hold(90, 0, 0, 800, 1000), hold(91, 2, 1, 300, 100)}
	if err := m.SetPoolCapacity(0, 500); err != nil {
		t.Fatal(err)
	}
	b := &sched.Batch{Order: sched.FCFS{}, Backfill: sched.BackfillConservative, Placer: sched.Spill{}}
	q := []*workload.Job{{ID: 1, Nodes: 1, MemPerNode: 1500, Estimate: 100, BaseRuntime: 100}}
	if got := passAt(t, b, m, nil, 50, q, running); len(got) != 0 {
		t.Fatalf("pass at 50 started %v", got)
	}
	if got := passAt(t, b, m, nil, 100, q, running); fmt.Sprint(got) != "[1]" {
		t.Errorf("pass at 100 started %v, want [1]", got)
	}
}
