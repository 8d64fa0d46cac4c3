package sched_test

import (
	"slices"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/workload"
)

// scratchConfig is a rack-pool machine: 4 racks × 8 nodes, 1000 MiB of
// local DRAM per node and 3000 MiB per rack pool.
func scratchConfig() cluster.Config {
	return cluster.Config{
		Racks: 4, NodesPerRack: 8, CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: cluster.TopologyRack, PoolMiB: 3000, FabricGiBps: 10,
		TrafficGiBpsPerNode: 2,
	}
}

func scratchPlacers() []sched.Placer {
	return []sched.Placer{&sched.LocalOnly{}, &sched.Spill{}, core.New()}
}

func scratchJob(id, nodes int, mem int64) *workload.Job {
	return &workload.Job{ID: id, Nodes: nodes, MemPerNode: mem, Estimate: 1000, BaseRuntime: 500}
}

// TestPlacersPlanWithoutAllocating: LocalOnly, Spill and MemAware plan
// into placer-owned scratch, so once warmed a Plan makes no allocation,
// whether it places the job or not. Each round plans a job that fits,
// commits it (which moves the machine's version, so MemAware rebuilds
// its views), plans jobs that fail at different depths, and releases
// the commit again.
func TestPlacersPlanWithoutAllocating(t *testing.T) {
	var model memmodel.Model = memmodel.Linear{Beta: 0.5}
	local := scratchJob(1, 5, 800)   // every placer places it
	spill := scratchJob(2, 6, 1500)  // borrows 500 MiB per node: not LocalOnly
	short := scratchJob(3, 20, 2000) // 20 nodes free, pools hold 12 of them
	wide := scratchJob(4, 40, 800)   // wider than the machine's free nodes
	for _, p := range scratchPlacers() {
		m := cluster.MustNew(scratchConfig())
		_, localOnly := p.(*sched.LocalOnly)
		round := func() {
			for _, j := range []*workload.Job{local, spill} {
				plan := p.Plan(j, m, model)
				if plan == nil && localOnly && j == spill {
					continue
				}
				if plan == nil {
					t.Fatalf("%s: job %d not placed", p.Name(), j.ID)
				}
				a, err := m.AllocateCopy(plan.Alloc)
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				for _, f := range []*workload.Job{short, wide} {
					if p.Plan(f, m, model) != nil {
						t.Fatalf("%s: job %d placed", p.Name(), f.ID)
					}
				}
				if err := m.Release(j.ID); err != nil {
					t.Fatal(err)
				}
				m.Recycle(a)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Errorf("%s: a round of plans allocates %.1f times, want 0", p.Name(), allocs)
		}
	}
}

// TestCommittedPlanSurvivesNextPlan: a plan is scratch until committed.
// After AllocateCopy, the next Plan on the same placer overwrites the
// scratch but not the committed copy.
func TestCommittedPlanSurvivesNextPlan(t *testing.T) {
	var model memmodel.Model = memmodel.Linear{Beta: 0.5}
	for _, p := range scratchPlacers() {
		m := cluster.MustNew(scratchConfig())
		first := p.Plan(scratchJob(1, 3, 800), m, model)
		if first == nil {
			t.Fatalf("%s: first job not placed", p.Name())
		}
		a, err := m.AllocateCopy(first.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(a.Shares)
		next := p.Plan(scratchJob(2, 4, 900), m, model)
		if next == nil {
			t.Fatalf("%s: second job not placed", p.Name())
		}
		if a.JobID != 1 || !slices.Equal(a.Shares, want) {
			t.Fatalf("%s: the next Plan changed the committed allocation: job %d shares %v, want job 1 %v",
				p.Name(), a.JobID, a.Shares, want)
		}
		if _, err := m.AllocateCopy(next.Alloc); err != nil {
			t.Fatalf("%s: second plan does not commit beside the first: %v", p.Name(), err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}
