package sched_test

import (
	"testing"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/spec"
	"dismem/internal/sweep"
	"dismem/internal/workload"
)

// planningWork is a conservative scheduler's planning work, summed over
// a cell's seeds: full passes, profile searches, the breakpoints those
// searches visit and the breakpoints profile splits move.
type planningWork struct {
	full, searches, visited, moved int
}

// TestConservativePlanningWork pins the planning work of Table 2's two
// conservative cells (the stressed machine: 64 GiB/node, 2 TiB rack
// pools, 8 GiB/s fabric, bandwidth:1,1) at 2,000 jobs x 2 seeds. The
// counts are deterministic, so any change fails: a rise is a
// regression, and a change that lowers a count states old -> new and
// rewrites the pin.
func TestConservativePlanningWork(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 2's conservative cells at 2,000 jobs x 2 seeds in -short mode")
	}
	mc := dismem.DefaultMachine()
	mc.LocalMemMiB = 64 * 1024
	mc.Topology = dismem.TopologyRack
	mc.PoolMiB = 2048 * 1024
	mc.FabricGiBps = 8
	for _, c := range []struct {
		policy string
		want   planningWork
	}{
		// Before planning stopped at the wall: {4227 338447 16242656
		// 11047297} and {4600 410531 22056148 13470436}.
		{"cons-local", planningWork{full: 4227, searches: 282157, visited: 1962543, moved: 393546}},
		{"memaware-cons", planningWork{full: 4600, searches: 337296, visited: 2079318, moved: 502893}},
	} {
		var batches []*sched.Batch
		cell := sweep.Cell{Machine: mc, Policy: c.policy, Model: "bandwidth:1,1",
			Scheduler: func() dismem.Scheduler {
				b, err := spec.Parse(c.policy)
				if err != nil {
					t.Fatal(err)
				}
				batches = append(batches, b)
				return b
			}}
		if _, err := cell.Run(sweep.Options{Jobs: 2000, Seeds: 2, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		var got planningWork
		for _, b := range batches {
			full, searches, visited, moved := sched.PlanningWork(b)
			got.full += full
			got.searches += searches
			got.visited += visited
			got.moved += moved
		}
		if got != c.want {
			t.Errorf("%s: planning work %+v, pinned %+v", c.policy, got, c.want)
		}
	}
}

// countingPlacer counts the Plan calls made on the placer it wraps.
type countingPlacer struct {
	sched.Placer
	plans *int
}

func (p countingPlacer) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *sched.Plan {
	*p.plans++
	return p.Placer.Plan(job, m, model)
}

// TestTable2PlanCalls pins the Placer.Plan calls of every Table 2 cell
// at 2,000 jobs x 2 seeds, the baseline row on the 256 GiB machine and
// the rest on the stressed one. EASY backfill skips a candidate wider
// than the free nodes without a Plan call, and the patient cell saves
// most. The counts are deterministic: a rise is a regression, and a
// change that lowers one states old -> new and rewrites the pin.
func TestTable2PlanCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 2 at 2,000 jobs x 2 seeds in -short mode")
	}
	stressed := dismem.DefaultMachine()
	stressed.LocalMemMiB = 64 * 1024
	stressed.Topology = dismem.TopologyRack
	stressed.PoolMiB = 2048 * 1024
	stressed.FabricGiBps = 8
	for _, c := range []struct {
		row, policy string
		machine     dismem.MachineConfig
		// before is the count before backfill skipped candidates wider
		// than the free nodes.
		before, want int
	}{
		{"easy-local @256GiB", "easy-local", dismem.BaselineMachine(256 * 1024), 383252, 9535},
		{"fcfs-local", "fcfs-local", stressed, 6574, 6574},
		{"easy-local", "easy-local", stressed, 235936, 7896},
		{"cons-local", "cons-local", stressed, 3328, 3328},
		{"easy-oblivious", "easy-oblivious", stressed, 546832, 11410},
		{"memaware", "memaware", stressed, 341070, 8729},
		{"memaware-cons", "memaware-cons", stressed, 3695, 3695},
		{"memaware-patient", "memaware-patient", stressed, 408337, 14414},
	} {
		plans := 0
		cell := sweep.Cell{Machine: c.machine, Policy: c.policy, Model: "bandwidth:1,1",
			Scheduler: func() dismem.Scheduler {
				b, err := spec.Parse(c.policy)
				if err != nil {
					t.Fatal(err)
				}
				b.Placer = countingPlacer{Placer: b.Placer, plans: &plans}
				return b
			}}
		if _, err := cell.Run(sweep.Options{Jobs: 2000, Seeds: 2, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if plans != c.want {
			t.Errorf("%s: %d Plan calls, pinned %d (%d before the free-node skip)", c.row, plans, c.want, c.before)
		}
	}
}
