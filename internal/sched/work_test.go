package sched_test

import (
	"testing"

	"dismem"
	"dismem/internal/sched"
	"dismem/internal/spec"
	"dismem/internal/sweep"
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
