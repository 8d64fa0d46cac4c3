package sim_test

import (
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sim"
	"dismem/internal/spec"
	"dismem/internal/workload"
)

// TestRedilationWork pins how many running jobs re-dilation visits on
// the stressed Table 2 machine (64 GiB/node, 2 TiB rack pools, 8 GiB/s
// fabric, bandwidth:1,1) at 2,000 jobs. Re-dilation walks only the
// jobs that hold pool memory, so a local-only policy visits none. The
// counts are deterministic: a rise is a regression, and a change that
// lowers one states old -> new and rewrites the pin.
func TestRedilationWork(t *testing.T) {
	mc := cluster.DefaultConfig()
	mc.LocalMemMiB = 64 * 1024
	mc.PoolMiB = 2048 * 1024
	mc.FabricGiBps = 8
	model, err := memmodel.Parse("bandwidth:1,1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.DefaultGenConfig(2000, 1, mc.TotalNodes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		policy string
		want   int
	}{
		// Before the remote view, every running job was visited:
		// 125,587 and 168,171.
		{"easy-local", 0},
		{"memaware", 13771},
	} {
		s, err := spec.Parse(c.policy)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{Machine: mc, Model: model, Scheduler: s, ExtendLimit: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(w); err != nil {
			t.Fatal(err)
		}
		if got := sim.Redilated(e); got != c.want {
			t.Errorf("%s: re-dilation visited %d running jobs, pinned %d", c.policy, got, c.want)
		}
	}
}
