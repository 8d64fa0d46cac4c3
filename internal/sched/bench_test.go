package sched_test

import (
	"runtime"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/spec"
	"dismem/internal/workload"
)

// BenchmarkConservativePass measures one conservative-backfill pass
// (memaware-cons) on the Table 2 stressed machine: 64 GiB/node, 2 TiB
// rack pools, 8 GiB/s fabric. 40 jobs of the Table 2 workload run, the
// next 170 wait, about what that sweep's passes see, and a filler job
// holds most of the remaining nodes. No queued job can start, so every
// pass starts nothing and leaves the machine as it was; in steady state
// a pass allocates nothing. The passes alternate between the machine
// and an identical clone, so none can resume the one before it (a
// resumed pass with nothing new queued plans nothing): each timed pass
// is a full pass.
//
//   - wall=now: the filler takes every free node, so the profile has no
//     free node at Now and the pass ends as soon as it has built it:
//     the cost of a pass on a full machine.
//   - wall=later: the filler leaves 8 nodes free and only jobs wider
//     than that wait, so the pass plans up to the profile's wall and
//     drops the reservations past it.
//
// The first pass of each case is checked against the reference planner
// (sched.PassAgainstReference), which also confirms where its wall
// stands. It reports ns/pass, allocs/pass and breakpoints visited per
// pass.
func BenchmarkConservativePass(b *testing.B) {
	b.Run("wall=now", func(b *testing.B) { benchConservativePass(b, 0) })
	b.Run("wall=later", func(b *testing.B) { benchConservativePass(b, 8) })
}

// benchConservativePass runs BenchmarkConservativePass with free nodes
// left free beside the filler and only jobs wider than that queued.
func benchConservativePass(b *testing.B, free int) {
	const running, queued, now = 40, 170, 1 << 20
	cfg := cluster.DefaultConfig()
	cfg.PoolMiB = 2048 * 1024
	cfg.FabricGiBps = 8
	m := cluster.MustNew(cfg)
	model := memmodel.Bandwidth{Beta: 1, Gamma: 1}
	pol, err := spec.Parse("memaware-cons")
	if err != nil {
		b.Fatal(err)
	}

	wl := workload.MustGenerate(workload.DefaultGenConfig(2000, 1, cfg.TotalNodes()))
	ctx := &sched.Context{Now: now, Machine: m, Model: model, ExtendLimit: true}
	placer := core.New()
	start := func(j *workload.Job) bool {
		p := placer.Plan(j, m, model)
		if p == nil {
			return false
		}
		alloc, err := m.AllocateCopy(p.Alloc)
		if err != nil {
			b.Fatal(err)
		}
		// Half-way through its limit, so the releases spread over the
		// next few hours.
		ctx.Running = append(ctx.Running, sched.RunningJob{Job: j, Start: now - j.Estimate/2, Limit: j.Estimate, Alloc: alloc})
		return true
	}
	for _, j := range wl.Jobs {
		if len(ctx.Running) < running && start(j) {
			continue
		}
		if j.Nodes <= free {
			continue
		}
		if ctx.Queue = append(ctx.Queue, j); len(ctx.Queue) == queued {
			break
		}
	}
	filler := &workload.Job{ID: len(wl.Jobs) + 1, Nodes: m.FreeNodes() - free, MemPerNode: 1024, Estimate: 3600, BaseRuntime: 3600}
	if filler.Nodes > 0 && !start(filler) {
		b.Fatal("filler job did not fit the free nodes")
	}
	if len(ctx.Running) < running || len(ctx.Queue) != queued || m.FreeNodes() != free {
		b.Fatalf("fixture has %d running, %d queued, %d free nodes", len(ctx.Running), len(ctx.Queue), m.FreeNodes())
	}
	byEnd := ctx.ByEnd()
	ctx.ByEndFn = func() []sched.RunningJob { return byEnd }
	machines := [2]*cluster.Machine{m, m.Clone()}

	// The first pass grows the scheduler's scratch to its steady-state
	// size and is checked against the reference planner.
	ctx.Reset()
	_, w, err := sched.PassAgainstReference(pol, ctx)
	switch {
	case err != nil:
		b.Fatal(err)
	case w.Dispatched || w.Held:
		b.Fatal("the first pass started or held a job")
	case free == 0 && !w.WallAtNow:
		b.Fatal("a full machine left the wall after Now")
	case free > 0 && (w.WallAtNow || w.WallAtInf || w.Dropped == 0):
		b.Fatalf("the pass did not plan up to a wall after Now: %+v", w)
	}
	pass := func(i int) {
		ctx.Reset()
		ctx.Machine = machines[i%2]
		if d := pol.Pass(ctx); len(d) != 0 {
			b.Fatalf("pass started %d jobs", len(d))
		}
	}
	pass(1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	_, _, visited, _ := sched.PlanningWork(pol)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	_, _, visitedAfter, _ := sched.PlanningWork(pol)
	b.ReportMetric(0, "ns/op") // one op is one pass: report it as ns/pass
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pass")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "allocs/pass")
	b.ReportMetric(float64(visitedAfter-visited)/float64(b.N), "visited/pass")
}
