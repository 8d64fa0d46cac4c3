package sched

import (
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// spillJob needs 600 MiB of pool memory per node on the 1000 MiB-local
// machine from batch_test.go.
func spillJob(id int, submit int64) *workload.Job {
	return &workload.Job{
		ID: id, Nodes: 1, MemPerNode: 1600,
		Submit: submit, Estimate: 1000, BaseRuntime: 500,
	}
}

func TestSpillPatienceDelaysDilatedPlacement(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(4000))
	b := &Batch{
		Order: FCFS{}, Backfill: BackfillEASY, Placer: Spill{},
		SpillPatience: 600,
	}
	model := memmodel.Linear{Beta: 1}
	// Job submitted at t=0, pass at t=100: younger than patience →
	// held back even though the machine is idle.
	ctx := &Context{
		Now: 100, Machine: m, Model: model,
		Queue: []*workload.Job{spillJob(1, 0)},
	}
	if ds := b.Pass(ctx); len(ds) != 0 {
		t.Fatalf("patient scheduler spilled a young job: %v", dispatchIDs(ds))
	}
	// Same job past its patience: spills normally.
	ctx.Now = 700
	ds := b.Pass(ctx)
	if len(ds) != 1 || ds[0].Job.ID != 1 {
		t.Fatalf("job not spilled after patience: %v", dispatchIDs(ds))
	}
}

func TestSpillPatienceDoesNotDelayLocalJobs(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(4000))
	b := &Batch{
		Order: FCFS{}, Backfill: BackfillEASY, Placer: Spill{},
		SpillPatience: 600,
	}
	ctx := &Context{
		Now: 0, Machine: m, Model: memmodel.Linear{Beta: 1},
		Queue: []*workload.Job{timedJob(1, 1, 500, 100)}, // fits local
	}
	if ds := b.Pass(ctx); len(ds) != 1 {
		t.Fatalf("patience delayed an undilated job: %v", dispatchIDs(ds))
	}
}

func TestSpillPatienceDoesNotBlockQueue(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(4000))
	b := &Batch{
		Order: FCFS{}, Backfill: BackfillEASY, Placer: Spill{},
		SpillPatience: 600,
	}
	// Patient head must not stop the local job behind it.
	ctx := &Context{
		Now: 0, Machine: m, Model: memmodel.Linear{Beta: 1},
		Queue: []*workload.Job{
			spillJob(1, 0),
			timedJob(2, 1, 500, 100),
		},
	}
	ds := b.Pass(ctx)
	if len(ds) != 1 || ds[0].Job.ID != 2 {
		t.Fatalf("dispatched %v, want [2] past the patient head", dispatchIDs(ds))
	}
}

func TestMaxPerUserThrottle(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{
		Order: FCFS{}, Backfill: BackfillEASY, Placer: LocalOnly{},
		MaxPerUser: 1,
	}
	// User 7 already has one running job.
	running := timedJob(90, 1, 100, 100)
	running.User = 7
	rj := startRunning(t, m, LocalOnly{}, running, 0, 100)

	sameUser := timedJob(1, 1, 100, 100)
	sameUser.User = 7
	otherUser := timedJob(2, 1, 100, 100)
	otherUser.User = 8
	ctx := &Context{
		Now: 0, Machine: m,
		Queue:   []*workload.Job{sameUser, otherUser},
		Running: []RunningJob{rj},
	}
	ds := b.Pass(ctx)
	if len(ds) != 1 || ds[0].Job.ID != 2 {
		t.Fatalf("dispatched %v, want only user 8's job", dispatchIDs(ds))
	}
}

func TestMaxPerUserConservativeSkipsWithoutReserving(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{
		Order: FCFS{}, Backfill: BackfillConservative, Placer: LocalOnly{},
		MaxPerUser: 1,
	}
	running := timedJob(90, 1, 100, 100)
	running.User = 7
	rj := startRunning(t, m, LocalOnly{}, running, 0, 100)

	throttled := timedJob(1, 3, 100, 100)
	throttled.User = 7
	free := timedJob(2, 3, 100, 100)
	free.User = 8
	ctx := &Context{
		Now: 0, Machine: m,
		Queue:   []*workload.Job{throttled, free},
		Running: []RunningJob{rj},
	}
	// The throttled job must not hold a reservation that delays the
	// other user's identical job.
	ds := b.Pass(ctx)
	if len(ds) != 1 || ds[0].Job.ID != 2 {
		t.Fatalf("dispatched %v, want [2]", dispatchIDs(ds))
	}
}

// TestMaxPerUserCountsJobsStartedInThePass: a user with nothing running
// and three queued 1-node jobs gets one started under MaxPerUser 1,
// whatever the backfill mode, because each start counts toward the cap
// for the rest of the pass.
func TestMaxPerUserCountsJobsStartedInThePass(t *testing.T) {
	for _, mode := range []BackfillMode{BackfillNone, BackfillEASY, BackfillConservative} {
		t.Run(mode.String(), func(t *testing.T) {
			m := cluster.MustNew(oneRackConfig(0))
			b := &Batch{Order: FCFS{}, Backfill: mode, Placer: LocalOnly{}, MaxPerUser: 1}
			var q []*workload.Job
			for id := 1; id <= 3; id++ {
				j := timedJob(id, 1, 100, 100)
				j.User = 7
				q = append(q, j)
			}
			ds := b.Pass(&Context{Now: 0, Machine: m, Queue: q})
			if got := dispatchIDs(ds); len(got) != 1 || got[0] != 1 {
				t.Fatalf("dispatched %v, want [1]", got)
			}
		})
	}
}
