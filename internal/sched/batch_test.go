package sched

import (
	"math"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// oneRackConfig: 1 rack x 4 nodes, 1000 MiB local, pool per test.
func oneRackConfig(poolMiB int64) cluster.Config {
	cfg := cluster.Config{
		Racks: 1, NodesPerRack: 4, CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: cluster.TopologyNone,
	}
	if poolMiB > 0 {
		cfg.Topology = cluster.TopologyRack
		cfg.PoolMiB = poolMiB
		cfg.FabricGiBps = 10
		cfg.TrafficGiBpsPerNode = 2
	}
	return cfg
}

// startRunning commits an allocation for job and returns the RunningJob
// entry as the engine would report it.
func startRunning(t *testing.T, m *cluster.Machine, placer Placer, j *workload.Job, start, limit int64) RunningJob {
	t.Helper()
	plan := placer.Plan(j, m, nil)
	if plan == nil {
		t.Fatalf("cannot start fixture job %d", j.ID)
	}
	if err := m.Allocate(plan.Alloc); err != nil {
		t.Fatal(err)
	}
	return RunningJob{Job: j, Start: start, Limit: limit, Alloc: plan.Alloc}
}

func timedJob(id, nodes int, mem, estimate int64) *workload.Job {
	return &workload.Job{
		ID: id, Nodes: nodes, MemPerNode: mem,
		Submit: 0, Estimate: estimate, BaseRuntime: estimate,
	}
}

func TestBackfillNoneBlocksBehindHead(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillNone, Placer: &LocalOnly{}}
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 3, 100, 100), 0, 100)}
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 4, 100, 50), // blocked: only 1 node free
			timedJob(2, 1, 100, 50), // would fit, but FCFS-no-backfill
		},
		Running: running,
	}
	ds := b.Pass(ctx)
	if len(ds) != 0 {
		t.Fatalf("no-backfill dispatched %v past a blocked head", dispatchIDs(ds))
	}
}

func TestEASYBackfillShortJob(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &LocalOnly{}}
	// Job 90 holds 3 nodes until t=100 → head (4 nodes) has shadow 100.
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 3, 100, 100), 0, 100)}
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 4, 100, 500), // head, blocked
			timedJob(2, 1, 100, 200), // ends at 200 > shadow, extra=0 → denied
			timedJob(3, 1, 100, 100), // ends at 100 = shadow → backfilled
		},
		Running: running,
	}
	ds := b.Pass(ctx)
	if got := dispatchIDs(ds); len(got) != 1 || got[0] != 3 {
		t.Fatalf("dispatched %v, want [3]", got)
	}
	if m.FreeNodes() != 0 {
		t.Fatalf("free nodes = %d, want 0", m.FreeNodes())
	}
}

func TestEASYBackfillUsesExtraNodes(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &LocalOnly{}}
	// Job 90 holds 2 nodes until t=100; head needs 3.
	// At shadow: free = 2 (now) + 2 (freed) = 4; extra = 4 - 3 = 1.
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 2, 100, 100), 0, 100)}
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 3, 100, 500),  // head, blocked (2 free)
			timedJob(2, 1, 100, 9999), // long, fits in the 1 extra node
			timedJob(3, 1, 100, 9999), // long, extra exhausted → denied
		},
		Running: running,
	}
	ds := b.Pass(ctx)
	if got := dispatchIDs(ds); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dispatched %v, want [2]", got)
	}
}

func TestEASYDispatchesInOrderBeforeBlock(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &LocalOnly{}}
	ctx := &Context{
		Now: 5, Machine: m, Queue: []*workload.Job{
			timedJob(1, 2, 100, 100),
			timedJob(2, 2, 100, 100),
		},
	}
	ds := b.Pass(ctx)
	if got := dispatchIDs(ds); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("dispatched %v, want [1 2]", got)
	}
}

func TestEASYPoolReservationProtected(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(1000))
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &Spill{}}
	// Fixture job holds 1 node + 600 MiB pool until t=100.
	fix := timedJob(90, 1, 1600, 100)
	plan := (&Spill{}).Plan(fix, m, nil)
	if plan == nil || plan.Alloc.RemoteMiB() != 600 {
		t.Fatalf("fixture plan = %+v", plan)
	}
	if err := m.Allocate(plan.Alloc); err != nil {
		t.Fatal(err)
	}
	running := []RunningJob{{Job: fix, Start: 0, Limit: 100, Alloc: plan.Alloc}}

	// Head needs 800 MiB pool; only 400 free → blocked, shadow = 100,
	// extraPool = (400+600) - 800 = 200.
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 1, 1800, 500),  // head
			timedJob(2, 1, 1400, 9999), // needs 400 pool > extraPool → denied
			timedJob(3, 1, 1150, 9999), // needs 150 pool <= extraPool → ok
		},
		Running: running,
	}
	ds := b.Pass(ctx)
	if got := dispatchIDs(ds); len(got) != 1 || got[0] != 3 {
		t.Fatalf("dispatched %v, want [3]", got)
	}
}

func TestEASYShadowNowOnFragmentation(t *testing.T) {
	// Aggregate capacity exists but the head cannot place (per-rack pool
	// fragmentation): shadow must be "now" and extras computed from the
	// present state, still allowing harmless backfill.
	cfg := cluster.Config{
		Racks: 2, NodesPerRack: 2, CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: cluster.TopologyRack, PoolMiB: 1000, FabricGiBps: 10,
		TrafficGiBpsPerNode: 2,
	}
	m := cluster.MustNew(cfg)
	// Take 600 MiB from each pool: neither rack can serve an 800 MiB
	// spill, but the aggregate (800) suggests it fits.
	for i, node := range []cluster.NodeID{0, 2} {
		a := &cluster.Allocation{JobID: 90 + i, Shares: []cluster.NodeShare{
			{Node: node, LocalMiB: 1000, RemoteMiB: 600, Pool: m.PoolOf(node)},
		}}
		if err := m.Allocate(a); err != nil {
			t.Fatal(err)
		}
	}
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &Spill{}}
	alloc0, _ := m.AllocationOf(90)
	alloc1, _ := m.AllocationOf(91)
	ctx := &Context{
		Now: 0, Machine: m,
		Queue: []*workload.Job{
			timedJob(1, 1, 1800, 500), // head: needs 800 on one pool → fragmented
			timedJob(2, 1, 500, 100),  // local-fitting backfill candidate
		},
		Running: []RunningJob{
			{Job: timedJob(90, 1, 1600, 100), Start: 0, Limit: 100, Alloc: alloc0},
			{Job: timedJob(91, 1, 1600, 100), Start: 0, Limit: 100, Alloc: alloc1},
		},
	}
	ds := b.Pass(ctx)
	if got := dispatchIDs(ds); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dispatched %v, want [2]", got)
	}
}

func TestConservativePass(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillConservative, Placer: &LocalOnly{}}
	// Job 90 holds 2 nodes until t=100.
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 2, 100, 100), 0, 100)}
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 4, 100, 100), // reserved at t=100
			timedJob(2, 2, 100, 100), // fits [0,100) without touching J1's slot
			timedJob(3, 2, 100, 101), // would overlap J1's reservation → waits
		},
		Running: running,
	}
	ds := b.Pass(ctx)
	if got := dispatchIDs(ds); len(got) != 1 || got[0] != 2 {
		t.Fatalf("dispatched %v, want [2]", got)
	}
}

func TestConservativeRespectsEarlierReservationChain(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillConservative, Placer: &LocalOnly{}}
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 3, 100, 100), 0, 100)}
	// J1 reserved at 100 (4 nodes, dur 100); J2 reserved at 200; a job
	// fitting only by delaying J2 must not start.
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 4, 100, 100),
			timedJob(2, 4, 100, 100),
			timedJob(3, 1, 100, 150), // free node now, but would run into J1 at 100
		},
		Running: running,
	}
	ds := b.Pass(ctx)
	if len(ds) != 0 {
		t.Fatalf("dispatched %v, want none (all conflict with reservations)", dispatchIDs(ds))
	}
}

func TestConservativeMaxReservations(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillConservative, Placer: &LocalOnly{}, MaxReservations: 1}
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 3, 100, 100), 0, 100)}
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 4, 100, 100), // planned (reservation 1)
			timedJob(2, 1, 100, 50),  // beyond planning depth → not dispatched
		},
		Running: running,
	}
	if ds := b.Pass(ctx); len(ds) != 0 {
		t.Fatalf("dispatched %v beyond MaxReservations", dispatchIDs(ds))
	}
}

func TestEASYMaxBackfillScan(t *testing.T) {
	m := cluster.MustNew(oneRackConfig(0))
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &LocalOnly{}, MaxBackfillScan: 1}
	running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 3, 100, 100), 0, 100)}
	ctx := &Context{
		Now: 0, Machine: m, Queue: []*workload.Job{
			timedJob(1, 4, 100, 500), // head
			timedJob(2, 2, 100, 100), // scanned but does not fit (1 free)
			timedJob(3, 1, 100, 100), // would backfill, but beyond scan cap
		},
		Running: running,
	}
	if ds := b.Pass(ctx); len(ds) != 0 {
		t.Fatalf("dispatched %v past MaxBackfillScan", dispatchIDs(ds))
	}
}

func TestBatchNameAndFeasible(t *testing.T) {
	b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &LocalOnly{}}
	if b.Name() != "fcfs+easy+local" {
		t.Fatalf("derived name = %q", b.Name())
	}
	b.PolicyName = "custom"
	if b.Name() != "custom" {
		t.Fatalf("override name = %q", b.Name())
	}
	m := cluster.MustNew(oneRackConfig(0))
	if !b.Feasible(timedJob(1, 4, 1000, 10), m, nil) {
		t.Fatal("feasible job rejected")
	}
	if b.Feasible(timedJob(1, 5, 1000, 10), m, nil) {
		t.Fatal("too-wide job accepted")
	}
}

func TestContextLimit(t *testing.T) {
	j := timedJob(1, 1, 100, 1000)
	ctx := &Context{ExtendLimit: false}
	if got := ctx.Limit(j, 2.0); got != 1000 {
		t.Fatalf("limit without extension = %d, want 1000", got)
	}
	ctx.ExtendLimit = true
	if got := ctx.Limit(j, 1.5); got != 1500 {
		t.Fatalf("extended limit = %d, want 1500", got)
	}
	if got := ctx.Limit(j, 0.5); got != 1000 {
		t.Fatalf("limit with dilation < 1 = %d, want 1000", got)
	}
	// Fractional dilations round the limit up.
	if got := ctx.Limit(j, 1.0001); got != 1001 {
		t.Fatalf("rounded limit = %d, want 1001", got)
	}
	// A limit past MaxSeconds, or no number at all, clamps to it
	// instead of wrapping through an out-of-range conversion.
	for _, d := range []float64{1e300, math.Inf(1), math.NaN(), float64(workload.MaxSeconds)} {
		if got := ctx.Limit(j, d); got != workload.MaxSeconds {
			t.Errorf("limit at dilation %g = %d, want MaxSeconds", d, got)
		}
	}
	j.Estimate = workload.MaxSeconds
	if got := ctx.Limit(j, 1.5); got != workload.MaxSeconds {
		t.Errorf("limit of a MaxSeconds estimate = %d, want MaxSeconds", got)
	}
}

// lyingPlacer breaks the Placer.Plan contract for job liar: it returns
// a plan for it when it is wider than the free nodes.
type lyingPlacer struct {
	LocalOnly
	liar int
}

func (p *lyingPlacer) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *Plan {
	if job.ID == p.liar && m.FreeNodes() < job.Nodes {
		return &Plan{Alloc: &cluster.Allocation{JobID: job.ID}, Dilation: 1}
	}
	return p.LocalOnly.Plan(job, m, model)
}

// TestBackfillSkipChecksPlacerContract: EASY backfill skips a candidate
// wider than the free nodes without calling Plan. In check mode it
// calls Plan anyway and panics if the placer returns a plan.
func TestBackfillSkipChecksPlacerContract(t *testing.T) {
	pass := func(check bool) []Dispatch {
		m := cluster.MustNew(oneRackConfig(0))
		b := &Batch{Order: FCFS{}, Backfill: BackfillEASY, Placer: &lyingPlacer{liar: 2}}
		// Job 90 holds 3 nodes until t=100, so the head's shadow is 100
		// and one node is free.
		running := []RunningJob{startRunning(t, m, &LocalOnly{}, timedJob(90, 3, 100, 100), 0, 100)}
		ctx := &Context{
			Now: 0, Machine: m, Queue: []*workload.Job{
				timedJob(1, 4, 100, 500), // head, blocked
				timedJob(2, 2, 100, 50),  // ends by the shadow, but 2 nodes > 1 free
			},
			Running: running, CheckInvariants: check,
		}
		return b.Pass(ctx)
	}
	if ds := pass(false); len(ds) != 0 {
		t.Fatalf("dispatched %v: the skip called the placer", dispatchIDs(ds))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("check mode accepted a plan for a candidate wider than the free nodes")
		}
	}()
	pass(true)
}

func TestBackfillModeString(t *testing.T) {
	for m, want := range map[BackfillMode]string{
		BackfillNone: "none", BackfillEASY: "easy",
		BackfillConservative: "conservative", BackfillMode(9): "backfill(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("BackfillMode(%d) = %q, want %q", int(m), got, want)
		}
	}
}
