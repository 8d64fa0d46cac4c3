package sched

import (
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// placerConfig: 2 racks x 4 nodes, 1000 MiB local, 3000 MiB rack pools.
func placerConfig() cluster.Config {
	return cluster.Config{
		Racks: 2, NodesPerRack: 4, CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: TopologyRackForTest, PoolMiB: 3000, FabricGiBps: 10,
		TrafficGiBpsPerNode: 2,
	}
}

// TopologyRackForTest aliases the cluster constant to keep test tables
// terse.
const TopologyRackForTest = cluster.TopologyRack

func job(id, nodes int, mem int64) *workload.Job {
	return &workload.Job{
		ID: id, Nodes: nodes, MemPerNode: mem,
		Submit: 0, Estimate: 1000, BaseRuntime: 500,
	}
}

func TestLocalOnlyPlan(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	model := memmodel.Linear{Beta: 0.5}
	p := (&LocalOnly{}).Plan(job(1, 3, 800), m, model)
	if p == nil {
		t.Fatal("plan failed on an idle machine")
	}
	if len(p.Alloc.Shares) != 3 || p.Dilation != 1 {
		t.Fatalf("plan = %+v", p)
	}
	for _, s := range p.Alloc.Shares {
		if s.RemoteMiB != 0 || s.LocalMiB != 800 || s.Pool != cluster.NoPool {
			t.Fatalf("local-only share borrows remote memory: %+v", s)
		}
	}
	if err := m.Allocate(p.Alloc); err != nil {
		t.Fatalf("plan not committable: %v", err)
	}
}

func TestLocalOnlyRejectsBigMemory(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	if (&LocalOnly{}).Plan(job(1, 1, 1500), m, nil) != nil {
		t.Fatal("planned a job whose footprint exceeds local DRAM")
	}
	if (&LocalOnly{}).Feasible(job(1, 1, 1500), m, nil) {
		t.Fatal("big-memory job feasible under local-only")
	}
	if !(&LocalOnly{}).Feasible(job(1, 8, 1000), m, nil) {
		t.Fatal("full-machine local job infeasible")
	}
	if (&LocalOnly{}).Feasible(job(1, 9, 100), m, nil) {
		t.Fatal("too-wide job feasible")
	}
}

func TestLocalOnlyInsufficientFreeNodes(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	first := (&LocalOnly{}).Plan(job(1, 7, 100), m, nil)
	if err := m.Allocate(first.Alloc); err != nil {
		t.Fatal(err)
	}
	if (&LocalOnly{}).Plan(job(2, 2, 100), m, nil) != nil {
		t.Fatal("planned 2 nodes with only 1 free")
	}
	if (&LocalOnly{}).Plan(job(3, 1, 100), m, nil) == nil {
		t.Fatal("failed to plan 1 node with 1 free")
	}
}

func TestSpillPlanSplitsFootprint(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	model := memmodel.Linear{Beta: 0.5}
	// 1500 MiB per node: 1000 local + 500 remote.
	p := (&Spill{}).Plan(job(1, 2, 1500), m, model)
	if p == nil {
		t.Fatal("spill plan failed on idle machine")
	}
	for _, s := range p.Alloc.Shares {
		if s.LocalMiB != 1000 || s.RemoteMiB != 500 {
			t.Fatalf("share split = %+v, want 1000/500", s)
		}
		if s.Pool == cluster.NoPool {
			t.Fatal("remote share without pool")
		}
	}
	// f = 500/1500 = 1/3 → dilation 1 + 0.5/3.
	want := 1 + 0.5/3
	if diff := p.Dilation - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("dilation = %g, want %g", p.Dilation, want)
	}
	if err := m.Allocate(p.Alloc); err != nil {
		t.Fatalf("plan not committable: %v", err)
	}
}

func TestSpillRespectsPoolCapacity(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	// Each spilling node needs 2000 remote; a 3000 pool holds one such
	// node per rack → at most 2 machine-wide.
	p := (&Spill{}).Plan(job(1, 2, 3000), m, nil)
	if p == nil {
		t.Fatal("2-node spill should fit (one per rack)")
	}
	racks := map[cluster.PoolID]bool{}
	for _, s := range p.Alloc.Shares {
		racks[s.Pool] = true
	}
	if len(racks) != 2 {
		t.Fatalf("expected the two nodes on different racks, got pools %v", racks)
	}
	if (&Spill{}).Plan(job(2, 3, 3000), m, nil) != nil {
		t.Fatal("3-node spill exceeds total pool capacity but was planned")
	}
}

func TestSpillFallsBackToLocal(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	p := (&Spill{}).Plan(job(1, 2, 500), m, nil)
	if p == nil || p.Alloc.RemoteMiB() != 0 {
		t.Fatalf("small job must place all-local, got %+v", p)
	}
}

func TestSpillOnTopologyNone(t *testing.T) {
	m := cluster.MustNew(cluster.BaselineConfig(1000))
	if (&Spill{}).Plan(job(1, 1, 1500), m, nil) != nil {
		t.Fatal("spill planned remote memory without any pool")
	}
	if (&Spill{}).Feasible(job(1, 1, 1500), m, nil) {
		t.Fatal("big-memory job feasible without pools")
	}
	if !(&Spill{}).Feasible(job(2, 1, 900), m, nil) {
		t.Fatal("local-fitting job infeasible")
	}
}

func TestSpillFeasibleBounds(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	// 2000 remote per node, 3000/rack pool → 1 node per rack, 2 total.
	if !(&Spill{}).Feasible(job(1, 2, 3000), m, nil) {
		t.Fatal("2-node spill should be feasible")
	}
	if (&Spill{}).Feasible(job(1, 3, 3000), m, nil) {
		t.Fatal("3-node spill infeasible but accepted")
	}
	// Global pool pools capacity machine-wide.
	cfg := placerConfig()
	cfg.Topology = cluster.TopologyGlobal
	cfg.PoolMiB = 6000
	gm := cluster.MustNew(cfg)
	if !(&Spill{}).Feasible(job(1, 3, 3000), gm, nil) {
		t.Fatal("3-node spill fits a 6000 global pool")
	}
	if (&Spill{}).Feasible(job(1, 4, 3000), gm, nil) {
		t.Fatal("4-node spill exceeds the 6000 global pool")
	}
}

func TestSpillPrefersEmptierPools(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	// Pre-load rack 0's pool.
	pre := &cluster.Allocation{JobID: 99, Shares: []cluster.NodeShare{
		{Node: 0, LocalMiB: 1000, RemoteMiB: 2500, Pool: 0},
	}}
	if err := m.Allocate(pre); err != nil {
		t.Fatal(err)
	}
	p := (&Spill{}).Plan(job(1, 1, 1800), m, nil)
	if p == nil {
		t.Fatal("plan failed")
	}
	if p.Alloc.Shares[0].Pool != 1 {
		t.Fatalf("spill chose loaded pool %d, want the emptier pool 1", p.Alloc.Shares[0].Pool)
	}
}

func TestPredictDilationAccountsOwnDemand(t *testing.T) {
	cfg := placerConfig()
	cfg.FabricGiBps = 1 // tight fabric
	m := cluster.MustNew(cfg)
	model := memmodel.Bandwidth{Beta: 1, Gamma: 1}
	// 4 nodes spilling half their footprint on one rack: demand
	// 4 * 2 * 0.5 = 4 GiB/s on a 1 GiB/s fabric → congestion 4.
	a := &cluster.Allocation{JobID: 1}
	for i := 0; i < 4; i++ {
		a.Shares = append(a.Shares, cluster.NodeShare{
			Node: cluster.NodeID(i), LocalMiB: 1000, RemoteMiB: 1000, Pool: 0,
		})
	}
	d := PredictDilation(a, m, model)
	// f=0.5, c=4 → 1 + 1*0.5*(1+1*(4-1)) = 3.
	if diff := d - 3; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("PredictDilation = %g, want 3", d)
	}
}

func TestRemoteNeedHelpers(t *testing.T) {
	m := cluster.MustNew(placerConfig())
	if RemoteNeedPerNode(job(1, 2, 800), m) != 0 {
		t.Fatal("fits-local job has remote need")
	}
	if got := RemoteNeedPerNode(job(1, 2, 1400), m); got != 400 {
		t.Fatalf("RemoteNeedPerNode = %d, want 400", got)
	}
	if got := RemoteNeed(job(1, 3, 1400), m); got != 1200 {
		t.Fatalf("RemoteNeed = %d, want 1200", got)
	}
}
