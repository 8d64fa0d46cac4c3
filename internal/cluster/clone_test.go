package cluster

import (
	"slices"
	"testing"

	"dismem/internal/stats"
)

// cloneMutationOps drives a machine through a random mix of the full
// mutation surface, mirroring the scenario-mutation property test.
func cloneMutationStep(t *testing.T, m *Machine, rng *stats.RNG, nextJob *int) {
	t.Helper()
	switch rng.Intn(6) {
	case 0, 1: // allocate a small job on free nodes
		var nodes []NodeID
		m.ForEachFree(func(id NodeID) bool {
			nodes = append(nodes, id)
			return len(nodes) < 2
		})
		if len(nodes) < 2 {
			return
		}
		*nextJob++
		a := &Allocation{JobID: *nextJob}
		need := map[PoolID]int64{}
		for _, n := range nodes {
			s := NodeShare{Node: n, LocalMiB: 1024, Pool: NoPool}
			if p := m.PoolOf(n); p != NoPool && m.pools[p].FreeMiB()-need[p] >= 512 {
				s.RemoteMiB, s.Pool = 512, p
				need[p] += 512
			}
			a.Shares = append(a.Shares, s)
		}
		if err := m.Allocate(a); err != nil {
			t.Fatalf("allocate: %v", err)
		}
	case 2: // release a random allocation
		for id := range m.allocs {
			if err := m.Release(id); err != nil {
				t.Fatalf("release: %v", err)
			}
			break
		}
	case 3: // fail + repair a free node
		var free NodeID = -1
		m.ForEachFree(func(id NodeID) bool { free = id; return false })
		if free < 0 {
			return
		}
		if err := m.SetDown(free); err != nil {
			t.Fatalf("down: %v", err)
		}
		if rng.Intn(2) == 0 {
			if err := m.SetUp(free); err != nil {
				t.Fatalf("up: %v", err)
			}
		}
	case 4: // resize a pool (possibly degrading it)
		if len(m.pools) > 0 {
			pid := PoolID(rng.Intn(len(m.pools)))
			if err := m.SetPoolCapacity(pid, int64(rng.Intn(8))*512); err != nil {
				t.Fatalf("resize: %v", err)
			}
		}
	case 5: // grow
		if m.cfg.Racks < 6 {
			if _, err := m.AddRack(); err != nil {
				t.Fatalf("grow: %v", err)
			}
		}
	}
}

// TestCloneInvariantsAndIndependence checkpoints the machine mid-way
// through a randomized mutation run and verifies (a) the clone passes
// CheckInvariants at the clone point, and (b) divergent mutations on
// original and clone never leak into each other.
func TestCloneInvariantsAndIndependence(t *testing.T) {
	cfg := Config{Racks: 3, NodesPerRack: 4, CoresPerNode: 8,
		LocalMemMiB: 4096, PoolMiB: 2048, FabricGiBps: 16,
		TrafficGiBpsPerNode: 1, Topology: TopologyRack}
	m := MustNew(cfg)
	rng := stats.NewRNG(42)
	next := 0
	for i := 0; i < 60; i++ {
		cloneMutationStep(t, m, rng, &next)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("pre-clone invariants: %v", err)
	}

	c := m.Clone()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clone invariants: %v", err)
	}
	if got, want := c.Usage(), m.Usage(); got != want {
		t.Fatalf("clone usage %+v != original %+v", got, want)
	}

	// Allocations must be present, equal, and deep-copied.
	for id, a := range m.allocs {
		ca, ok := c.AllocationOf(id)
		if !ok {
			t.Fatalf("clone missing allocation %d", id)
		}
		if ca == a {
			t.Fatalf("allocation %d shared between clone and original", id)
		}
		if ca.RemoteMiB() != a.RemoteMiB() || ca.TotalMiB() != a.TotalMiB() {
			t.Fatalf("allocation %d sums differ", id)
		}
	}

	// Diverge both sides with independent mutation streams; neither may
	// corrupt the other.
	rngA, rngB := stats.NewRNG(7), stats.NewRNG(8)
	nextA, nextB := next, next+10000
	for i := 0; i < 40; i++ {
		cloneMutationStep(t, m, rngA, &nextA)
		cloneMutationStep(t, c, rngB, &nextB)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("original invariants after divergence step %d: %v", i, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("clone invariants after divergence step %d: %v", i, err)
		}
	}
}

// TestAllocationCloneIndependent pins that mutating a cloned
// allocation's shares cannot corrupt the original's cached sums.
func TestAllocationCloneIndependent(t *testing.T) {
	a := &Allocation{JobID: 1, Shares: []NodeShare{
		{Node: 0, LocalMiB: 100, RemoteMiB: 50, Pool: 0},
		{Node: 1, LocalMiB: 100, Pool: NoPool},
	}}
	if got := a.RemoteMiB(); got != 50 {
		t.Fatalf("remote = %d, want 50", got)
	}
	c := a.Clone()
	if got := c.RemoteMiB(); got != 50 {
		t.Fatalf("clone remote = %d, want 50", got)
	}
	if len(c.TouchedPools()) != 1 || c.TouchedPools()[0] != 0 {
		t.Fatalf("clone touched pools = %v, want [0]", c.TouchedPools())
	}
	c.Shares[0].Node = 5
	if a.Shares[0].Node != 0 {
		t.Fatal("mutating clone shares leaked into original")
	}
}

// TestCloneArenaCapsEachAllocation: a clone copies its allocations into
// shared arrays of shares and touched pools. Releasing and recycling
// each cloned allocation in turn, then committing a job one node wider
// (and touching one more pool) into the recycled struct, must leave
// every other allocation's shares and touched pools as they were:
// each allocation's sub-slices are capped at its own length, so the
// wider copy reallocates instead of running into its neighbour.
func TestCloneArenaCapsEachAllocation(t *testing.T) {
	cfg := Config{Racks: 4, NodesPerRack: 4, CoresPerNode: 8,
		LocalMemMiB: 4096, PoolMiB: 8192, FabricGiBps: 16,
		TrafficGiBpsPerNode: 1, Topology: TopologyRack}
	m := MustNew(cfg)
	// Racks 0-2 hold one two-node job each, committed through the
	// machine's free list with their touched pools cached; rack 3 stays
	// free for the wider jobs.
	const jobs = 3
	for r := 0; r < jobs; r++ {
		a := &Allocation{JobID: r + 1}
		for k := 0; k < 2; k++ {
			a.Shares = append(a.Shares, NodeShare{
				Node: NodeID(r*cfg.NodesPerRack + k), LocalMiB: 1024, RemoteMiB: 512, Pool: PoolID(r),
			})
		}
		c, err := m.AllocateCopy(a)
		if err != nil {
			t.Fatal(err)
		}
		c.TouchedPools()
	}
	type held struct {
		shares []NodeShare
		pools  []PoolID
	}
	snapshot := func(mm *Machine) map[int]held {
		out := make(map[int]held)
		for id, a := range mm.allocs {
			out[id] = held{slices.Clone(a.Shares), slices.Clone(a.TouchedPools())}
		}
		return out
	}
	before := snapshot(m)

	c := m.Clone()
	spare := NodeID(3 * cfg.NodesPerRack)
	for id := 1; id <= jobs; id++ {
		a, ok := c.AllocationOf(id)
		if !ok {
			t.Fatalf("clone lost job %d", id)
		}
		wide := &Allocation{JobID: 100 + id, Shares: append(slices.Clone(a.Shares),
			NodeShare{Node: spare, LocalMiB: 1024, RemoteMiB: 512, Pool: 3})}
		if err := c.Release(id); err != nil {
			t.Fatal(err)
		}
		c.Recycle(a)
		others := snapshot(c)
		got, err := c.AllocateCopy(wide)
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("job %d: AllocateCopy did not reuse the recycled clone allocation", id)
		}
		if !slices.Equal(got.Shares, wide.Shares) || len(got.TouchedPools()) != 2 {
			t.Fatalf("job %d: wider copy has shares %v, pools %v", id, got.Shares, got.TouchedPools())
		}
		for oid, want := range others {
			o, _ := c.AllocationOf(oid)
			if !slices.Equal(o.Shares, want.shares) || !slices.Equal(o.TouchedPools(), want.pools) {
				t.Fatalf("recycling job %d's clone allocation changed job %d: shares %v pools %v, want %v %v",
					id, oid, o.Shares, o.TouchedPools(), want.shares, want.pools)
			}
		}
		for name, mm := range map[string]*Machine{"clone": c, "original": m} {
			if err := mm.CheckInvariants(); err != nil {
				t.Fatalf("job %d: %s invariants: %v", id, name, err)
			}
		}
		// Free the spare node for the next job.
		if err := c.Release(got.JobID); err != nil {
			t.Fatal(err)
		}
		c.Recycle(got)
	}
	for id, want := range before {
		a, _ := m.AllocationOf(id)
		if !slices.Equal(a.Shares, want.shares) || !slices.Equal(a.TouchedPools(), want.pools) {
			t.Fatalf("the clone's reuse changed the original's job %d", id)
		}
	}
}
