package sched

import (
	"cmp"
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// Plan is a candidate placement: an uncommitted allocation plus the
// dilation the memory model predicts for it at planning time.
type Plan struct {
	Alloc *cluster.Allocation
	// Dilation is the predicted runtime multiplier (>= 1).
	Dilation float64
}

// Placer builds placement plans. Implementations must be deterministic
// given identical machine state.
type Placer interface {
	// Name identifies the policy.
	Name() string
	// Plan returns a placement for job on m, or nil if the job cannot
	// start now. It must not mutate m. It must return nil when
	// m.FreeNodes() < job.Nodes: EASY backfill relies on that and skips
	// such a candidate without calling Plan (check mode calls it and
	// panics on a plan). The returned plan (including its Alloc and
	// Shares) may be placer-owned scratch, valid only until the next
	// Plan call on the same placer: callers commit it with
	// Machine.AllocateCopy, which deep-copies, rather than retaining it.
	Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *Plan
	// Feasible reports whether the job could ever run on an idle m
	// under the given memory model (admission policies may depend on
	// predicted dilation). Infeasible jobs are rejected at submission.
	Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool
	// PlanDilation estimates the dilation job would suffer if placed on
	// an otherwise-idle machine: the figure planners use to reserve
	// walltime before an exact placement exists.
	PlanDilation(job *workload.Job, m *cluster.Machine, model memmodel.Model) float64
}

// PredictDilation computes the model dilation of an uncommitted
// allocation against machine m, accounting for the congestion its own
// demand would add to each backing pool.
func PredictDilation(a *cluster.Allocation, m *cluster.Machine, model memmodel.Model) float64 {
	if model == nil || a.RemoteMiB() == 0 {
		return 1
	}
	// Aggregate the allocation's added demand per pool. Allocations
	// touch few pools, so a linear scan over small stack-backed slices
	// beats a map and keeps the hot path allocation-free.
	trafficPerNode := m.Config().TrafficGiBpsPerNode
	var pidsArr [16]cluster.PoolID
	var addedArr [16]float64
	pids, added := pidsArr[:0], addedArr[:0]
	for _, s := range a.Shares {
		if s.RemoteMiB == 0 {
			continue
		}
		tot := s.LocalMiB + s.RemoteMiB
		d := trafficPerNode * float64(s.RemoteMiB) / float64(tot)
		k := 0
		for ; k < len(pids); k++ {
			if pids[k] == s.Pool {
				added[k] += d
				break
			}
		}
		if k == len(pids) {
			pids = append(pids, s.Pool)
			added = append(added, d)
		}
	}
	worst := 0.0
	for k, pid := range pids {
		p, ok := m.Pool(pid)
		if !ok || p.FabricGiBps <= 0 {
			continue
		}
		if c := (p.DemandGiBps + added[k]) / p.FabricGiBps; c > worst {
			worst = c
		}
	}
	return model.Dilation(a.RemoteFraction(), worst)
}

// RemoteNeedPerNode returns how much of the job's per-node footprint
// cannot fit in local DRAM.
func RemoteNeedPerNode(job *workload.Job, m *cluster.Machine) int64 {
	need := job.MemPerNode - m.Config().LocalMemMiB
	if need < 0 {
		return 0
	}
	return need
}

// RemoteNeed returns the job's total unavoidable pool demand in MiB.
func RemoteNeed(job *workload.Job, m *cluster.Machine) int64 {
	return RemoteNeedPerNode(job, m) * int64(job.Nodes)
}

// PlanScratch is the plan storage a placer reuses across Plan calls:
// a share slice, an allocation and a plan. The plan it returns is valid
// only until the placer's next Plan call (see Placer); callers commit
// it with Machine.AllocateCopy.
type PlanScratch struct {
	shares []cluster.NodeShare
	alloc  cluster.Allocation
	plan   Plan
}

// Shares returns the share slice, emptied, with room for n shares. A
// placer asks for job.Nodes, the most it appends, so no append
// reallocates: the capacity a Plan needs is kept whether it places the
// job or fails part-way.
func (s *PlanScratch) Shares(n int) []cluster.NodeShare {
	if cap(s.shares) < n {
		s.shares = make([]cluster.NodeShare, 0, n)
	}
	return s.shares[:0]
}

// Alloc returns jobID's scratch allocation over shares, which must
// have been appended to the slice Shares returned. The whole-struct
// assignment resets the cached sums of the previous call's allocation.
func (s *PlanScratch) Alloc(jobID int, shares []cluster.NodeShare) *cluster.Allocation {
	s.alloc = cluster.Allocation{JobID: jobID, Shares: shares}
	return &s.alloc
}

// Plan returns the scratch plan of the scratch allocation.
func (s *PlanScratch) Plan(dilation float64) *Plan {
	s.plan = Plan{Alloc: &s.alloc, Dilation: dilation}
	return &s.plan
}

// firstFit places job in local DRAM on the lowest-numbered free nodes,
// or returns nil if fewer than job.Nodes are free. The caller has
// checked that the job's footprint fits local DRAM.
func (s *PlanScratch) firstFit(job *workload.Job, m *cluster.Machine) *Plan {
	shares := s.Shares(job.Nodes)
	m.ForEachFree(func(id cluster.NodeID) bool {
		shares = append(shares, cluster.NodeShare{
			Node: id, LocalMiB: job.MemPerNode, Pool: cluster.NoPool,
		})
		return len(shares) < job.Nodes
	})
	if len(shares) < job.Nodes {
		return nil
	}
	s.Alloc(job.ID, shares)
	return s.Plan(1)
}

// LocalOnly places jobs exclusively in node-local DRAM: the
// conventional-machine baseline. Jobs whose footprint exceeds local
// DRAM never start. Its plans are scratch (see Placer), so each
// scheduler needs its own.
type LocalOnly struct {
	scratch PlanScratch
}

// Name implements Placer.
func (*LocalOnly) Name() string { return "local" }

// Feasible implements Placer.
func (*LocalOnly) Feasible(job *workload.Job, m *cluster.Machine, _ memmodel.Model) bool {
	return job.Nodes <= m.Config().TotalNodes() && job.MemPerNode <= m.Config().LocalMemMiB
}

// PlanDilation implements Placer: local placements never dilate.
func (*LocalOnly) PlanDilation(*workload.Job, *cluster.Machine, memmodel.Model) float64 { return 1 }

// Plan implements Placer with first-fit over node IDs.
func (p *LocalOnly) Plan(job *workload.Job, m *cluster.Machine, _ memmodel.Model) *Plan {
	if job.MemPerNode > m.Config().LocalMemMiB || m.FreeNodes() < job.Nodes {
		return nil
	}
	return p.scratch.firstFit(job, m)
}

// Spill is the disaggregation-oblivious policy: fill local DRAM first
// and overflow the remainder into the node's pool whenever the pool has
// space, ignoring the slowdown this inflicts. It is the "just use the
// pool" strawman the memory-aware scheduler is compared against. Its
// plans are scratch (see Placer), so each scheduler needs its own.
type Spill struct {
	scratch  PlanScratch
	racks    []spillRack
	poolLeft []int64
}

// spillRack is one rack as Spill.Plan orders them.
type spillRack struct {
	rack int
	pool cluster.PoolID
	free int64
}

// bySpillOrder orders racks most free pool first, then by rack index: a
// strict total order, so sorting with it gives the order a stable sort
// on free pool alone would.
func bySpillOrder(a, b spillRack) int {
	return cmp.Or(cmp.Compare(b.free, a.free), cmp.Compare(a.rack, b.rack))
}

// Name implements Placer.
func (*Spill) Name() string { return "spill" }

// Feasible implements Placer.
func (*Spill) Feasible(job *workload.Job, m *cluster.Machine, _ memmodel.Model) bool {
	cfg := m.Config()
	if job.Nodes > cfg.TotalNodes() {
		return false
	}
	if job.MemPerNode <= cfg.LocalMemMiB {
		return true
	}
	if cfg.Topology == cluster.TopologyNone {
		return false
	}
	// Whole-machine check: every node needs its overflow poolable.
	need := RemoteNeedPerNode(job, m)
	switch cfg.Topology {
	case cluster.TopologyGlobal:
		return need*int64(job.Nodes) <= cfg.PoolMiB
	default: // rack pools: cap by what fits per rack on an idle machine
		perRack := cfg.PoolMiB / max64(need, 1)
		if perRack > int64(cfg.NodesPerRack) {
			perRack = int64(cfg.NodesPerRack)
		}
		return int64(job.Nodes) <= perRack*int64(cfg.Racks)
	}
}

// PlanDilation implements Placer: the unavoidable remote fraction at
// current congestion.
func (*Spill) PlanDilation(job *workload.Job, m *cluster.Machine, model memmodel.Model) float64 {
	if model == nil || job.MemPerNode == 0 {
		return 1
	}
	f := float64(RemoteNeedPerNode(job, m)) / float64(job.MemPerNode)
	worst := 0.0
	for _, p := range m.Pools() {
		if c := p.Congestion(); c > worst {
			worst = c
		}
	}
	return model.Dilation(f, worst)
}

// Plan implements Placer: first-fit over racks ordered by descending
// free pool capacity, so overflow lands where space exists.
func (p *Spill) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *Plan {
	cfg := m.Config()
	if m.FreeNodes() < job.Nodes {
		return nil
	}
	local := job.MemPerNode
	if local > cfg.LocalMemMiB {
		local = cfg.LocalMemMiB
	}
	remote := job.MemPerNode - local
	if remote == 0 {
		return p.scratch.firstFit(job, m)
	}
	if cfg.Topology == cluster.TopologyNone {
		return nil
	}

	pools := m.Pools()
	racks := p.racks[:0]
	for r := 0; r < cfg.Racks; r++ {
		pid := cluster.PoolID(0)
		if cfg.Topology == cluster.TopologyRack {
			pid = cluster.PoolID(r)
		}
		racks = append(racks, spillRack{rack: r, pool: pid, free: pools[pid].FreeMiB()})
	}
	slices.SortFunc(racks, bySpillOrder)
	p.racks = racks

	poolLeft := p.poolLeft[:0]
	for _, pl := range pools {
		poolLeft = append(poolLeft, pl.FreeMiB())
	}
	p.poolLeft = poolLeft
	shares := p.scratch.Shares(job.Nodes)
	for _, ri := range racks {
		if poolLeft[ri.pool] < remote {
			continue
		}
		m.FreeInRack(ri.rack, func(id cluster.NodeID) bool {
			if poolLeft[ri.pool] < remote {
				return false
			}
			poolLeft[ri.pool] -= remote
			shares = append(shares, cluster.NodeShare{
				Node: id, LocalMiB: local, RemoteMiB: remote, Pool: ri.pool,
			})
			return len(shares) < job.Nodes
		})
		if len(shares) == job.Nodes {
			break
		}
	}
	if len(shares) < job.Nodes {
		return nil
	}
	alloc := p.scratch.Alloc(job.ID, shares)
	return p.scratch.Plan(PredictDilation(alloc, m, model))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
