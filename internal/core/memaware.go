// Package core implements the paper's primary contribution: a
// disaggregated-memory-aware placement policy for batch scheduling.
//
// The policy treats pool memory as a first-class schedulable resource
// and differs from the oblivious "spill whenever the pool has space"
// strawman (sched.Spill) in four ways, each independently switchable
// for the ablation study (Table 3):
//
//  1. Slowdown-capped admission: a job is placed on remote memory only
//     if the memory model predicts a dilation at or below SlowdownCap;
//     otherwise the job waits for local capacity. This bounds the
//     per-job penalty the system may inflict.
//  2. Dilation-aware reservations: the predicted dilation is exported
//     through PlanDilation so backfill planners reserve the *dilated*
//     walltime, keeping EASY/conservative guarantees sound when jobs
//     run slower than their estimates assume (paired with the engine's
//     ExtendLimit rule).
//  3. Pool-pressure balancing: jobs that fit entirely in local DRAM are
//     steered toward racks whose pools are already depleted, preserving
//     pool-rich racks for jobs that need them; spilling jobs are
//     steered toward the racks with the most free pool and the least
//     fabric congestion.
//  4. Cross-rack shaping: wide spilling jobs are spread over eligible
//     racks instead of greedily filling one, flattening per-fabric
//     demand and thus contention-induced dilation.
package core

import (
	"fmt"
	"sort"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/workload"
)

// MemAware is the disaggregated-memory-aware placement policy. The zero
// value is oblivious; use New for the paper's configuration.
type MemAware struct {
	// SlowdownCap is the maximum admissible predicted dilation
	// (e.g. 1.5 = at most 50% slower). 0 disables capping.
	SlowdownCap float64
	// Balance steers local jobs to pool-poor racks and spilling jobs to
	// pool-rich, low-congestion racks.
	Balance bool
	// Shape spreads wide spilling jobs across racks to flatten fabric
	// demand.
	Shape bool

	// idle caches the idle machine Feasible's admission probe plans
	// against, so job arrival is not O(machine). Plan never mutates its
	// machine, so the cache stays idle for the life of the policy.
	idle    *cluster.Machine
	idleCfg cluster.Config

	// View cache: the per-rack state and its two sorted variants are
	// job-independent, so they are keyed by (machine, version) and
	// reused across every Plan call in a scheduling pass until a commit
	// bumps the machine version. This removes the dominant cost of the
	// planning hot path (rebuilding and re-sorting rack views per job).
	viewM         *cluster.Machine
	viewVer       uint64
	raw           []rackView
	poolPoorViews []rackView
	poolPoorValid bool
	coolRichViews []rackView
	coolRichValid bool

	// Per-call scratch reused across Plan invocations (the policy is
	// single-simulation state, like the machine it schedules). The plan
	// Plan returns aliases scratch: per the Placer contract it is valid
	// only until the next Plan call, and callers commit it with
	// Machine.AllocateCopy.
	eligScratch  []rackView
	quotaScratch []int
	scratch      sched.PlanScratch
}

// New returns the policy with the paper's default knobs: cap 1.5,
// balancing and shaping on.
func New() *MemAware {
	return &MemAware{SlowdownCap: 1.5, Balance: true, Shape: true}
}

// Verify interface satisfaction at compile time.
var _ sched.Placer = (*MemAware)(nil)

// Name implements sched.Placer.
func (p *MemAware) Name() string {
	return fmt.Sprintf("memaware(cap=%.2g,bal=%v,shape=%v)", p.SlowdownCap, p.Balance, p.Shape)
}

// Feasible implements sched.Placer: the job must fit the machine and,
// if it needs the pool, its *minimum* dilation (idle fabric) must pass
// the cap — otherwise it could wait forever behind an admission test it
// can never pass.
func (p *MemAware) Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool {
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
	if !(&sched.Spill{}).Feasible(job, m, model) {
		return false
	}
	if p.SlowdownCap > 0 && model != nil {
		// The admission test compares predicted dilation — including
		// the congestion the job's own fabric demand adds — against
		// the cap. A job is feasible iff that test can pass in the
		// best case, i.e. on a completely idle machine with this
		// placer's own placement strategy; evaluating Plan there makes
		// feasibility and admission consistent by construction.
		idle := p.idleMachine(m.Config())
		if idle == nil {
			return false
		}
		return p.Plan(job, idle, model) != nil
	}
	return true
}

// idleMachine returns a cached idle machine matching cfg, building one
// only when the configuration changes (in practice: once per run).
func (p *MemAware) idleMachine(cfg cluster.Config) *cluster.Machine {
	if p.idle == nil || p.idleCfg != cfg {
		m, err := cluster.New(cfg)
		if err != nil {
			return nil
		}
		p.idle, p.idleCfg = m, cfg
	}
	return p.idle
}

// PlanDilation implements sched.Placer: the dilation of the job's
// unavoidable remote fraction on an idle fabric, clamped by admission.
func (p *MemAware) PlanDilation(job *workload.Job, m *cluster.Machine, model memmodel.Model) float64 {
	if model == nil || job.MemPerNode == 0 {
		return 1
	}
	f := float64(sched.RemoteNeedPerNode(job, m)) / float64(job.MemPerNode)
	return model.Dilation(f, 0)
}

// Plan implements sched.Placer.
func (p *MemAware) Plan(job *workload.Job, m *cluster.Machine, model memmodel.Model) *sched.Plan {
	if m.FreeNodes() < job.Nodes {
		return nil
	}
	cfg := m.Config()
	local := job.MemPerNode
	if local > cfg.LocalMemMiB {
		local = cfg.LocalMemMiB
	}
	remote := job.MemPerNode - local
	if remote == 0 {
		return p.planLocal(job, m)
	}
	if cfg.Topology == cluster.TopologyNone {
		return nil
	}
	alloc := p.planSpill(job, m, local, remote)
	if alloc == nil {
		return nil
	}
	d := sched.PredictDilation(alloc, m, model)
	if p.SlowdownCap > 0 && d > p.SlowdownCap {
		// Admission control: wait rather than run pathologically slow.
		return nil
	}
	return p.scratch.Plan(d)
}

// rackView is the per-rack state the selection heuristics score.
type rackView struct {
	rack      int
	pool      cluster.PoolID
	freeNodes int
	freePool  int64
	congest   float64
}

// lessPoolPoor orders racks pool-poor first (local jobs consume these,
// preserving pool-rich racks for spilling jobs).
func lessPoolPoor(a, b *rackView) bool {
	if a.freePool != b.freePool {
		return a.freePool < b.freePool
	}
	return a.rack < b.rack
}

// lessCoolRich orders racks for spilling jobs: least congested first,
// then most free pool, then rack index.
func lessCoolRich(a, b *rackView) bool {
	if a.congest != b.congest {
		return a.congest < b.congest
	}
	if a.freePool != b.freePool {
		return a.freePool > b.freePool
	}
	return a.rack < b.rack
}

// sortViews sorts views stably by less. Rack counts are small, so a
// direct insertion sort beats the reflection machinery of
// sort.SliceStable in the planning hot path; large machines fall back
// to the library sort.
func sortViews(v []rackView, less func(a, b *rackView) bool) {
	if len(v) > 64 {
		sort.SliceStable(v, func(i, j int) bool { return less(&v[i], &v[j]) })
		return
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && less(&v[j], &v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// rackViews returns the per-rack state, rebuilt from the machine's
// incremental aggregates in O(racks) — no node is visited — only when
// the (machine, version) key has changed since the last call. The
// returned slice is cache owned by the policy; callers must not mutate
// it (the sorted variants below copy before sorting).
func (p *MemAware) rackViews(m *cluster.Machine) []rackView {
	if p.viewM == m && p.viewVer == m.Version() {
		return p.raw
	}
	cfg := m.Config()
	pools := m.Pools()
	if cap(p.raw) < cfg.Racks {
		p.raw = make([]rackView, cfg.Racks)
	}
	views := p.raw[:cfg.Racks]
	for r := 0; r < cfg.Racks; r++ {
		v := rackView{rack: r, pool: cluster.NoPool, freeNodes: m.RackFreeNodes(r)}
		switch cfg.Topology {
		case cluster.TopologyRack:
			v.pool = cluster.PoolID(r)
		case cluster.TopologyGlobal:
			v.pool = 0
		}
		if v.pool != cluster.NoPool {
			v.freePool = pools[v.pool].FreeMiB()
			v.congest = pools[v.pool].Congestion()
		}
		views[r] = v
	}
	p.raw = views
	p.viewM, p.viewVer = m, m.Version()
	p.poolPoorValid, p.coolRichValid = false, false
	return p.raw
}

// poolPoor returns the rack views sorted by lessPoolPoor, cached under
// the same (machine, version) key as the raw views.
func (p *MemAware) poolPoor(m *cluster.Machine) []rackView {
	raw := p.rackViews(m)
	if !p.poolPoorValid {
		p.poolPoorViews = append(p.poolPoorViews[:0], raw...)
		sortViews(p.poolPoorViews, lessPoolPoor)
		p.poolPoorValid = true
	}
	return p.poolPoorViews
}

// coolRich returns the rack views sorted by lessCoolRich, cached under
// the same (machine, version) key as the raw views.
func (p *MemAware) coolRich(m *cluster.Machine) []rackView {
	raw := p.rackViews(m)
	if !p.coolRichValid {
		p.coolRichViews = append(p.coolRichViews[:0], raw...)
		sortViews(p.coolRichViews, lessCoolRich)
		p.coolRichValid = true
	}
	return p.coolRichViews
}

// planLocal places an all-local job. With Balance, pool-poor racks are
// consumed first so pool-rich racks stay available to spilling jobs.
func (p *MemAware) planLocal(job *workload.Job, m *cluster.Machine) *sched.Plan {
	views := p.rackViews(m)
	if p.Balance {
		views = p.poolPoor(m)
	}
	shares := p.scratch.Shares(job.Nodes)
	for _, v := range views {
		if v.freeNodes == 0 {
			continue
		}
		m.FreeInRack(v.rack, func(id cluster.NodeID) bool {
			shares = append(shares, cluster.NodeShare{
				Node: id, LocalMiB: job.MemPerNode, Pool: cluster.NoPool,
			})
			return len(shares) < job.Nodes
		})
		if len(shares) == job.Nodes {
			p.scratch.Alloc(job.ID, shares)
			return p.scratch.Plan(1)
		}
	}
	return nil
}

// planSpill builds the node set for a job that must borrow remote MiB
// per node. Racks are ordered pool-rich and cool first (Balance) and
// the job is optionally spread across them (Shape).
func (p *MemAware) planSpill(job *workload.Job, m *cluster.Machine, local, remote int64) *cluster.Allocation {
	cfg := m.Config()
	// The eligibility filter depends on the job (freePool >= remote), so
	// it cannot be cached; the sort does not, so it is. Filtering the
	// cached lessCoolRich-sorted views yields exactly what the historical
	// filter-then-sort produced: lessCoolRich is a strict total order
	// (rack-index tiebreak), so the sorted order of any subset is the
	// subsequence of the sorted whole.
	source := p.rackViews(m)
	if p.Balance {
		source = p.coolRich(m)
	}
	eligible := p.eligScratch[:0]
	for _, v := range source {
		if v.freeNodes > 0 && v.pool != cluster.NoPool && v.freePool >= remote {
			eligible = append(eligible, v)
		}
	}
	p.eligScratch = eligible[:0]
	if len(eligible) == 0 {
		return nil
	}

	// Per-rack quota: greedy fill, or an even spread when shaping.
	if cap(p.quotaScratch) < len(eligible) {
		p.quotaScratch = make([]int, len(eligible))
	}
	quota := p.quotaScratch[:len(eligible)]
	for i := range quota {
		quota[i] = 0
	}
	remaining := job.Nodes
	if p.Shape && len(eligible) > 1 {
		for remaining > 0 {
			progress := false
			for i := range eligible {
				if remaining == 0 {
					break
				}
				canHost := eligible[i].freeNodes - quota[i]
				if canHost <= 0 {
					continue
				}
				if int64(quota[i]+1)*remote > eligible[i].freePool {
					continue
				}
				quota[i]++
				remaining--
				progress = true
			}
			if !progress {
				break
			}
		}
	} else {
		for i := range eligible {
			if remaining == 0 {
				break
			}
			take := eligible[i].freeNodes
			if maxByPool := eligible[i].freePool / remote; int64(take) > maxByPool {
				take = int(maxByPool)
			}
			if take > remaining {
				take = remaining
			}
			quota[i] = take
			remaining -= take
		}
	}
	if remaining > 0 {
		return nil
	}

	// For a global pool the per-rack quota may overcommit the single
	// pool; verify the aggregate.
	if cfg.Topology == cluster.TopologyGlobal {
		if remote*int64(job.Nodes) > mustPool(m, 0).FreeMiB() {
			return nil
		}
	}

	shares := p.scratch.Shares(job.Nodes)
	for i, v := range eligible {
		if quota[i] == 0 {
			continue
		}
		taken := 0
		m.FreeInRack(v.rack, func(id cluster.NodeID) bool {
			shares = append(shares, cluster.NodeShare{
				Node: id, LocalMiB: local, RemoteMiB: remote, Pool: v.pool,
			})
			taken++
			return taken < quota[i]
		})
		if taken < quota[i] {
			return nil // machine changed underneath us: planner bug
		}
	}
	return p.scratch.Alloc(job.ID, shares)
}

func mustPool(m *cluster.Machine, id cluster.PoolID) cluster.Pool {
	p, ok := m.Pool(id)
	if !ok {
		panic(fmt.Sprintf("core: missing pool %d", id))
	}
	return p
}
