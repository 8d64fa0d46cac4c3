package cluster

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a node; node IDs are dense in [0, TotalNodes).
type NodeID int

// PoolID identifies a memory pool; -1 means "no pool reachable".
type PoolID int

// NoPool is the PoolID for nodes without a reachable pool.
const NoPool PoolID = -1

// Node is one compute node. Exported fields are read-only snapshots for
// schedulers; all mutation goes through Machine.
type Node struct {
	ID   NodeID
	Rack int
	// Busy is the ID of the job occupying the node, or 0 (nodes are
	// allocated exclusively, one job per node).
	Busy int
	// Down marks a failed node: it cannot be allocated until repaired.
	Down bool
	// UsedLocalMiB is the local DRAM charged to the occupying job.
	UsedLocalMiB int64
}

// Available reports whether the node can accept an allocation.
func (n Node) Available() bool { return n.Busy == 0 && !n.Down }

// Pool is one disaggregated memory pool.
type Pool struct {
	ID          PoolID
	CapacityMiB int64
	UsedMiB     int64
	// FabricGiBps is the pool's aggregate fabric bandwidth.
	FabricGiBps float64
	// DemandGiBps is the current aggregate traffic demand from all
	// allocations borrowing from this pool.
	DemandGiBps float64
}

// FreeMiB returns the unallocated pool capacity.
func (p Pool) FreeMiB() int64 { return p.CapacityMiB - p.UsedMiB }

// Congestion returns demand/bandwidth; > 1 means the fabric is
// oversubscribed and remote accesses slow down.
func (p Pool) Congestion() float64 {
	if p.FabricGiBps <= 0 {
		return 0
	}
	return p.DemandGiBps / p.FabricGiBps
}

// NodeShare is one node's slice of an allocation.
type NodeShare struct {
	Node NodeID
	// LocalMiB + RemoteMiB equals the job's per-node footprint.
	LocalMiB, RemoteMiB int64
	// Pool is the pool backing RemoteMiB (NoPool iff RemoteMiB is 0).
	Pool PoolID
}

// Allocation is a job's committed placement. Construct with a planner
// (package sched / core) and commit with Machine.Allocate.
//
// Aggregate queries (RemoteMiB, TotalMiB, TouchedPools) are cached on
// first use; Shares must not be mutated after the first query or after
// the allocation is committed.
type Allocation struct {
	JobID  int
	Shares []NodeShare

	remoteMiB   int64
	totalMiB    int64
	cached      bool
	pools       []PoolID // distinct pools borrowed from, first-touch order
	poolsCached bool
	// pooled marks allocations created by Machine.AllocateCopy: they are
	// owned by the machine's free list and may be recycled after release
	// (Machine.Recycle is a no-op for any other allocation).
	pooled bool
}

// ensureSums computes the cached memory totals once. It allocates
// nothing, so planners can query candidate allocations freely.
func (a *Allocation) ensureSums() {
	if a.cached {
		return
	}
	for _, s := range a.Shares {
		a.remoteMiB += s.RemoteMiB
		a.totalMiB += s.LocalMiB + s.RemoteMiB
	}
	a.cached = true
}

// RemoteMiB returns the total pool memory the allocation borrows.
func (a *Allocation) RemoteMiB() int64 {
	a.ensureSums()
	return a.remoteMiB
}

// TotalMiB returns the allocation's whole footprint.
func (a *Allocation) TotalMiB() int64 {
	a.ensureSums()
	return a.totalMiB
}

// TouchedPools returns the distinct pools the allocation borrows from,
// in first-touch share order, cached on first call (it is computed
// separately from the memory totals because only committed allocations
// are asked for it, and building the list allocates). Callers must not
// mutate the slice.
func (a *Allocation) TouchedPools() []PoolID {
	if !a.poolsCached {
		for _, s := range a.Shares {
			if s.RemoteMiB == 0 {
				continue
			}
			seen := false
			for _, pid := range a.pools {
				if pid == s.Pool {
					seen = true
					break
				}
			}
			if !seen {
				a.pools = append(a.pools, s.Pool)
			}
		}
		a.poolsCached = true
	}
	return a.pools
}

// Clone returns a deep copy of the allocation: shares, cached sums and
// the touched-pool list are all independent of the original, so the
// copy can be kept past the original's release and recycling.
func (a *Allocation) Clone() *Allocation {
	c := *a
	c.Shares = append([]NodeShare(nil), a.Shares...)
	c.pools = append([]PoolID(nil), a.pools...)
	return &c
}

// RemoteFraction returns RemoteMiB/TotalMiB (0 for an empty alloc).
func (a *Allocation) RemoteFraction() float64 {
	t := a.TotalMiB()
	if t == 0 {
		return 0
	}
	return float64(a.RemoteMiB()) / float64(t)
}

// Machine owns all resource state. It is not safe for concurrent use;
// the simulation kernel is single-threaded (see package des).
type Machine struct {
	cfg       Config
	nodes     []Node
	pools     []Pool
	freeNodes int
	downNodes int
	allocs    map[int]*Allocation // by job ID

	// version increments on every state mutation (allocate, release,
	// node up/down, pool resize, growth). (Machine pointer, Version)
	// therefore identifies one exact machine state, which placers key
	// derived-view caches on.
	version uint64

	// allocPool is the free list AllocateCopy draws from and Recycle
	// returns to.
	allocPool []*Allocation

	// usageCache memoizes Usage at usageVer (0 = never computed;
	// version is always >= 1 from construction on).
	usageCache Usage
	usageVer   uint64

	// poolDegraded marks pools whose capacity a SetPoolCapacity call
	// pushed below live usage (scenario degradation). The flag is kept
	// exactly equivalent to UsedMiB > CapacityMiB — re-evaluated on
	// every resize, cleared when releases drain usage back under the
	// capacity — so CheckInvariants can tolerate over-capacity usage
	// precisely where degradation caused it and nowhere else.
	poolDegraded []bool

	// Incremental aggregates: maintained by Allocate/Release/
	// SetDown/SetUp so schedulers never rescan the node array. Every
	// counter here is cross-checked against a from-scratch
	// recomputation by CheckInvariants.
	busyNodes    int
	usedLocalMiB int64    // sum of UsedLocalMiB over busy nodes
	usedPoolMiB  int64    // sum of UsedMiB over pools
	rackFree     []int    // available (not busy, not down) nodes per rack
	freeBits     []uint64 // bit n set iff nodes[n].Available()
	remoteShares []int    // per pool: live node shares with RemoteMiB > 0

	// check() scratch, reused across calls so Allocate stays
	// allocation-free.
	nodeStamp []int64
	stampGen  int64
	poolNeed  []int64
	poolsHit  []PoolID
}

// New builds a machine from cfg: all nodes up and free, pools empty
// and at configured capacity.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.TotalNodes()
	var pools []Pool
	switch cfg.Topology {
	case TopologyRack:
		pools = make([]Pool, cfg.Racks)
		for r := range pools {
			pools[r] = Pool{ID: PoolID(r), CapacityMiB: cfg.PoolMiB, FabricGiBps: cfg.FabricGiBps}
		}
	case TopologyGlobal:
		pools = []Pool{{ID: 0, CapacityMiB: cfg.PoolMiB, FabricGiBps: cfg.FabricGiBps}}
	}
	m := &Machine{
		cfg: cfg,
		// version starts at 1: usageVer == 0 means "never computed".
		version:      1,
		nodes:        make([]Node, total),
		pools:        pools,
		freeNodes:    total,
		allocs:       make(map[int]*Allocation),
		poolDegraded: make([]bool, len(pools)),
		rackFree:     make([]int, cfg.Racks),
		freeBits:     make([]uint64, (total+63)/64),
		remoteShares: make([]int, len(pools)),
		nodeStamp:    make([]int64, total),
		poolNeed:     make([]int64, len(pools)),
	}
	for i := range m.nodes {
		m.nodes[i] = Node{ID: NodeID(i), Rack: i / cfg.NodesPerRack}
		m.setFree(NodeID(i))
	}
	for r := range m.rackFree {
		m.rackFree[r] = cfg.NodesPerRack
	}
	return m, nil
}

// setFree marks node id available in the free bitset.
func (m *Machine) setFree(id NodeID) { m.freeBits[id>>6] |= 1 << (uint(id) & 63) }

// clearFree marks node id unavailable in the free bitset.
func (m *Machine) clearFree(id NodeID) { m.freeBits[id>>6] &^= 1 << (uint(id) & 63) }

// Clone returns a deep copy of the machine: nodes, pools, every
// incremental aggregate, the degraded-pool flags and all committed
// allocations, so the clone's allocations can be looked up by job ID
// and released independently. It is the state-capture half of
// simulation checkpointing; a clone passes CheckInvariants whenever the
// original does, and mutating either machine never affects the other.
//
// The allocations are copied into three arrays, one each of
// allocations, shares and touched pools, so a clone costs the same
// few allocations however many jobs run. Each allocation's Shares and
// touched-pool list is a sub-slice capped at its own length: when the
// clone recycles a released allocation and AllocateCopy reuses it for
// a wider job, the append reallocates instead of running into the next
// allocation's shares.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		cfg:          m.cfg,
		version:      m.version,
		nodes:        append([]Node(nil), m.nodes...),
		pools:        append([]Pool(nil), m.pools...),
		freeNodes:    m.freeNodes,
		downNodes:    m.downNodes,
		allocs:       make(map[int]*Allocation, len(m.allocs)),
		poolDegraded: append([]bool(nil), m.poolDegraded...),
		busyNodes:    m.busyNodes,
		usedLocalMiB: m.usedLocalMiB,
		usedPoolMiB:  m.usedPoolMiB,
		rackFree:     append([]int(nil), m.rackFree...),
		freeBits:     append([]uint64(nil), m.freeBits...),
		remoteShares: append([]int(nil), m.remoteShares...),
		// check() scratch is per-machine transient state; fresh zeroed
		// scratch is equivalent to the original's between calls.
		nodeStamp: make([]int64, len(m.nodes)),
		poolNeed:  make([]int64, len(m.pools)),
		poolsHit:  make([]PoolID, 0, len(m.pools)),
	}
	nShares, nPools := 0, 0
	for _, a := range m.allocs {
		nShares += len(a.Shares)
		nPools += len(a.pools)
	}
	allocs := make([]Allocation, len(m.allocs))
	shares := make([]NodeShare, 0, nShares)
	pools := make([]PoolID, 0, nPools)
	i := 0
	for id, a := range m.allocs {
		ca := &allocs[i]
		i++
		*ca = *a
		lo := len(shares)
		shares = append(shares, a.Shares...)
		ca.Shares = shares[lo:len(shares):len(shares)]
		lo = len(pools)
		pools = append(pools, a.pools...)
		ca.pools = pools[lo:len(pools):len(pools)]
		c.allocs[id] = ca
	}
	return c
}

// MustNew is New for known-valid configs; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Version returns the mutation counter: it increments on every state
// change (allocate, release, node up/down, pool resize, growth),
// so (Machine pointer, Version) identifies one exact machine state.
// Derived-view caches — e.g. the memory-aware placer's rack views — are
// keyed on it.
func (m *Machine) Version() uint64 { return m.version }

// Nodes returns a read-only view of all nodes. Callers must not retain
// the slice across mutations.
func (m *Machine) Nodes() []Node { return m.nodes }

// Pools returns a read-only view of all pools.
func (m *Machine) Pools() []Pool { return m.pools }

// Pool returns a read-only copy of the pool with the given ID.
func (m *Machine) Pool(id PoolID) (Pool, bool) {
	if id < 0 || int(id) >= len(m.pools) {
		return Pool{}, false
	}
	return m.pools[id], true
}

// PoolOf returns the pool reachable from node n (NoPool for
// TopologyNone).
func (m *Machine) PoolOf(n NodeID) PoolID {
	switch m.cfg.Topology {
	case TopologyRack:
		return PoolID(m.nodes[n].Rack)
	case TopologyGlobal:
		return 0
	default:
		return NoPool
	}
}

// FreeNodes returns the number of nodes available for allocation
// (neither busy nor down).
func (m *Machine) FreeNodes() int { return m.freeNodes }

// DownNodes returns the number of failed nodes.
func (m *Machine) DownNodes() int { return m.downNodes }

// BusyNodes returns the number of occupied nodes.
func (m *Machine) BusyNodes() int { return m.busyNodes }

// RackFreeNodes returns the number of available nodes in rack r
// without scanning the node array.
func (m *Machine) RackFreeNodes(r int) int { return m.rackFree[r] }

// FreeInRack calls fn for each available node of rack r in ascending
// node-ID order, stopping early when fn returns false. Cost is
// proportional to the free nodes visited, not the rack size.
func (m *Machine) FreeInRack(r int, fn func(NodeID) bool) {
	base := r * m.cfg.NodesPerRack
	m.forEachFree(base, base+m.cfg.NodesPerRack, fn)
}

// ForEachFree calls fn for every available node in ascending node-ID
// order, stopping early when fn returns false.
func (m *Machine) ForEachFree(fn func(NodeID) bool) {
	m.forEachFree(0, len(m.nodes), fn)
}

// forEachFree iterates set bits of freeBits in [lo, hi).
func (m *Machine) forEachFree(lo, hi int, fn func(NodeID) bool) {
	if lo >= hi {
		return
	}
	loWord, hiWord := lo>>6, (hi-1)>>6
	for w := loWord; w <= hiWord; w++ {
		word := m.freeBits[w]
		if w == loWord {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == hiWord && hi&63 != 0 {
			word &= (uint64(1) << (uint(hi) & 63)) - 1
		}
		for word != 0 {
			id := NodeID(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if !fn(id) {
				return
			}
		}
	}
}

// SetDown marks a free node as failed. Failing a busy node is an
// engine-level operation: kill and release the occupant first.
func (m *Machine) SetDown(id NodeID) error {
	if id < 0 || int(id) >= len(m.nodes) {
		return fmt.Errorf("cluster: SetDown: node %d out of range", id)
	}
	n := &m.nodes[id]
	if n.Busy != 0 {
		return fmt.Errorf("cluster: SetDown: node %d busy with job %d", id, n.Busy)
	}
	if n.Down {
		return fmt.Errorf("cluster: SetDown: node %d already down", id)
	}
	n.Down = true
	m.freeNodes--
	m.downNodes++
	m.rackFree[n.Rack]--
	m.clearFree(id)
	m.version++
	return nil
}

// SetUp returns a failed node to service.
func (m *Machine) SetUp(id NodeID) error {
	if id < 0 || int(id) >= len(m.nodes) {
		return fmt.Errorf("cluster: SetUp: node %d out of range", id)
	}
	n := &m.nodes[id]
	if !n.Down {
		return fmt.Errorf("cluster: SetUp: node %d is not down", id)
	}
	n.Down = false
	m.freeNodes++
	m.downNodes--
	m.rackFree[n.Rack]++
	m.setFree(id)
	m.version++
	return nil
}

// SetPoolCapacity resizes pool id to capMiB: the sanctioned mutation
// for scenario-driven pool degradation and recovery. Shrinking below
// the pool's current usage is allowed and puts the pool in a degraded
// state — existing borrowers keep their memory, FreeMiB goes negative,
// and no new remote placement is admitted until usage drains back
// below the new capacity.
//
// Config() is NOT updated: Config.PoolMiB is one uniform number and
// cannot represent heterogeneous pool capacities, so feasibility
// probes (which plan against an idle machine built from Config) keep
// assuming the configured size. A pool shrunk this way and never
// restored can therefore strand admitted jobs, which the engine
// reports at Finish; use SetAllPoolCapacities for a machine-wide
// resize that feasibility follows.
func (m *Machine) SetPoolCapacity(id PoolID, capMiB int64) error {
	if id < 0 || int(id) >= len(m.pools) {
		return fmt.Errorf("cluster: SetPoolCapacity: pool %d out of range", id)
	}
	if capMiB < 0 {
		return fmt.Errorf("cluster: SetPoolCapacity: capacity %d < 0", capMiB)
	}
	p := &m.pools[id]
	p.CapacityMiB = capMiB
	m.poolDegraded[id] = p.UsedMiB > p.CapacityMiB
	m.version++
	return nil
}

// SetAllPoolCapacities resizes every pool to capMiB and records the new
// size in the machine config, so feasibility probes (which plan against
// an idle machine built from Config) see the new capacity.
func (m *Machine) SetAllPoolCapacities(capMiB int64) error {
	if len(m.pools) == 0 {
		return fmt.Errorf("cluster: SetAllPoolCapacities: machine has no pools")
	}
	for i := range m.pools {
		if err := m.SetPoolCapacity(PoolID(i), capMiB); err != nil {
			return err
		}
	}
	m.cfg.PoolMiB = capMiB
	return nil
}

// AddRack appends one rack of NodesPerRack fresh free nodes to the
// machine — the sanctioned mutation for staged machine growth — and,
// under rack topology, a fresh pool with the configured capacity and
// fabric. It returns the new rack's index. Config() reflects the grown
// shape immediately, so feasibility probes and report normalization
// follow the machine as it grows.
func (m *Machine) AddRack() (int, error) {
	npr := m.cfg.NodesPerRack
	base := len(m.nodes)
	rack := m.cfg.Racks
	m.cfg.Racks++
	for i := 0; i < npr; i++ {
		m.nodes = append(m.nodes, Node{ID: NodeID(base + i), Rack: rack})
		m.nodeStamp = append(m.nodeStamp, 0)
	}
	for need := (len(m.nodes) + 63) / 64; len(m.freeBits) < need; {
		m.freeBits = append(m.freeBits, 0)
	}
	for i := 0; i < npr; i++ {
		m.setFree(NodeID(base + i))
	}
	m.freeNodes += npr
	m.rackFree = append(m.rackFree, npr)
	if m.cfg.Topology == TopologyRack {
		m.pools = append(m.pools, Pool{
			ID: PoolID(rack), CapacityMiB: m.cfg.PoolMiB, FabricGiBps: m.cfg.FabricGiBps,
		})
		m.remoteShares = append(m.remoteShares, 0)
		m.poolNeed = append(m.poolNeed, 0)
		m.poolDegraded = append(m.poolDegraded, false)
	}
	m.version++
	return rack, nil
}

// RunningJobs returns the number of committed allocations.
func (m *Machine) RunningJobs() int { return len(m.allocs) }

// AllocationOf returns job's live allocation, if any.
func (m *Machine) AllocationOf(jobID int) (*Allocation, bool) {
	a, ok := m.allocs[jobID]
	return a, ok
}

// Allocate validates and commits an allocation atomically: on error the
// machine is unchanged. The machine retains a until it is released, so
// the caller must not reuse or mutate it; planners that recycle their
// plan storage commit through AllocateCopy instead.
func (m *Machine) Allocate(a *Allocation) error {
	if err := m.check(a); err != nil {
		return err
	}
	m.commit(a)
	return nil
}

// AllocateCopy validates a, then commits a deep copy drawn from the
// machine's allocation free list, leaving a untouched — the caller
// (typically a placer whose Plan result is scratch, valid only until
// its next Plan call) keeps ownership of a, and the machine owns the
// committed copy. The copy is returned so dispatch state can reference
// it; after the job is released, pass it to Recycle to return it to the
// free list.
func (m *Machine) AllocateCopy(a *Allocation) (*Allocation, error) {
	if err := m.check(a); err != nil {
		return nil, err
	}
	var c *Allocation
	if n := len(m.allocPool); n > 0 {
		c = m.allocPool[n-1]
		m.allocPool[n-1] = nil
		m.allocPool = m.allocPool[:n-1]
	} else {
		c = &Allocation{pooled: true}
	}
	c.JobID = a.JobID
	c.Shares = append(c.Shares[:0], a.Shares...)
	m.commit(c)
	return c, nil
}

// Recycle returns a released AllocateCopy allocation to the free list.
// It is a no-op for allocations the machine does not own (anything not
// created by AllocateCopy), so callers can recycle unconditionally. The
// allocation must already have been released: recycling a live
// allocation would corrupt the machine's books when the struct is
// reused.
func (m *Machine) Recycle(a *Allocation) {
	if a == nil || !a.pooled {
		return
	}
	*a = Allocation{Shares: a.Shares[:0], pools: a.pools[:0], pooled: true}
	m.allocPool = append(m.allocPool, a)
}

// commit applies a checked allocation to the machine's books.
func (m *Machine) commit(a *Allocation) {
	a.ensureSums()
	for _, s := range a.Shares {
		n := &m.nodes[s.Node]
		n.Busy = a.JobID
		n.UsedLocalMiB = s.LocalMiB
		m.clearFree(s.Node)
		m.rackFree[n.Rack]--
		m.usedLocalMiB += s.LocalMiB
		if s.RemoteMiB > 0 {
			p := &m.pools[s.Pool]
			p.UsedMiB += s.RemoteMiB
			p.DemandGiBps += m.shareDemand(s)
			m.remoteShares[s.Pool]++
			m.usedPoolMiB += s.RemoteMiB
		}
	}
	m.freeNodes -= len(a.Shares)
	m.busyNodes += len(a.Shares)
	m.allocs[a.JobID] = a
	m.version++
}

// check validates a without mutating state.
func (m *Machine) check(a *Allocation) error {
	if a == nil || a.JobID <= 0 {
		return fmt.Errorf("cluster: invalid allocation (nil or bad job id)")
	}
	if len(a.Shares) == 0 {
		return fmt.Errorf("cluster: job %d: empty allocation", a.JobID)
	}
	if _, dup := m.allocs[a.JobID]; dup {
		return fmt.Errorf("cluster: job %d: already allocated", a.JobID)
	}
	// Duplicate-node detection via epoch stamps and per-pool need via a
	// dense scratch slice: O(shares), no allocation.
	m.stampGen++
	for _, pid := range m.poolsHit {
		m.poolNeed[pid] = 0
	}
	m.poolsHit = m.poolsHit[:0]
	for _, s := range a.Shares {
		if s.Node < 0 || int(s.Node) >= len(m.nodes) {
			return fmt.Errorf("cluster: job %d: node %d out of range", a.JobID, s.Node)
		}
		if m.nodeStamp[s.Node] == m.stampGen {
			return fmt.Errorf("cluster: job %d: node %d listed twice", a.JobID, s.Node)
		}
		m.nodeStamp[s.Node] = m.stampGen
		n := &m.nodes[s.Node]
		if n.Busy != 0 {
			return fmt.Errorf("cluster: job %d: node %d busy with job %d", a.JobID, s.Node, n.Busy)
		}
		if n.Down {
			return fmt.Errorf("cluster: job %d: node %d is down", a.JobID, s.Node)
		}
		if s.LocalMiB < 0 || s.RemoteMiB < 0 {
			return fmt.Errorf("cluster: job %d: negative share on node %d", a.JobID, s.Node)
		}
		if s.LocalMiB > m.cfg.LocalMemMiB {
			return fmt.Errorf("cluster: job %d: node %d local %d exceeds DRAM %d",
				a.JobID, s.Node, s.LocalMiB, m.cfg.LocalMemMiB)
		}
		if s.RemoteMiB > 0 {
			want := m.PoolOf(s.Node)
			if s.Pool != want {
				return fmt.Errorf("cluster: job %d: node %d borrows from pool %d, reachable pool is %d",
					a.JobID, s.Node, s.Pool, want)
			}
			if want == NoPool {
				return fmt.Errorf("cluster: job %d: node %d has no reachable pool", a.JobID, s.Node)
			}
			if m.poolNeed[s.Pool] == 0 {
				m.poolsHit = append(m.poolsHit, s.Pool)
			}
			m.poolNeed[s.Pool] += s.RemoteMiB
		} else if s.Pool != NoPool {
			return fmt.Errorf("cluster: job %d: node %d names pool %d without remote memory",
				a.JobID, s.Node, s.Pool)
		}
	}
	for _, pid := range m.poolsHit {
		if need, free := m.poolNeed[pid], m.pools[pid].FreeMiB(); need > free {
			return fmt.Errorf("cluster: job %d: pool %d needs %d MiB, only %d free",
				a.JobID, pid, need, free)
		}
	}
	return nil
}

// Release frees job's allocation, restoring all counters exactly.
func (m *Machine) Release(jobID int) error {
	a, ok := m.allocs[jobID]
	if !ok {
		return fmt.Errorf("cluster: job %d: no allocation to release", jobID)
	}
	for _, s := range a.Shares {
		n := &m.nodes[s.Node]
		n.Busy = 0
		n.UsedLocalMiB = 0
		m.setFree(s.Node)
		m.rackFree[n.Rack]++
		m.usedLocalMiB -= s.LocalMiB
		if s.RemoteMiB > 0 {
			p := &m.pools[s.Pool]
			p.UsedMiB -= s.RemoteMiB
			p.DemandGiBps -= m.shareDemand(s)
			m.remoteShares[s.Pool]--
			m.usedPoolMiB -= s.RemoteMiB
			// Draining below a shrunken capacity ends the degraded
			// state; normal admission (and the strict invariant)
			// resume.
			if m.poolDegraded[s.Pool] && p.UsedMiB <= p.CapacityMiB {
				m.poolDegraded[s.Pool] = false
			}
			// Absorb float drift only once the pool has no remaining
			// remote users; zeroing while users remain would erase
			// their live demand.
			if m.remoteShares[s.Pool] == 0 {
				p.DemandGiBps = 0
			}
		}
	}
	m.freeNodes += len(a.Shares)
	m.busyNodes -= len(a.Shares)
	delete(m.allocs, jobID)
	m.version++
	return nil
}

// shareDemand converts one node share into fabric demand (GiB/s):
// linear in the node's remote fraction.
func (m *Machine) shareDemand(s NodeShare) float64 {
	tot := s.LocalMiB + s.RemoteMiB
	if tot == 0 || s.RemoteMiB == 0 {
		return 0
	}
	return m.cfg.TrafficGiBpsPerNode * float64(s.RemoteMiB) / float64(tot)
}

// DemandOf returns the total fabric demand (GiB/s) allocation a would
// add (or currently adds) to its pools.
func (m *Machine) DemandOf(a *Allocation) float64 {
	var d float64
	for _, s := range a.Shares {
		d += m.shareDemand(s)
	}
	return d
}

// Usage is a point-in-time resource snapshot used by the metrics
// recorder.
type Usage struct {
	BusyNodes   int
	UsedCores   int
	UsedLocal   int64 // MiB
	UsedPool    int64 // MiB
	PoolDemand  float64
	MaxPoolUtil float64 // max over pools of used/capacity
	MaxCongest  float64 // max over pools of demand/bandwidth
}

// Usage returns the current snapshot. Cores are charged as fully used
// on busy nodes (exclusive allocation). Node-side figures come from the
// incremental aggregates, so the call is O(pools), not O(nodes) — and
// memoized on the machine version, since the engine reads usage several
// times per event (observation, sampling, reporting) between mutations.
func (m *Machine) Usage() Usage {
	if m.usageVer == m.version {
		return m.usageCache
	}
	u := Usage{
		BusyNodes: m.busyNodes,
		UsedCores: m.busyNodes * m.cfg.CoresPerNode,
		UsedLocal: m.usedLocalMiB,
	}
	for i := range m.pools {
		p := &m.pools[i]
		u.UsedPool += p.UsedMiB
		u.PoolDemand += p.DemandGiBps
		if p.CapacityMiB > 0 {
			if util := float64(p.UsedMiB) / float64(p.CapacityMiB); util > u.MaxPoolUtil {
				u.MaxPoolUtil = util
			}
		}
		if c := p.Congestion(); c > u.MaxCongest {
			u.MaxCongest = c
		}
	}
	m.usageCache, m.usageVer = u, m.version
	return u
}

// CheckInvariants verifies conservation: per-node and per-pool usage
// derived from live allocations matches the counters, and every
// incremental aggregate (busy/free counts, per-rack free counts, the
// free bitset, local/pool usage totals, per-pool remote-share counts,
// cached allocation sums) matches a from-scratch recomputation. It is
// O(machine) and intended for tests and debug builds.
func (m *Machine) CheckInvariants() error {
	busy := make(map[NodeID]int)
	poolUsed := make(map[PoolID]int64)
	poolDemand := make(map[PoolID]float64)
	poolShares := make(map[PoolID]int)
	for id, a := range m.allocs {
		if a.JobID != id {
			return fmt.Errorf("cluster: alloc map key %d != job id %d", id, a.JobID)
		}
		var wantRemote, wantTotal int64
		for _, s := range a.Shares {
			if prev, clash := busy[s.Node]; clash {
				return fmt.Errorf("cluster: node %d shared by jobs %d and %d", s.Node, prev, id)
			}
			busy[s.Node] = id
			wantRemote += s.RemoteMiB
			wantTotal += s.LocalMiB + s.RemoteMiB
			if s.RemoteMiB > 0 {
				poolUsed[s.Pool] += s.RemoteMiB
				poolDemand[s.Pool] += m.shareDemand(s)
				poolShares[s.Pool]++
			}
		}
		if got := a.RemoteMiB(); got != wantRemote {
			return fmt.Errorf("cluster: job %d cached remote=%d, shares say %d", id, got, wantRemote)
		}
		if got := a.TotalMiB(); got != wantTotal {
			return fmt.Errorf("cluster: job %d cached total=%d, shares say %d", id, got, wantTotal)
		}
	}
	free, down := 0, 0
	var usedLocal int64
	rackFree := make([]int, m.cfg.Racks)
	for i := range m.nodes {
		n := &m.nodes[i]
		if want := busy[n.ID]; want != n.Busy {
			return fmt.Errorf("cluster: node %d busy=%d, allocations say %d", n.ID, n.Busy, want)
		}
		if n.Busy != 0 && n.Down {
			return fmt.Errorf("cluster: node %d both busy and down", n.ID)
		}
		if n.Down {
			down++
		}
		if n.Busy != 0 {
			usedLocal += n.UsedLocalMiB
		}
		if n.Busy == 0 {
			if !n.Down {
				free++
				rackFree[n.Rack]++
			}
			if n.UsedLocalMiB != 0 {
				return fmt.Errorf("cluster: free node %d has %d MiB charged", n.ID, n.UsedLocalMiB)
			}
		}
		if inBits := m.freeBits[i>>6]&(1<<(uint(i)&63)) != 0; inBits != n.Available() {
			return fmt.Errorf("cluster: node %d free bit=%v, available=%v", n.ID, inBits, n.Available())
		}
	}
	if free != m.freeNodes {
		return fmt.Errorf("cluster: freeNodes=%d, counted %d", m.freeNodes, free)
	}
	if down != m.downNodes {
		return fmt.Errorf("cluster: downNodes=%d, counted %d", m.downNodes, down)
	}
	if want := len(m.nodes) - free - down; want != m.busyNodes {
		return fmt.Errorf("cluster: busyNodes=%d, counted %d", m.busyNodes, want)
	}
	if usedLocal != m.usedLocalMiB {
		return fmt.Errorf("cluster: usedLocalMiB=%d, counted %d", m.usedLocalMiB, usedLocal)
	}
	for r, n := range rackFree {
		if n != m.rackFree[r] {
			return fmt.Errorf("cluster: rack %d free=%d, counted %d", r, m.rackFree[r], n)
		}
	}
	var usedPool int64
	for i := range m.pools {
		p := &m.pools[i]
		if p.UsedMiB != poolUsed[p.ID] {
			return fmt.Errorf("cluster: pool %d used=%d, allocations say %d", p.ID, p.UsedMiB, poolUsed[p.ID])
		}
		if p.UsedMiB < 0 {
			return fmt.Errorf("cluster: pool %d used %d < 0", p.ID, p.UsedMiB)
		}
		// Over-capacity usage is legal only in the degraded state a
		// shrinking SetPoolCapacity leaves behind, and the degraded
		// flag must track used > capacity exactly (this single check
		// therefore also catches any unsanctioned over-commit).
		if got, want := m.poolDegraded[p.ID], p.UsedMiB > p.CapacityMiB; got != want {
			return fmt.Errorf("cluster: pool %d degraded=%v, used %d vs capacity %d says %v",
				p.ID, got, p.UsedMiB, p.CapacityMiB, want)
		}
		if diff := p.DemandGiBps - poolDemand[p.ID]; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("cluster: pool %d demand=%g, allocations say %g", p.ID, p.DemandGiBps, poolDemand[p.ID])
		}
		if m.remoteShares[p.ID] != poolShares[p.ID] {
			return fmt.Errorf("cluster: pool %d remoteShares=%d, allocations say %d",
				p.ID, m.remoteShares[p.ID], poolShares[p.ID])
		}
		if m.remoteShares[p.ID] == 0 && p.DemandGiBps != 0 {
			return fmt.Errorf("cluster: pool %d idle but demand=%g", p.ID, p.DemandGiBps)
		}
		usedPool += p.UsedMiB
	}
	if usedPool != m.usedPoolMiB {
		return fmt.Errorf("cluster: usedPoolMiB=%d, counted %d", m.usedPoolMiB, usedPool)
	}
	return nil
}
