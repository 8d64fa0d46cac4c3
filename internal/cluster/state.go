package cluster

import (
	"fmt"
	"sort"
)

// This file is the durable-checkpoint face of the package: a portable,
// JSON-friendly snapshot of a Machine plus the validated constructor
// that rebuilds a live machine from one. Only primary state travels —
// config, nodes, pools, committed allocations; every incremental
// aggregate is recomputed on restore and the result must pass
// CheckInvariants, so a corrupted snapshot cannot produce a machine
// whose counters disagree with its allocations.

// AllocationState is the portable form of one committed allocation.
type AllocationState struct {
	JobID  int         `json:"jobId"`
	Shares []NodeShare `json:"shares"`
}

// MachineState is the portable serialized form of a Machine.
//
// Pools are carried verbatim rather than rebuilt from Config: scenario
// resizes (SetPoolCapacity) give pools heterogeneous capacities the
// one-number Config cannot express, and DemandGiBps is a float
// accumulated in allocation order, so recomputing it could differ in
// the last bit from the live value.
type MachineState struct {
	Config Config            `json:"config"`
	Nodes  []Node            `json:"nodes"`
	Pools  []Pool            `json:"pools,omitempty"`
	Allocs []AllocationState `json:"allocs,omitempty"`
}

// State captures the machine. Allocations are ordered by job ID so the
// serialized form is deterministic across runs.
func (m *Machine) State() MachineState {
	st := MachineState{
		Config: m.cfg,
		Nodes:  append([]Node(nil), m.nodes...),
		Pools:  append([]Pool(nil), m.pools...),
		Allocs: make([]AllocationState, 0, len(m.allocs)),
	}
	for id, a := range m.allocs {
		st.Allocs = append(st.Allocs, AllocationState{
			JobID:  id,
			Shares: append([]NodeShare(nil), a.Shares...),
		})
	}
	sort.Slice(st.Allocs, func(i, j int) bool { return st.Allocs[i].JobID < st.Allocs[j].JobID })
	return st
}

// FromState rebuilds a machine from a captured state. The incremental
// aggregates (free/busy/down counts, rack free counts, the free bitset,
// usage totals, per-pool share counts, degraded-pool flags) are all
// derived from the primary state, then cross-checked by CheckInvariants
// so an inconsistent snapshot is rejected rather than simulated.
func FromState(st MachineState) (*Machine, error) {
	if err := st.Config.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: machine state: %w", err)
	}
	if got, want := len(st.Nodes), st.Config.TotalNodes(); got != want {
		return nil, fmt.Errorf("cluster: machine state has %d nodes, config says %d", got, want)
	}
	wantPools := 0
	switch st.Config.Topology {
	case TopologyRack:
		wantPools = st.Config.Racks
	case TopologyGlobal:
		wantPools = 1
	}
	if len(st.Pools) != wantPools {
		return nil, fmt.Errorf("cluster: machine state has %d pools, topology %q says %d",
			len(st.Pools), st.Config.Topology, wantPools)
	}

	total := len(st.Nodes)
	m := &Machine{
		cfg: st.Config,
		// version must start >= 1: usageVer == 0 means "never
		// computed", and a restored machine's first Usage() call has
		// to miss that cache, not hit a zero value.
		version:      1,
		nodes:        append([]Node(nil), st.Nodes...),
		pools:        append([]Pool(nil), st.Pools...),
		allocs:       make(map[int]*Allocation, len(st.Allocs)),
		poolDegraded: make([]bool, len(st.Pools)),
		rackFree:     make([]int, st.Config.Racks),
		freeBits:     make([]uint64, (total+63)/64),
		remoteShares: make([]int, len(st.Pools)),
		nodeStamp:    make([]int64, total),
		poolNeed:     make([]int64, len(st.Pools)),
		poolsHit:     make([]PoolID, 0, len(st.Pools)),
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if int(n.ID) != i {
			return nil, fmt.Errorf("cluster: machine state node %d carries id %d", i, n.ID)
		}
		if want := i / st.Config.NodesPerRack; n.Rack != want {
			return nil, fmt.Errorf("cluster: machine state node %d in rack %d, layout says %d", i, n.Rack, want)
		}
		switch {
		case n.Down:
			if n.Busy != 0 {
				return nil, fmt.Errorf("cluster: machine state node %d both busy and down", i)
			}
			m.downNodes++
		case n.Busy == 0:
			m.freeNodes++
			m.rackFree[n.Rack]++
			m.setFree(n.ID)
		default:
			m.busyNodes++
			m.usedLocalMiB += n.UsedLocalMiB
		}
	}
	for i := range m.pools {
		p := &m.pools[i]
		if int(p.ID) != i {
			return nil, fmt.Errorf("cluster: machine state pool %d carries id %d", i, p.ID)
		}
		m.usedPoolMiB += p.UsedMiB
		m.poolDegraded[i] = p.UsedMiB > p.CapacityMiB
	}
	prev := -1
	for _, as := range st.Allocs {
		if as.JobID <= prev {
			return nil, fmt.Errorf("cluster: machine state allocations out of order at job %d", as.JobID)
		}
		prev = as.JobID
		a := &Allocation{JobID: as.JobID, Shares: append([]NodeShare(nil), as.Shares...)}
		m.allocs[as.JobID] = a
		for _, s := range a.Shares {
			if s.RemoteMiB > 0 {
				if s.Pool < 0 || int(s.Pool) >= len(m.pools) {
					return nil, fmt.Errorf("cluster: machine state job %d borrows from pool %d of %d",
						as.JobID, s.Pool, len(m.pools))
				}
				m.remoteShares[s.Pool]++
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("cluster: machine state inconsistent: %w", err)
	}
	return m, nil
}
