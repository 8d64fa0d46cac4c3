// Package cluster models the machine: racks of nodes with cores and
// local DRAM, plus disaggregated memory pools reachable over a fabric
// with finite bandwidth. It performs all allocation bookkeeping and
// enforces conservation invariants (nothing is ever over-committed,
// frees restore state exactly).
package cluster

import "fmt"

// Topology selects how disaggregated memory pools are attached.
type Topology int

const (
	// TopologyNone models a conventional machine: local DRAM only.
	TopologyNone Topology = iota
	// TopologyRack attaches one independent pool per rack; nodes can
	// borrow only from their own rack's pool (CXL rack-scale design).
	TopologyRack
	// TopologyGlobal attaches one machine-wide pool every node can
	// borrow from (fabric-attached memory appliance).
	TopologyGlobal
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case TopologyNone:
		return "none"
	case TopologyRack:
		return "rack"
	case TopologyGlobal:
		return "global"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// ParseTopology converts a topology name (String's inverse) to a
// Topology.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "none":
		return TopologyNone, nil
	case "rack":
		return TopologyRack, nil
	case "global":
		return TopologyGlobal, nil
	default:
		return TopologyNone, fmt.Errorf("cluster: unknown topology %q", s)
	}
}

// Config describes a machine. Memory is in MiB, bandwidth in GiB/s.
type Config struct {
	// Racks and NodesPerRack give the machine shape.
	Racks, NodesPerRack int
	// CoresPerNode is the per-node core count.
	CoresPerNode int
	// LocalMemMiB is the per-node local DRAM.
	LocalMemMiB int64

	// Topology selects pool attachment; the fields below are ignored
	// for TopologyNone.
	Topology Topology
	// PoolMiB is the capacity of each pool: per rack for TopologyRack,
	// total for TopologyGlobal.
	PoolMiB int64
	// FabricGiBps is each pool's aggregate fabric bandwidth.
	FabricGiBps float64
	// TrafficGiBpsPerNode is the fabric demand one node generates when
	// its footprint is entirely remote; demand scales linearly with the
	// node's remote fraction. It converts placement decisions into
	// fabric congestion for the bandwidth slowdown model.
	TrafficGiBpsPerNode float64
}

// DefaultConfig returns the evaluation machine used across experiments:
// 16 racks x 16 nodes x 32 cores, 64 GiB local DRAM per node, 4 TiB
// rack pools behind 64 GiB/s fabrics.
func DefaultConfig() Config {
	return Config{
		Racks:               16,
		NodesPerRack:        16,
		CoresPerNode:        32,
		LocalMemMiB:         64 * 1024,
		Topology:            TopologyRack,
		PoolMiB:             4 * 1024 * 1024,
		FabricGiBps:         64,
		TrafficGiBpsPerNode: 2,
	}
}

// BaselineConfig returns the conventional big-memory machine the paper
// compares against: same node count, localMiB DRAM per node, no pool.
func BaselineConfig(localMiB int64) Config {
	c := DefaultConfig()
	c.LocalMemMiB = localMiB
	c.Topology = TopologyNone
	c.PoolMiB = 0
	return c
}

// IsZero reports whether c is the zero value — "no configuration
// given" — which API entry points replace with DefaultConfig. A
// partially filled config is NOT zero and must pass Validate instead
// of being silently swapped for the default.
func (c Config) IsZero() bool { return c == Config{} }

// Validate reports the first invalid parameter, or nil.
func (c Config) Validate() error {
	switch {
	case c.Racks <= 0:
		return fmt.Errorf("cluster: racks %d <= 0", c.Racks)
	case c.NodesPerRack <= 0:
		return fmt.Errorf("cluster: nodes/rack %d <= 0", c.NodesPerRack)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("cluster: cores/node %d <= 0", c.CoresPerNode)
	case c.LocalMemMiB < 0:
		return fmt.Errorf("cluster: local mem %d < 0", c.LocalMemMiB)
	}
	if c.Topology != TopologyNone {
		if c.PoolMiB < 0 {
			return fmt.Errorf("cluster: pool size %d < 0", c.PoolMiB)
		}
		if c.FabricGiBps <= 0 {
			return fmt.Errorf("cluster: fabric bandwidth %g <= 0", c.FabricGiBps)
		}
		if c.TrafficGiBpsPerNode < 0 {
			return fmt.Errorf("cluster: traffic/node %g < 0", c.TrafficGiBpsPerNode)
		}
	}
	return nil
}

// TotalNodes returns Racks * NodesPerRack.
func (c Config) TotalNodes() int { return c.Racks * c.NodesPerRack }

// TotalCores returns the machine core count.
func (c Config) TotalCores() int { return c.TotalNodes() * c.CoresPerNode }

// TotalLocalMiB returns the aggregate local DRAM.
func (c Config) TotalLocalMiB() int64 {
	return int64(c.TotalNodes()) * c.LocalMemMiB
}

// TotalPoolMiB returns the aggregate disaggregated capacity.
func (c Config) TotalPoolMiB() int64 {
	switch c.Topology {
	case TopologyRack:
		return int64(c.Racks) * c.PoolMiB
	case TopologyGlobal:
		return c.PoolMiB
	default:
		return 0
	}
}

// TotalMemMiB returns local + pool capacity, the figure held constant
// in the DRAM-downsizing experiment (Fig 5).
func (c Config) TotalMemMiB() int64 { return c.TotalLocalMiB() + c.TotalPoolMiB() }
