// Package config defines the JSON experiment configuration consumed by
// cmd/dmsched (-config), bundling machine shape, workload source,
// policy, memory model and failure injection into one reviewable file.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sim"
)

// Experiment is the root configuration document. Memory sizes are in
// GiB (the operator-facing unit); they are converted to the simulator's
// MiB internally.
type Experiment struct {
	// Name labels the run in output.
	Name string `json:"name"`

	Machine  Machine  `json:"machine"`
	Workload Workload `json:"workload"`

	// Policy is a scheduling policy name or spec string.
	Policy string `json:"policy"`
	// Model is a memory-model spec, e.g. "linear:0.5".
	Model string `json:"model"`
	// StrictKill kills jobs at the raw user estimate even when the
	// system dilated them.
	StrictKill bool `json:"strict_kill,omitempty"`

	// Failures optionally injects node failures.
	Failures *Failures `json:"failures,omitempty"`
}

// Machine describes the simulated hardware.
type Machine struct {
	Racks        int     `json:"racks"`
	NodesPerRack int     `json:"nodes_per_rack"`
	CoresPerNode int     `json:"cores_per_node"`
	LocalGiB     int64   `json:"local_gib"`
	Topology     string  `json:"topology"` // none | rack | global
	PoolGiB      int64   `json:"pool_gib,omitempty"`
	FabricGiBps  float64 `json:"fabric_gibps,omitempty"`
	TrafficGiBps float64 `json:"traffic_gibps_per_node,omitempty"`
}

// Workload selects the trace: a synthetic generator or an SWF file.
type Workload struct {
	// Jobs and Seed drive the synthetic generator (used when SWF is
	// empty).
	Jobs int    `json:"jobs,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// EstimateAccuracy overrides the generator's mean user estimate
	// accuracy when > 0.
	EstimateAccuracy float64 `json:"estimate_accuracy,omitempty"`
	// LargeMemFraction overrides the data-intensive job share when > 0.
	LargeMemFraction float64 `json:"large_mem_fraction,omitempty"`
	// SWF is a trace file path; NodeCores converts its processors to
	// nodes (0 = processors are nodes).
	SWF       string `json:"swf,omitempty"`
	NodeCores int    `json:"node_cores,omitempty"`
}

// Failures mirrors sim.FailureConfig in GiB-free units.
type Failures struct {
	MTBFPerNodeSec int64  `json:"mtbf_per_node_sec"`
	RepairSec      int64  `json:"repair_sec"`
	Seed           uint64 `json:"seed,omitempty"`
}

// Default returns a runnable starting configuration (the evaluation
// machine with the memory-aware policy).
func Default() Experiment {
	return Experiment{
		Name: "default",
		Machine: Machine{
			Racks: 16, NodesPerRack: 16, CoresPerNode: 32,
			LocalGiB: 64, Topology: "rack", PoolGiB: 4096,
			FabricGiBps: 64, TrafficGiBps: 2,
		},
		Workload: Workload{Jobs: 5000, Seed: 1},
		Policy:   "memaware",
		Model:    "linear:0.5",
	}
}

// Read parses an experiment from JSON. Unknown fields are rejected so
// typos fail loudly instead of silently using defaults.
func Read(r io.Reader) (*Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Load reads an experiment from a file.
func Load(path string) (*Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write serialises the experiment as indented JSON.
func (e *Experiment) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Validate checks the document against the simulator's constraints.
func (e *Experiment) Validate() error {
	if e.Policy == "" {
		return fmt.Errorf("config: missing policy")
	}
	if e.Model != "" {
		if _, err := memmodel.Parse(e.Model); err != nil {
			return err
		}
	}
	mc, err := e.MachineConfig()
	if err != nil {
		return err
	}
	if err := mc.Validate(); err != nil {
		return err
	}
	if e.Workload.SWF == "" && e.Workload.Jobs <= 0 {
		return fmt.Errorf("config: workload needs jobs > 0 or an swf file")
	}
	if acc := e.Workload.EstimateAccuracy; acc < 0 || acc > 1 {
		return fmt.Errorf("config: estimate accuracy %g outside [0,1]", acc)
	}
	if f := e.Failures; f != nil {
		fc := sim.FailureConfig{MTBFPerNodeSec: f.MTBFPerNodeSec, RepairSec: f.RepairSec, Seed: f.Seed}
		if err := fc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MachineConfig converts the document's machine section to the
// simulator's representation.
func (e *Experiment) MachineConfig() (cluster.Config, error) {
	topo, err := cluster.ParseTopology(e.Machine.Topology)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Racks:               e.Machine.Racks,
		NodesPerRack:        e.Machine.NodesPerRack,
		CoresPerNode:        e.Machine.CoresPerNode,
		LocalMemMiB:         e.Machine.LocalGiB * 1024,
		Topology:            topo,
		PoolMiB:             e.Machine.PoolGiB * 1024,
		FabricGiBps:         e.Machine.FabricGiBps,
		TrafficGiBpsPerNode: e.Machine.TrafficGiBps,
	}, nil
}

// FailureConfig converts the failure section (nil when absent).
func (e *Experiment) FailureConfig() *sim.FailureConfig {
	if e.Failures == nil {
		return nil
	}
	return &sim.FailureConfig{
		MTBFPerNodeSec: e.Failures.MTBFPerNodeSec,
		RepairSec:      e.Failures.RepairSec,
		Seed:           e.Failures.Seed,
	}
}
