// Package config is the command line's one description of a run:
// it registers the flags that name a simulation — policy, memory
// model, machine, workload, scenario and failure injection — once for
// every tool that starts one (dmsched, dmserve), and turns them into
// dismem.Options and the workload they describe.
package config

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/workload"
)

// Flags holds the parsed run flags. Register defines them.
type Flags struct {
	Policy, Scenario, Model, Topology string
	Racks, Nodes, Cores               int
	LocalGiB, PoolGiB                 int64
	Fabric                            float64
	Jobs                              int
	Seed                              uint64
	SWF                               string
	NodeCores                         int
	StrictKill, Verbose               bool
	MTBF, Repair                      int64
	FailureSeed                       uint64

	own, fs *flag.FlagSet
}

// Register defines the run flags on fs and returns their values,
// which fs.Parse fills in.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{own: flag.NewFlagSet("run", flag.ContinueOnError), fs: fs}
	o := f.own
	o.StringVar(&f.Policy, "policy", "memaware", `scheduling policy: a name (`+strings.Join(dismem.Policies(), ", ")+`) or a spec, e.g. "order=sjf placer=memaware cap=3"`)
	o.StringVar(&f.Scenario, "scenario", "", `scenario timeline, e.g. "at=3600 down rack=2; at=7200 up rack=2; from=0 period=86400 amp=0.5 diurnal"`)
	o.StringVar(&f.Model, "model", "linear:0.5", "memory model spec (linear:b | step:b0,b | bandwidth:b,g)")
	o.StringVar(&f.Topology, "topology", "rack", "pool topology: none | rack | global")
	o.IntVar(&f.Racks, "racks", 16, "racks")
	o.IntVar(&f.Nodes, "nodes", 16, "nodes per rack")
	o.IntVar(&f.Cores, "cores", 32, "cores per node")
	o.Int64Var(&f.LocalGiB, "local", 64, "local DRAM per node (GiB)")
	o.Int64Var(&f.PoolGiB, "pool", 4096, "pool capacity (GiB; per rack, or total for -topology global)")
	o.Float64Var(&f.Fabric, "fabric", 64, "fabric bandwidth per pool (GiB/s)")
	o.IntVar(&f.Jobs, "jobs", 5000, "synthetic workload size")
	o.Uint64Var(&f.Seed, "seed", 1, "synthetic workload seed")
	o.StringVar(&f.SWF, "swf", "", "SWF trace file (overrides synthetic workload)")
	o.IntVar(&f.NodeCores, "node-cores", 0, "SWF import: processors per node (0 = processors are nodes)")
	o.BoolVar(&f.StrictKill, "strict-kill", false, "kill at the raw user estimate (no dilation extension)")
	o.BoolVar(&f.Verbose, "v", false, "also print workload summary")
	o.Int64Var(&f.MTBF, "mtbf", 0, "failure injection: mean time between failures per node (seconds; 0 = off; a dmserve what-if that reseeds failures needs it)")
	o.Int64Var(&f.Repair, "repair", 7200, "failure injection: node repair time (seconds)")
	o.Uint64Var(&f.FailureSeed, "failure-seed", 1, "failure injection RNG seed")
	o.VisitAll(func(fl *flag.Flag) { fs.Var(fl.Value, fl.Name, fl.Usage) })
	return f
}

// Given returns the names of the run flags other than -v that were set
// on the command line, in lexical order: the flags a run resumed from
// a checkpoint, which carries its own description, cannot honour.
func (f *Flags) Given() []string {
	var names []string
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name != "v" && f.own.Lookup(fl.Name) != nil {
			names = append(names, fl.Name)
		}
	})
	return names
}

// Options builds the run the flags describe, all but its workload (see
// Workload): the machine, policy, model, kill rule, scenario and
// failure injection. -mtbf 0 turns failure injection off, and then
// -repair and -failure-seed are errors, not silently ignored.
func (f *Flags) Options() (dismem.Options, error) {
	topo, err := cluster.ParseTopology(f.Topology)
	if err != nil {
		return dismem.Options{}, fmt.Errorf("-topology: %w", err)
	}
	mc := dismem.DefaultMachine()
	mc.Racks, mc.NodesPerRack, mc.CoresPerNode = f.Racks, f.Nodes, f.Cores
	mc.LocalMemMiB = f.LocalGiB * 1024
	mc.Topology = topo
	mc.PoolMiB = f.PoolGiB * 1024
	if topo == dismem.TopologyNone {
		mc.PoolMiB = 0
	}
	mc.FabricGiBps = f.Fabric
	o := dismem.Options{Machine: mc, Policy: f.Policy, Model: f.Model, StrictKill: f.StrictKill}
	if f.Scenario != "" {
		if o.Scenario, err = dismem.ParseScenario(f.Scenario); err != nil {
			return dismem.Options{}, fmt.Errorf("-scenario: %w", err)
		}
	}
	if f.MTBF == 0 {
		for _, name := range f.Given() {
			if name == "repair" || name == "failure-seed" {
				return dismem.Options{}, fmt.Errorf("-%s needs -mtbf: failure injection is off at -mtbf 0", name)
			}
		}
		return o, nil
	}
	o.Failures = &dismem.FailureConfig{MTBFPerNodeSec: f.MTBF, RepairSec: f.Repair, Seed: f.FailureSeed}
	if err := o.Failures.Validate(); err != nil {
		return dismem.Options{}, fmt.Errorf("failure injection (-mtbf %d, -repair %d): %w", f.MTBF, f.Repair, err)
	}
	return o, nil
}

// SWFOptions is how an -swf trace imports onto machine mc.
func (f *Flags) SWFOptions(mc dismem.MachineConfig) dismem.SWFReadOptions {
	return dismem.SWFReadOptions{NodeCores: f.NodeCores, DefaultMemPerNode: mc.LocalMemMiB / 2}
}

// Workload materialises the workload for machine mc: the -swf trace,
// with a note on stderr when it skips unusable records, or the
// synthetic generator's -jobs and -seed. With -v it then prints the
// workload summary on stdout.
func (f *Flags) Workload(mc dismem.MachineConfig, stdout, stderr io.Writer) (*dismem.Workload, error) {
	var wl *dismem.Workload
	if f.SWF != "" {
		r, err := os.Open(f.SWF)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		var skipped int
		if wl, skipped, err = workload.ReadSWF(r, f.SWFOptions(mc)); err != nil {
			return nil, fmt.Errorf("reading %s: %w", f.SWF, err)
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "note: skipped %d unusable SWF records\n", skipped)
		}
	} else {
		var err error
		if wl, err = dismem.GenerateWorkload(dismem.DefaultGen(f.Jobs, f.Seed, mc)); err != nil {
			return nil, err
		}
	}
	if f.Verbose {
		fmt.Fprint(stdout, workload.Summarize(wl, mc.LocalMemMiB))
		fmt.Fprintln(stdout)
	}
	return wl, nil
}
