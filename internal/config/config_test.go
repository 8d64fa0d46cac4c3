package config

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dismem"
)

// parse registers the run flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) (*Flags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f, fs
}

// TestFlagNamesAndDefaults pins every run flag's name and default as
// the command line sees them: renaming one or moving its default
// changes what an existing dmsched or dmserve invocation runs.
func TestFlagNamesAndDefaults(t *testing.T) {
	_, fs := parse(t)
	var got []string
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name+"="+fl.DefValue) })
	want := []string{
		"cores=32", "fabric=64", "failure-seed=1", "jobs=5000", "local=64",
		"model=linear:0.5", "mtbf=0", "node-cores=0", "nodes=16", "policy=memaware",
		"pool=4096", "racks=16", "repair=7200", "scenario=", "seed=1",
		"strict-kill=false", "swf=", "topology=rack", "v=false",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run flags\n got %q\nwant %q", got, want)
	}
}

// options parses args and builds their Options, or fails the test
// unless the error names every substring in wantErr (nil = success).
func options(t *testing.T, wantErr []string, args ...string) dismem.Options {
	t.Helper()
	f, _ := parse(t, args...)
	o, err := f.Options()
	if wantErr != nil {
		if err == nil {
			t.Fatalf("Options() = %+v, want an error", o)
		}
		for _, sub := range wantErr {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("error %q does not name %s", err, sub)
			}
		}
		return o
	}
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestOptions checks the run each argument list describes, and that a
// bad scenario or failure flag is an error naming the flag: a negative
// -mtbf or -repair, and -repair or -failure-seed while -mtbf 0 leaves
// failure injection off.
func TestOptions(t *testing.T) {
	def := dismem.DefaultMachine()
	for _, c := range []struct {
		name string
		args []string
		want dismem.Options // Scenario is compared by its String
		scen string
		err  []string // substrings of the error; nil = success
	}{
		{name: "defaults", want: dismem.Options{Machine: def, Policy: "memaware", Model: "linear:0.5"}},
		{
			name: "policy, model and kill rule",
			args: []string{"-policy", "order=sjf placer=memaware cap=3", "-model", "bandwidth:1,1", "-strict-kill"},
			want: dismem.Options{Machine: def, Policy: "order=sjf placer=memaware cap=3", Model: "bandwidth:1,1", StrictKill: true},
		},
		{
			name: "scenario",
			args: []string{"-scenario", "at=3600 down rack=2; at=7200 up rack=2"},
			want: dismem.Options{Machine: def, Policy: "memaware", Model: "linear:0.5"},
			scen: "at=3600 down rack=2; at=7200 up rack=2",
		},
		{name: "bad scenario", args: []string{"-scenario", "at=3600 explode rack=2"}, err: []string{"-scenario", "explode"}},
		{name: "negative mtbf", args: []string{"-mtbf", "-5"}, err: []string{"-mtbf", "-5"}},
		{name: "negative repair", args: []string{"-mtbf", "2000000", "-repair", "-1"}, err: []string{"-repair", "-1"}},
		{name: "repair without mtbf", args: []string{"-repair", "60"}, err: []string{"-repair", "-mtbf"}},
		{name: "failure seed without mtbf", args: []string{"-mtbf", "0", "-failure-seed", "9"}, err: []string{"-failure-seed", "-mtbf"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := options(t, c.err, c.args...)
			if c.err != nil {
				return
			}
			var scen string
			if got.Scenario != nil {
				scen = got.Scenario.String()
			}
			if scen != c.scen {
				t.Errorf("scenario %q, want %q", scen, c.scen)
			}
			got.Scenario = nil
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("Options()\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestMachineConfigConversion checks the machine the flags describe:
// the GiB flags become MiB, -topology none drops the pool, and an
// unknown topology is an error naming the flag and its value.
func TestMachineConfigConversion(t *testing.T) {
	machine := func(edit func(*dismem.MachineConfig)) dismem.MachineConfig {
		mc := dismem.DefaultMachine()
		edit(&mc)
		return mc
	}
	for _, c := range []struct {
		name string
		args []string
		want dismem.MachineConfig
		err  []string // substrings of the error; nil = success
	}{
		{
			name: "defaults",
			want: machine(func(mc *dismem.MachineConfig) {
				mc.Racks, mc.NodesPerRack, mc.CoresPerNode = 16, 16, 32
				mc.LocalMemMiB, mc.Topology, mc.PoolMiB, mc.FabricGiBps = 64*1024, dismem.TopologyRack, 4096*1024, 64
			}),
		},
		{
			name: "machine flags",
			args: []string{"-racks", "2", "-nodes", "4", "-cores", "8", "-local", "32", "-pool", "512", "-fabric", "16"},
			want: machine(func(mc *dismem.MachineConfig) {
				mc.Racks, mc.NodesPerRack, mc.CoresPerNode = 2, 4, 8
				mc.LocalMemMiB, mc.PoolMiB, mc.FabricGiBps = 32*1024, 512*1024, 16
			}),
		},
		{
			name: "topology none has no pool",
			args: []string{"-topology", "none", "-pool", "512"},
			want: machine(func(mc *dismem.MachineConfig) { mc.Topology, mc.PoolMiB = dismem.TopologyNone, 0 }),
		},
		{
			name: "topology global",
			args: []string{"-topology", "global", "-pool", "8192"},
			want: machine(func(mc *dismem.MachineConfig) { mc.Topology, mc.PoolMiB = dismem.TopologyGlobal, 8192*1024 }),
		},
		{name: "unknown topology", args: []string{"-topology", "mesh"}, err: []string{"-topology", `"mesh"`}},
		{name: "empty topology", args: []string{"-topology", ""}, err: []string{"-topology", `""`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := options(t, c.err, c.args...)
			if c.err == nil && !reflect.DeepEqual(got.Machine, c.want) {
				t.Errorf("machine\n got %+v\nwant %+v", got.Machine, c.want)
			}
		})
	}
}

// TestFailureConfigConversion checks that -mtbf 0 injects no failures
// and -mtbf N gives the matching FailureConfig.
func TestFailureConfigConversion(t *testing.T) {
	if fc := options(t, nil, "-mtbf", "0").Failures; fc != nil {
		t.Fatalf("-mtbf 0 gave failures %+v, want nil", fc)
	}
	fc := options(t, nil, "-mtbf", "2000000", "-repair", "3600", "-failure-seed", "9").Failures
	if want := (dismem.FailureConfig{MTBFPerNodeSec: 2000000, RepairSec: 3600, Seed: 9}); fc == nil || *fc != want {
		t.Fatalf("failure conversion = %+v, want %+v", fc, want)
	}
}

// TestWorkload checks the materialised workload: the calibrated
// generator at the flags' size and seed, an SWF trace whose unusable
// record is skipped with a note, and the -v summary.
func TestWorkload(t *testing.T) {
	gen := func(n int, seed uint64, mc dismem.MachineConfig) *dismem.Workload {
		wl, err := dismem.GenerateWorkload(dismem.DefaultGen(n, seed, mc))
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	load := func(args ...string) (*dismem.Workload, string, string) {
		t.Helper()
		f, _ := parse(t, args...)
		o, err := f.Options()
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		wl, err := f.Workload(o.Machine, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		return wl, stdout.String(), stderr.String()
	}

	wl, stdout, stderr := load()
	if !reflect.DeepEqual(wl, gen(5000, 1, dismem.DefaultMachine())) {
		t.Error("default workload differs from DefaultGen(5000, 1, DefaultMachine())")
	}
	if stdout != "" || stderr != "" {
		t.Errorf("default workload printed %q / %q", stdout, stderr)
	}

	wl, stdout, _ = load("-jobs", "300", "-seed", "7", "-racks", "4", "-v")
	mc := dismem.DefaultMachine()
	mc.Racks = 4
	if !reflect.DeepEqual(wl, gen(300, 7, mc)) {
		t.Error("-jobs 300 -seed 7 -racks 4 differs from DefaultGen(300, 7, mc)")
	}
	if !strings.Contains(stdout, "jobs") || !strings.HasSuffix(stdout, "\n\n") {
		t.Errorf("-v printed %q, want the workload summary and a blank line", stdout)
	}

	path := filepath.Join(t.TempDir(), "trace.swf")
	trace := "1 0 -1 100 4 -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1\n" +
		"2 5 -1 0 4 -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1\n" + // zero runtime: unusable
		"3 9 -1 300 8 -1 -1 8 600 -1 1 8 0 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	wl, _, stderr = load("-swf", path, "-node-cores", "4", "-jobs", "9")
	if len(wl.Jobs) != 2 || wl.Jobs[0].ID != 1 || wl.Jobs[1].ID != 3 {
		t.Fatalf("SWF workload = %+v, want jobs 1 and 3", wl.Jobs)
	}
	if wl.Jobs[0].Nodes != 1 || wl.Jobs[1].Nodes != 2 {
		t.Errorf("-node-cores 4 gave %d and %d nodes, want 1 and 2", wl.Jobs[0].Nodes, wl.Jobs[1].Nodes)
	}
	if want := "note: skipped 1 unusable SWF records\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}

	f, _ := parse(t, "-swf", filepath.Join(t.TempDir(), "missing.swf"))
	if _, err := f.Workload(dismem.DefaultMachine(), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("a missing -swf file loaded")
	}
}

// TestGiven lists the run flags set on the command line, -v aside: the
// flags a resumed run must refuse.
func TestGiven(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-v"}, nil},
		{[]string{"-v", "-seed", "3", "-policy", "easy-local", "-mtbf", "0"}, []string{"mtbf", "policy", "seed"}},
	} {
		f, _ := parse(t, c.args...)
		if got := f.Given(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Given() after %q = %q, want %q", c.args, got, c.want)
		}
	}
}
