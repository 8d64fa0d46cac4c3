package cluster

import (
	"fmt"
	"strings"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := BaselineConfig(256 * 1024).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero racks", func(c *Config) { c.Racks = 0 }},
		{"zero nodes", func(c *Config) { c.NodesPerRack = 0 }},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"negative local", func(c *Config) { c.LocalMemMiB = -1 }},
		{"negative pool", func(c *Config) { c.PoolMiB = -1 }},
		{"zero fabric", func(c *Config) { c.FabricGiBps = 0 }},
		{"negative traffic", func(c *Config) { c.TrafficGiBpsPerNode = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	// Pool fields are ignored under TopologyNone.
	cfg := BaselineConfig(1024)
	cfg.FabricGiBps = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("TopologyNone must ignore fabric: %v", err)
	}
}

func TestConfigIsZero(t *testing.T) {
	if !(Config{}).IsZero() {
		t.Fatal("zero value not IsZero")
	}
	// A partially filled config is not "no configuration": it must hit
	// Validate, not be silently swapped for the default machine.
	for _, cfg := range []Config{
		{PoolMiB: 4096},
		{Racks: 16},
		{TrafficGiBpsPerNode: 2},
		DefaultConfig(),
	} {
		if cfg.IsZero() {
			t.Errorf("non-zero config %+v reported IsZero", cfg)
		}
	}
}

func TestConfigTotals(t *testing.T) {
	cfg := Config{
		Racks: 4, NodesPerRack: 8, CoresPerNode: 16, LocalMemMiB: 1000,
		Topology: TopologyRack, PoolMiB: 5000, FabricGiBps: 10,
	}
	if got := cfg.TotalNodes(); got != 32 {
		t.Fatalf("TotalNodes = %d, want 32", got)
	}
	if got := cfg.TotalCores(); got != 512 {
		t.Fatalf("TotalCores = %d, want 512", got)
	}
	if got := cfg.TotalLocalMiB(); got != 32000 {
		t.Fatalf("TotalLocalMiB = %d, want 32000", got)
	}
	if got := cfg.TotalPoolMiB(); got != 20000 {
		t.Fatalf("TotalPoolMiB(rack) = %d, want 20000", got)
	}
	cfg.Topology = TopologyGlobal
	if got := cfg.TotalPoolMiB(); got != 5000 {
		t.Fatalf("TotalPoolMiB(global) = %d, want 5000", got)
	}
	cfg.Topology = TopologyNone
	if got := cfg.TotalPoolMiB(); got != 0 {
		t.Fatalf("TotalPoolMiB(none) = %d, want 0", got)
	}
	if got := cfg.TotalMemMiB(); got != 32000 {
		t.Fatalf("TotalMemMiB = %d, want 32000", got)
	}
}

func TestParseTopology(t *testing.T) {
	for in, want := range map[string]Topology{
		"none": TopologyNone, "rack": TopologyRack, "global": TopologyGlobal,
	} {
		got, err := ParseTopology(in)
		if err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"mesh", ""} {
		if _, err := ParseTopology(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("ParseTopology(%q) = %v; want an error naming it", bad, err)
		}
	}
}

func TestTopologyString(t *testing.T) {
	for tp, want := range map[Topology]string{
		TopologyNone: "none", TopologyRack: "rack", TopologyGlobal: "global",
		Topology(9): "topology(9)",
	} {
		if got := tp.String(); got != want {
			t.Errorf("Topology(%d).String() = %q, want %q", int(tp), got, want)
		}
	}
}
