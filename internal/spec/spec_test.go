package spec

import (
	"strings"
	"testing"

	"dismem/internal/core"
	"dismem/internal/sched"
)

func TestAliasesParse(t *testing.T) {
	for _, name := range Aliases() {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("alias %q reports name %q", name, s.Name())
		}
		canonical, ok := AliasSpec(name)
		if !ok {
			t.Fatalf("AliasSpec(%q) missing", name)
		}
		if _, err := Parse(canonical); err != nil {
			t.Errorf("canonical spec %q of %q does not parse: %v", canonical, name, err)
		}
	}
}

// TestAliasExpansionsMatchLegacyConstructors pins the alias expansions
// to the retired hand-written constructors: chassis knobs and placer
// configuration must come out exactly as PR 0 built them.
func TestAliasExpansionsMatchLegacyConstructors(t *testing.T) {
	get := func(name string) *sched.Batch {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		return s
	}

	b := get("memaware-nocap")
	p, ok := b.Placer.(*core.MemAware)
	if !ok {
		t.Fatalf("memaware-nocap placer is %T", b.Placer)
	}
	if p.SlowdownCap != 0 || !p.Balance || !p.Shape {
		t.Errorf("memaware-nocap placer = cap %g bal %v shape %v, want 0 true true",
			p.SlowdownCap, p.Balance, p.Shape)
	}

	ref := core.New()
	p = get("memaware").Placer.(*core.MemAware)
	if p.SlowdownCap != ref.SlowdownCap || p.Balance != ref.Balance || p.Shape != ref.Shape {
		t.Errorf("memaware placer differs from core.New(): %+v", p)
	}

	if b := get("memaware-patient"); b.SpillPatience != 1800 {
		t.Errorf("memaware-patient patience = %d, want 1800", b.SpillPatience)
	}
	if b := get("cons-oblivious"); b.Backfill != sched.BackfillConservative {
		t.Errorf("cons-oblivious backfill = %v", b.Backfill)
	}
	if b := get("fcfs-local"); b.Backfill != sched.BackfillNone {
		t.Errorf("fcfs-local backfill = %v", b.Backfill)
	}
	if _, ok := get("sjf-local").Order.(sched.SJF); !ok {
		t.Error("sjf-local order is not SJF")
	}
	if _, ok := get("easy-local").Placer.(*sched.LocalOnly); !ok {
		t.Error("easy-local placer is not LocalOnly")
	}
	if _, ok := get("easy-oblivious").Placer.(*sched.Spill); !ok {
		t.Error("easy-oblivious placer is not Spill")
	}
}

func TestParseFullSpec(t *testing.T) {
	b, err := Parse("order=sjf backfill=cons placer=memaware cap=3 balance=off shape=on patience=1800 maxscan=64 maxres=32 maxperuser=4 name=mypolicy")
	if err != nil {
		t.Fatal(err)
	}
	if b.PolicyName != "mypolicy" || b.Name() != "mypolicy" {
		t.Errorf("name = %q / %q", b.PolicyName, b.Name())
	}
	if _, ok := b.Order.(sched.SJF); !ok {
		t.Errorf("order = %T", b.Order)
	}
	if b.Backfill != sched.BackfillConservative {
		t.Errorf("backfill = %v", b.Backfill)
	}
	if b.SpillPatience != 1800 || b.MaxBackfillScan != 64 || b.MaxReservations != 32 || b.MaxPerUser != 4 {
		t.Errorf("knobs = %+v", b)
	}
	p := b.Placer.(*core.MemAware)
	if p.SlowdownCap != 3 || p.Balance || !p.Shape {
		t.Errorf("placer = cap %g bal %v shape %v", p.SlowdownCap, p.Balance, p.Shape)
	}
}

func TestParseDefaults(t *testing.T) {
	// A single term fills the rest with the paper's policy.
	b, err := Parse("cap=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Order.(sched.FCFS); !ok {
		t.Errorf("default order = %T", b.Order)
	}
	if b.Backfill != sched.BackfillEASY {
		t.Errorf("default backfill = %v", b.Backfill)
	}
	if p := b.Placer.(*core.MemAware); p.SlowdownCap != 2 {
		t.Errorf("cap = %g", p.SlowdownCap)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty"},
		{"   ", "empty"},
		{"bogus", "unknown policy"},
		{"order", "unknown policy"}, // no '=': treated as an alias name
		{"order=", "malformed"},
		{"=easy", "malformed"},
		{"order=lifo", "unknown order"},
		{"backfill=sometimes", "unknown backfill"},
		{"placer=teleport", `unknown placer "teleport" (known: [local memaware spill])`},
		{"flavor=vanilla", "unknown term"},
		{"order=fcfs order=sjf", "duplicate"},
		{"cap=-1", "non-negative"},
		{"cap=0.5", "admits nothing"},
		{"cap=many", "non-negative"},
		{"cap=nan", "non-negative"},
		{"cap=+inf", "non-negative"},
		{"balance=maybe", "boolean"},
		{"shape=2", "boolean"},
		{"patience=-5", "non-negative"},
		{"patience=1.5", "non-negative"},
		{"maxscan=-1", "non-negative"},
		{"placer=local cap=2", `placer "local" does not accept cap=`},
		{"placer=spill balance=on", `placer "spill" does not accept balance=`},
		{"placer=spill shape=off", `placer "spill" does not accept shape=`},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

func TestParseReturnsFreshInstances(t *testing.T) {
	a, _ := Parse("memaware")
	b, _ := Parse("memaware")
	if a == b || a.Placer == b.Placer {
		t.Fatal("Parse returned shared scheduler state")
	}
}

// FuzzParse feeds arbitrary strings to the one policy entry point. The
// invariants: Parse never panics, every error carries the "spec: "
// prefix, and an accepted spec yields a complete scheduler that a
// second Parse rebuilds, as a new instance under the same name. Every
// alias and its canonical expansion seed the corpus here; the committed
// corpus (testdata/fuzz/FuzzParse) adds malformed and duplicate terms.
func FuzzParse(f *testing.F) {
	for _, name := range Aliases() {
		canonical, _ := AliasSpec(name)
		f.Add(name)
		f.Add(canonical)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := Parse(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "spec: ") {
				t.Fatalf("Parse(%q) error %q lacks the spec: prefix", s, err)
			}
			return
		}
		if b.Order == nil || b.Placer == nil {
			t.Fatalf("Parse(%q) = order %v, placer %v", s, b.Order, b.Placer)
		}
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) accepted once, then failed: %v", s, err)
		}
		if again == b || again.Name() != b.Name() {
			t.Fatalf("Parse(%q) twice: %p %q, then %p %q", s, b, b.Name(), again, again.Name())
		}
	})
}
