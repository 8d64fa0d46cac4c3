// Package spec implements the composable policy grammar of the public
// API: a scheduling policy is described by a short string of
// space-separated key=value terms,
//
//	"order=sjf backfill=easy placer=memaware cap=3 patience=1800"
//
// which Parse compiles into a sched.Batch chassis. The grammar spans
// the full cross-product of queue orders, backfill disciplines,
// placement policies and chassis knobs, so scenario sweeps are no
// longer limited to a hand-enumerated policy list. Every legacy policy
// name of the evaluation ("memaware", "easy-local", ...) is kept as an
// alias that expands to its canonical spec and resolves through the
// same parser.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dismem/internal/core"
	"dismem/internal/sched"
)

// placerConfig carries the spec terms addressed to the placement
// policy. Pointer fields distinguish "not specified" from an explicit
// zero (cap=0 disables the memaware slowdown cap).
type placerConfig struct {
	Cap     *float64 // cap=<float>: max admissible predicted dilation
	Balance *bool    // balance=on|off: pool-pressure balancing
	Shape   *bool    // shape=on|off: cross-rack traffic shaping
}

// empty reports whether no placer term was given.
func (pc placerConfig) empty() bool {
	return pc.Cap == nil && pc.Balance == nil && pc.Shape == nil
}

// firstSet names one set placer term, for error messages about placers
// that take no parameters.
func (pc placerConfig) firstSet() string {
	switch {
	case pc.Cap != nil:
		return "cap"
	case pc.Balance != nil:
		return "balance"
	default:
		return "shape"
	}
}

// aliases maps every legacy policy name to its canonical spec. The
// expansions reproduce the retired hand-written constructors exactly,
// so legacy names stay bit-identical through the parser.
var aliases = map[string]string{
	// Conventional baselines: local DRAM only.
	"fcfs-local": "order=fcfs backfill=none placer=local",
	"easy-local": "order=fcfs backfill=easy placer=local",
	"cons-local": "order=fcfs backfill=conservative placer=local",
	"sjf-local":  "order=sjf backfill=easy placer=local",
	"wfp-local":  "order=wfp backfill=easy placer=local",
	// Disaggregation-oblivious spill: uses the pool, ignores slowdown.
	"easy-oblivious": "order=fcfs backfill=easy placer=spill",
	"cons-oblivious": "order=fcfs backfill=conservative placer=spill",
	// The paper's contribution and its ablations.
	"memaware":         "order=fcfs backfill=easy placer=memaware",
	"memaware-cons":    "order=fcfs backfill=conservative placer=memaware",
	"memaware-nocap":   "order=fcfs backfill=easy placer=memaware cap=0",
	"memaware-nobal":   "order=fcfs backfill=easy placer=memaware balance=off",
	"memaware-noshape": "order=fcfs backfill=easy placer=memaware shape=off",
	// Patience: prefer waiting up to 30 min for local capacity before
	// accepting a dilated remote placement.
	"memaware-patient": "order=fcfs backfill=easy placer=memaware patience=1800",
}

// Aliases returns the legacy policy names, sorted.
func Aliases() []string {
	out := make([]string, 0, len(aliases))
	for name := range aliases {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AliasSpec returns the canonical spec a legacy policy name expands to.
func AliasSpec(name string) (string, bool) {
	s, ok := aliases[name]
	return s, ok
}

// orders maps order=<value> to queue-ordering policies.
var orders = map[string]func() sched.Order{
	"fcfs":    func() sched.Order { return sched.FCFS{} },
	"sjf":     func() sched.Order { return sched.SJF{} },
	"wfp":     func() sched.Order { return sched.WFP{} },
	"largest": func() sched.Order { return sched.LargestFirst{} },
}

// backfills maps backfill=<value> to disciplines.
var backfills = map[string]sched.BackfillMode{
	"none":         sched.BackfillNone,
	"easy":         sched.BackfillEASY,
	"conservative": sched.BackfillConservative,
	"cons":         sched.BackfillConservative,
}

// Parse compiles a policy spec into a fresh scheduler. A bare legacy
// name (no '=') expands through its alias first and keeps the legacy
// name as the scheduler's reported name. Unspecified terms default to
// the paper's configuration: order=fcfs backfill=easy placer=memaware.
func Parse(s string) (*sched.Batch, error) {
	in := strings.TrimSpace(s)
	if in == "" {
		return nil, fmt.Errorf("spec: empty policy spec")
	}
	name := ""
	if !strings.Contains(in, "=") {
		expanded, ok := aliases[in]
		if !ok {
			return nil, fmt.Errorf("spec: unknown policy %q (legacy names: %v; or give key=value terms)",
				in, Aliases())
		}
		name, in = in, expanded
	}

	b := &sched.Batch{PolicyName: name, Backfill: sched.BackfillEASY}
	orderName, placerName := "fcfs", "memaware"
	var pc placerConfig
	seen := make(map[string]bool)
	for _, tok := range strings.Fields(in) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("spec: malformed term %q (want key=value)", tok)
		}
		if seen[k] {
			return nil, fmt.Errorf("spec: duplicate term %q", k)
		}
		seen[k] = true
		switch k {
		case "order":
			if _, ok := orders[v]; !ok {
				return nil, fmt.Errorf("spec: unknown order %q (known: %v)", v, keys(orders))
			}
			orderName = v
		case "backfill":
			mode, ok := backfills[v]
			if !ok {
				return nil, fmt.Errorf("spec: unknown backfill %q (known: %v)", v, keys(backfills))
			}
			b.Backfill = mode
		case "placer":
			if v != "local" && v != "memaware" && v != "spill" {
				return nil, fmt.Errorf("spec: unknown placer %q (known: [local memaware spill])", v)
			}
			placerName = v
		case "cap":
			f, err := parseFloat(k, v)
			if err != nil {
				return nil, err
			}
			if f != 0 && f < 1 {
				return nil, fmt.Errorf("spec: cap %v < 1 admits nothing (use cap=0 to disable capping)", v)
			}
			pc.Cap = &f
		case "balance":
			bv, err := parseBool(k, v)
			if err != nil {
				return nil, err
			}
			pc.Balance = &bv
		case "shape":
			bv, err := parseBool(k, v)
			if err != nil {
				return nil, err
			}
			pc.Shape = &bv
		case "patience":
			n, err := parseNonNegInt(k, v)
			if err != nil {
				return nil, err
			}
			b.SpillPatience = n
		case "maxscan":
			n, err := parseNonNegInt(k, v)
			if err != nil {
				return nil, err
			}
			b.MaxBackfillScan = int(n)
		case "maxres":
			n, err := parseNonNegInt(k, v)
			if err != nil {
				return nil, err
			}
			b.MaxReservations = int(n)
		case "maxperuser":
			n, err := parseNonNegInt(k, v)
			if err != nil {
				return nil, err
			}
			b.MaxPerUser = int(n)
		case "name":
			b.PolicyName = v
		default:
			return nil, fmt.Errorf("spec: unknown term %q (known: order backfill placer cap balance shape patience maxscan maxres maxperuser name)", k)
		}
	}

	b.Order = orders[orderName]()
	switch {
	case placerName == "memaware":
		p := core.New()
		if pc.Cap != nil {
			p.SlowdownCap = *pc.Cap
		}
		if pc.Balance != nil {
			p.Balance = *pc.Balance
		}
		if pc.Shape != nil {
			p.Shape = *pc.Shape
		}
		b.Placer = p
	case !pc.empty():
		return nil, fmt.Errorf("spec: placer %q does not accept %s=", placerName, pc.firstSet())
	case placerName == "local":
		b.Placer = &sched.LocalOnly{}
	default:
		b.Placer = &sched.Spill{}
	}
	return b, nil
}

// parseFloat parses a finite non-negative float term.
func parseFloat(k, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("spec: %s=%s is not a finite non-negative number", k, v)
	}
	return f, nil
}

// parseBool parses an on/off term.
func parseBool(k, v string) (bool, error) {
	switch v {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("spec: %s=%s is not a boolean (use on/off)", k, v)
}

// parseNonNegInt parses a non-negative integer term.
func parseNonNegInt(k, v string) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("spec: %s=%s is not a non-negative integer", k, v)
	}
	return n, nil
}

// keys returns a map's keys, sorted, for error messages.
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
