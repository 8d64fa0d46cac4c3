package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain implements `perfbench compare old new`: each file holds
// the result lines of repeated runs of one workload (other lines are
// skipped), the parent's in old and the change's in new, with run i of
// one file paired with run i of the other. For every metric both sides
// report it prints the medians and quartiles and a verdict:
//
//   - gain: the change wins at least nine tenths of the pairs (ties count
//     for neither) and the medians differ by more than the old runs'
//     interquartile distance;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread exceeds the bound and not every
//     new run beats every old one;
//   - same: none of the above (metrics without a bound: no gain or loss
//     by the pair rule).
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-spec BENCHMARK.json] old.jsonl new.jsonl")
	}
	specs, err := readSpecs(*specPath)
	if err != nil {
		return err
	}
	old, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for name := range old {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no metric appears in both files")
	}
	fmt.Printf("%-30s %-6s %6s  %-34s %-34s %9s  %s\n", "metric", "unit", "pairs", "old median [q1, q3]", "new median [q1, q3]", "new wins", "verdict")
	for _, name := range names {
		o, n := old[name], cur[name]
		sp := specs[name]
		v := verdict(o.values, n.values, sp)
		pairs := min(len(o.values), len(n.values))
		fmt.Printf("%-30s %-6s %6d  %-34s %-34s %4d/%-4d  %s\n", name, o.unit, pairs,
			summary(o.values), summary(n.values), wins(o.values, n.values, sp.lowerBetter()), pairs, v)
	}
	return nil
}

// metricSpec is one metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func (s metricSpec) lowerBetter() bool { return s.Better == "lower" }

func readSpecs(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricSpec{}
	for _, s := range append(def.EndToEnd, def.PerLayer...) {
		out[s.Name] = s
	}
	return out, nil
}

// series is one metric's values across runs, in run order.
type series struct {
	unit   string
	values []float64
}

func readRuns(path string) (map[string]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if json.Unmarshal([]byte(line), &res) != nil || res.Metrics == nil {
			continue
		}
		for name, m := range res.Metrics {
			s := out[name]
			if s == nil {
				s = &series{unit: m.Unit}
				out[name] = s
			}
			s.values = append(s.values, m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return out, nil
}

func summary(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.6g", median(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

// wins counts the pairs in which the new run is strictly better.
func wins(old, cur []float64, lower bool) int {
	w := 0
	for i := 0; i < min(len(old), len(cur)); i++ {
		if better(cur[i], old[i], lower) {
			w++
		}
	}
	return w
}

func better(a, b float64, lower bool) bool {
	if lower {
		return a < b
	}
	return a > b
}

func verdict(old, cur []float64, sp metricSpec) string {
	if len(old) < 2 || len(cur) < 2 {
		return "too few runs"
	}
	if sp.Better == "" {
		return "no direction in the spec"
	}
	lower := sp.lowerBetter()
	pairs := min(len(old), len(cur))
	q1, mo, q3 := quartiles(old)
	mn := median(cur)
	spread := q3 - q1
	apart := math.Abs(mn-mo) > spread
	switch {
	case apart && better(mn, mo, lower) && 10*wins(old, cur, lower) >= 9*pairs:
		return "gain"
	case sp.Bound == nil && apart && better(mo, mn, lower) && 10*wins(cur, old, lower) >= 9*pairs:
		return "loss"
	case sp.Bound == nil:
		return "same"
	}
	bound := *sp.Bound
	worse := (mn - mo) / mo
	if !lower {
		worse = -worse
	}
	if worse > bound {
		return fmt.Sprintf("regression (%.1f%% worse, bound %.1f%%)", 100*worse, 100*bound)
	}
	if spread/mo > bound && !allBetter(old, cur, lower) {
		return "unresolved (parent spread exceeds the bound)"
	}
	return "same"
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, lower bool) bool {
	for _, n := range cur {
		for _, o := range old {
			if !better(n, o, lower) {
				return false
			}
		}
	}
	return true
}
