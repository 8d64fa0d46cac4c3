// Command perfbench is dismem's benchmark: three named workloads that
// measure the simulator end to end (a trace replay streamed from disk, a
// policy sweep, and what-if queries over a loopback socket), plus a
// traced mode that times every layer from outside the engine through
// transparent wrappers. See README.md for the workloads, the metrics
// and the layer map.
//
//	perfbench --workload stream --seed 1 --seconds 10 --trace 0
//	perfbench compare [-spec BENCHMARK.json] old.jsonl new.jsonl
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name: {value, unit}}}.
// With --trace 0 it holds the end-to-end metrics, with --trace 1 the
// per-layer metrics; every workload reports the same set. Figures that
// only some workloads have (a sink's bytes, a fork's cost) go on the
// line before it, {"detail":{name: {value, unit}}}. Progress notes go
// to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the run cannot be carried out at all; failed output
// checks are reported in the result instead.
var workloads = map[string]func(config) (*result, error){
	"stream": runStream,
	"sweep":  runSweep,
	"whatif": runWhatIf,
}

// nproc is the load-generation width: worker count, connection count.
var nproc = runtime.NumCPU()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
	var lines []any
	if len(res.Detail) > 0 {
		lines = append(lines, map[string]any{"detail": res.Detail})
	}
	for _, v := range append(lines, res) {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line. Detail holds the figures of
// the layers only this workload reaches; they go on a line of their
// own, so that the result line carries the same metrics on every
// workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"-"`
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, Detail: map[string]metric{}}
}

// set records a metric of the result line.
func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// detail records a figure of a layer only this workload reaches.
func (r *result) detail(name string, v float64, unit string) { r.Detail[name] = metric{v, unit} }

// check counts one attempted operation and, when ok is false, one
// failure, naming it on standard error.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// finish sets Correct from the failure count.
func (r *result) finish() *result {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// note prints a progress line on standard error.
func note(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
