package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dismem"
	"dismem/internal/sweep"
)

// The sweep workload runs the paper's Table 2 policy comparison (eight
// cells on the stressed pool machine, conservative backfill included)
// through sweep.Run, once serially and once on nproc workers. Table 2
// pins its workload seeds to 1..sweepSeeds, so the --seed argument does
// not change this workload's inputs.
const (
	sweepExperiment = "table2"
	sweepJobs       = 2000
	sweepSeeds      = 2
)

func sweepOptions(workers int, unitDone func()) sweep.Options {
	return sweep.Options{Jobs: sweepJobs, Seeds: sweepSeeds, Workers: workers, UnitDone: unitDone}
}

// sweepRun is one timed sweep: its wall time in seconds, its CSV, each
// unit's completion time since the start (sorted), and the heap
// allocations it made.
type sweepRun struct {
	wall   float64
	csv    string
	done   []float64
	allocs float64
}

// jobs is the number of jobs the sweep simulated.
func (s sweepRun) jobs() float64 { return float64(len(s.done) * sweepJobs) }

// timedSweep runs the experiment on workers workers.
func timedSweep(workers int) (sweepRun, error) {
	var s sweepRun
	var mu sync.Mutex
	m0 := mallocs()
	start := time.Now()
	tables, err := sweep.Run(sweepExperiment, sweepOptions(workers, func() {
		mu.Lock()
		s.done = append(s.done, time.Since(start).Seconds())
		mu.Unlock()
	}))
	s.wall = time.Since(start).Seconds()
	s.allocs = float64(mallocs() - m0)
	if err != nil {
		return s, err
	}
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.CSV())
	}
	s.csv = b.String()
	sort.Float64s(s.done)
	return s, nil
}

// unitDurations turns sorted unit completion times into unit durations.
// Cells run one after another and each cell's units start together at
// its barrier when workers >= units per cell, so a unit's duration is
// its completion time minus its cell's start, the previous cell's last
// completion. With one worker, units run back to back.
func unitDurations(done []float64, workers int) []float64 {
	perCell := 1
	if workers >= sweepSeeds {
		perCell = sweepSeeds
	}
	out := make([]float64, len(done))
	cellStart := 0.0
	for i, t := range done {
		out[i] = t - cellStart
		if (i+1)%perCell == 0 {
			cellStart = t
		}
	}
	return out
}

func runSweep(c config) (*result, error) {
	r := newResult()
	mc := dismem.DefaultMachine()
	setup := &setupSampler{setup: func() error {
		for s := 1; s <= sweepSeeds; s++ {
			if _, err := dismem.GenerateWorkload(dismem.DefaultGen(sweepJobs, uint64(s), mc)); err != nil {
				return err
			}
		}
		return nil
	}}
	if err := setup.sample(); err != nil {
		return nil, err
	}
	// Warm the process-wide workload cache through a cell that stops at
	// its first sample, so no timed sweep pays for generation.
	warm := sweep.Cell{Machine: mc, Policy: "memaware", StopWhen: func(dismem.Sample) bool { return true }, SampleEvery: 1}
	if _, err := warm.Run(sweepOptions(1, nil)); err != nil {
		return nil, err
	}
	note("sweep: %s, %d jobs x %d seeds, workers 1 and %d", sweepExperiment, sweepJobs, sweepSeeds, nproc)
	if c.trace {
		if err := sweepLayers(r); err != nil {
			return nil, err
		}
		return r.finish(), nil
	}
	var ref string
	var par, allocs, eff []float64
	jobs := 0.0
	err := repeatFor(c.seconds, 1, func() error {
		serial, err := timedSweep(1)
		if err != nil {
			return err
		}
		if ref == "" {
			ref = serial.csv
		}
		r.check(serial.csv == ref, "serial sweep CSV differs from the first serial sweep's")
		s, err := timedSweep(nproc)
		if err != nil {
			return err
		}
		r.check(s.csv == serial.csv, "sweep CSV at %d workers differs from the serial one", nproc)
		jobs = s.jobs()
		par = append(par, s.wall)
		allocs = append(allocs, s.allocs/jobs)
		eff = append(eff, serial.wall/(float64(nproc)*s.wall))
		return setup.sampleAfter(time.Duration((serial.wall + s.wall) * float64(time.Second)))
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup.median(), "s")
	r.set("latency_ms", median(par)*1e3, "ms")
	r.set("ops_per_s", jobs/median(par), "1/s")
	r.set("allocs_per_op", median(allocs), "count")
	r.detail("sweep_efficiency", median(eff), "ratio")
	return r.finish(), nil
}

// sweepLayers is the traced sweep run: the serial and the parallel sweep
// with unit timing, then the same Table 2 cells rebuilt with wrapped
// schedulers and run on the same workers. The wrapped rows must equal
// the untraced table's.
func sweepLayers(r *result) error {
	serial, err := timedSweep(1)
	if err != nil {
		return err
	}
	s, err := timedSweep(nproc)
	if err != nil {
		return err
	}
	r.check(s.csv == serial.csv, "sweep CSV at %d workers differs from the serial one", nproc)
	units := unitDurations(s.done, nproc)
	busy := 0.0
	for _, u := range units {
		busy += u
	}
	r.detail("sweep.units", float64(len(units)), "count")
	r.detail("sweep.unit_s_max", maxOf(units), "s")
	r.detail("sweep.busy_ratio", busy/(float64(nproc)*s.wall), "ratio")
	// The budget models the parallel sweep as its units, each costing
	// the serial mean, spread perfectly over the workers; the residual
	// is barrier idling plus contention between workers.
	setBudget(r, serial.wall/float64(len(serial.done))*float64(len(units))/float64(nproc), s.wall)

	var ts tallies
	start := time.Now()
	rows, err := table2Rows(func(policy string, mc dismem.MachineConfig) func() dismem.Scheduler {
		return func() dismem.Scheduler {
			s, err := tappedScheduler(policy, ts.add(mc))
			if err != nil {
				panic(err) // the table's policies are fixed names; the sweep turns this into an error
			}
			return s
		}
	})
	traced := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	r.check(strings.HasSuffix(serial.csv, rows), "traced Table 2 rows differ from the untraced table")
	r.set("bench.trace_overhead_ratio", traced/s.wall, "ratio")
	_, err = engineLayers(r, ts.sum(), len(units)*sweepJobs)
	return err
}

// table2Rows runs the Table 2 cells, each with the scheduler factory
// sched(policy, machine), on nproc workers and renders their rows the
// way sweep's Table 2 does, so they compare byte for byte with its CSV.
func table2Rows(sched func(policy string, mc dismem.MachineConfig) func() dismem.Scheduler) (string, error) {
	const gib = 1024
	stressed := dismem.DefaultMachine()
	stressed.LocalMemMiB = 64 * gib
	stressed.Topology = dismem.TopologyRack
	stressed.PoolMiB = 2048 * gib
	stressed.FabricGiBps = 8
	rows := []struct {
		label, policy string
		machine       dismem.MachineConfig
	}{
		{"easy-local @256GiB", "easy-local", dismem.BaselineMachine(256 * gib)},
		{"fcfs-local", "fcfs-local", stressed},
		{"easy-local", "easy-local", stressed},
		{"cons-local", "cons-local", stressed},
		{"easy-oblivious", "easy-oblivious", stressed},
		{"memaware", "memaware", stressed},
		{"memaware-cons", "memaware-cons", stressed},
		{"memaware-patient", "memaware-patient", stressed},
	}
	var b strings.Builder
	for _, row := range rows {
		cell := sweep.Cell{Machine: row.machine, Scheduler: sched(row.policy, row.machine), Model: "bandwidth:1,1"}
		a, err := cell.Run(sweepOptions(nproc, nil))
		if err != nil {
			return "", fmt.Errorf("cell %s: %w", row.label, err)
		}
		fmt.Fprintf(&b, "%s,%.0f,%.0f,%.1f,%.2f,%.1f,%.1f%%,%.2f,%.1f%%,%.1f%%,%.2f\n",
			row.label, a.MeanWait, a.P95Wait, a.MeanBSld, a.NodeUtil, a.Throughput,
			100*a.RemoteFrac, a.MeanDilRemote, 100*a.KilledFrac, 100*a.RejectedFrac, a.JainWait)
	}
	return b.String(), nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
