// Command dmsweep regenerates the paper's evaluation tables and
// figures. Each experiment is a parameter sweep over the simulator; see
// DESIGN.md §4 for the experiment inventory and EXPERIMENTS.md for the
// recorded results.
//
// With -store, every completed (cell, seed) simulation unit is
// archived to a queryable run store (inspect with dmstore) at its
// cell's barrier. The store is also the resume journal: sweeps are
// crash-safe, SIGINT/SIGTERM interrupt them cleanly (exit status 3),
// and re-running with -store and -resume serves the archived units
// instead of re-running them and produces output identical to an
// uninterrupted run. A hard crash re-runs at most the cell in flight.
//
// Usage:
//
//	dmsweep -exp fig3                 # one experiment
//	dmsweep -exp all -jobs 8000       # the full evaluation
//	dmsweep -exp table2 -csv          # machine-readable output
//	dmsweep -exp all -store runs          # archive progress
//	dmsweep -exp all -store runs -resume  # continue after a crash
//
// With -metrics-addr, the sweep serves its progress as a Prometheus
// text-format /metrics endpoint while running:
//
//	dmsweep -exp all -store runs -metrics-addr :9090
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"dismem/internal/profiling"
	"dismem/internal/runstore"
	"dismem/internal/sweep"
	"dismem/internal/telemetry"
)

// exitInterrupted is the distinct status for a resumable interruption
// (signal mid-sweep), as opposed to 1 (failure) and 2 (bad usage).
const exitInterrupted = 3

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all': "+strings.Join(sweep.IDs(), ", "))
		jobs     = flag.Int("jobs", 0, "jobs per simulation (0 = experiment default)")
		seeds    = flag.Int("seeds", 0, "seeds per cell (0 = experiment default)")
		workers  = flag.Int("workers", 0, "concurrent simulation units (0 = GOMAXPROCS)")
		resume   = flag.Bool("resume", false, "serve units already archived in the -store run store instead of re-running them (continue an interrupted sweep)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot     = flag.Bool("plot", false, "also render figure sweeps as ASCII charts")
		storeDir = flag.String("store", "", "archive every completed unit's report to a run store in this directory (query with dmstore)")
		metrAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) with sweep progress on this address while the sweep runs")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile (pprof allocs: cumulative sites plus post-GC in-use heap) to this file at exit")
	)
	flag.Parse()

	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "dmsweep: -resume requires -store")
		os.Exit(2)
	}
	stop, perr := profiling.Start(*cpuProf, *memProf)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "dmsweep:", perr)
		os.Exit(2)
	}
	stopProfiling = stop
	defer flushProfiles()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	o := sweep.Options{Jobs: *jobs, Seeds: *seeds, Workers: *workers, Ctx: ctx, Resume: *resume}
	if *storeDir != "" {
		store, err := runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmsweep:", err)
			os.Exit(2)
		}
		defer store.Close()
		if *resume && store.Len() > 0 {
			fmt.Fprintf(os.Stderr, "dmsweep: resuming; %d runs archived in %s\n", store.Len(), *storeDir)
		}
		o.Store = store
	}
	var unitsDone atomic.Int64
	o.UnitDone = func() { unitsDone.Add(1) }
	if *metrAddr != "" {
		bound, err := telemetry.ListenAndServe(*metrAddr, telemetry.SourceFunc(func() []telemetry.Metric {
			return []telemetry.Metric{{
				Name:  "dmsweep_units_done_total",
				Help:  "simulation units completed (including units served from the run store on -resume)",
				Type:  telemetry.Counter,
				Value: float64(unitsDone.Load()),
			}}
		}))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmsweep: -metrics-addr:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "dmsweep: serving http://%s/metrics\n", bound)
	}

	var tables []*sweep.Table
	var err error
	if *exp == "all" {
		tables, err = sweep.RunAll(o)
	} else {
		tables, err = sweep.Run(*exp, o)
	}
	if err != nil {
		if errors.Is(err, sweep.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "dmsweep:", err)
			if *storeDir != "" {
				fmt.Fprintf(os.Stderr, "dmsweep: progress archived; rerun with -store %s -resume to continue\n", *storeDir)
			}
			flushProfiles()
			os.Exit(exitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "dmsweep:", err)
		flushProfiles()
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.String())
			if *plot {
				if c := t.Chart(); c != nil {
					fmt.Println()
					fmt.Print(c.Render())
				}
			}
		}
	}
}

// stopProfiling finalises -cpuprofile/-memprofile; flushProfiles runs
// it at most once, so the deferred call and the explicit calls ahead
// of os.Exit compose.
var stopProfiling func() error

func flushProfiles() {
	if stopProfiling == nil {
		return
	}
	if err := stopProfiling(); err != nil {
		fmt.Fprintln(os.Stderr, "dmsweep:", err)
	}
	stopProfiling = nil
}
