package sweep

import (
	"fmt"
	"strings"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/queueing"
	"dismem/internal/sched"
	"dismem/internal/sim"
	"dismem/internal/stats"
	"dismem/internal/workload"
)

// This file holds experiments beyond the reconstructed core evaluation:
// the simulator-validation table (val1) that simulation papers include,
// and two extension sweeps (load scaling, failure injection) exercising
// design-space corners the core figures hold fixed.

func init() {
	registry["val1"] = Val1Queueing
	registry["fig9"] = Fig9LoadSweep
	registry["fig10"] = Fig10Failures
	registry["table4"] = Table4Fairness
	registry["val2"] = Val2Lublin
	registry["fig11"] = Fig11OutageSeverity
}

// Val1Queueing validates the DES core against closed-form queueing
// theory: memoryless single-node jobs under FCFS are an M/M/c queue, so
// the simulated mean wait must track the Erlang-C prediction across
// utilization levels.
func Val1Queueing(o Options) []*Table {
	o = o.withDefaults()
	const (
		nodes   = 8
		meanSvc = 1000.0
	)
	t := &Table{
		ID:    "val1",
		Title: "Simulator validation: simulated FCFS wait vs. Erlang-C (M/M/8, exp. service 1000 s)",
		Note:  fmt.Sprintf("%d jobs/run, mean of %d seeds", o.Jobs, o.Seeds),
		Cols:  []string{"rho", "simulated wait (s)", "Erlang-C wait (s)", "rel. error"},
	}
	mc := cluster.Config{
		Racks: 1, NodesPerRack: nodes, CoresPerNode: 1, LocalMemMiB: 10,
		Topology: cluster.TopologyNone,
	}
	for _, rho := range []float64{0.5, 0.7, 0.8, 0.9} {
		lambda := rho * nodes / meanSvc
		q := queueing.MMc{Lambda: lambda, Mu: 1 / meanSvc, C: nodes}
		want := q.MeanWait()

		var pooled, n float64
		for seed := 1; seed <= o.Seeds; seed++ {
			w := mmcWorkload(o.Jobs, uint64(seed), lambda, meanSvc)
			res, err := sim.Run(sim.Config{
				Machine: mc,
				Model:   memmodel.Linear{Beta: 0},
				Scheduler: &sched.Batch{
					Order: sched.FCFS{}, Backfill: sched.BackfillNone, Placer: &sched.LocalOnly{},
				},
			}, w)
			if err != nil {
				panic(err)
			}
			pooled += res.Report.Wait.Sum()
			n += float64(res.Report.Wait.N())
		}
		got := pooled / n
		rel := 0.0
		if want > 0 {
			rel = (got - want) / want
		}
		t.AddRow(f2(rho), f1(got), f1(want), fmt.Sprintf("%+.1f%%", 100*rel))
	}
	return []*Table{t}
}

// mmcWorkload builds a memoryless single-node trace (Poisson arrivals,
// exponential runtimes, exact estimates).
func mmcWorkload(jobs int, seed uint64, lambda, meanSvc float64) *workload.Workload {
	rng := stats.NewRNG(seed * 977)
	w := &workload.Workload{Name: "mmc"}
	now := 0.0
	for i := 1; i <= jobs; i++ {
		now += rng.ExpFloat64() / lambda
		rt := int64(rng.ExpFloat64()*meanSvc) + 1
		w.Jobs = append(w.Jobs, &workload.Job{
			ID: i, Submit: int64(now), Nodes: 1, MemPerNode: 1,
			Estimate: rt, BaseRuntime: rt,
		})
	}
	return w
}

// Fig9LoadSweep scales the offered load (via mean inter-arrival time)
// on the disaggregated machine: the memory-aware policy's advantage
// over oblivious spilling grows with load, because congestion — which
// only memaware avoids — builds superlinearly near saturation.
func Fig9LoadSweep(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig9",
		Title: "Load scaling: wait vs. offered load (64 GiB + 2 TiB/rack, 8 GiB/s fabric, bandwidth β=1 γ=1)",
		Note:  o.note() + "; load 1.0 = calibrated default arrival rate",
		Cols: []string{"load", "wait oblivious (s)", "wait memaware (s)",
			"bsld oblivious", "bsld memaware", "util memaware"},
	}
	mc := stressedMachine(64, 2048)
	const baseInterarrival = 90.0
	for _, load := range []float64{0.6, 0.8, 1.0, 1.2} {
		gen := dismem.DefaultGen(o.Jobs, 1, mc)
		gen.MeanInterarrival = baseInterarrival / load
		ob := Cell{Machine: mc, Policy: "easy-oblivious", Model: "bandwidth:1,1", Gen: &gen}.MustRun(o)
		genM := gen
		ma := Cell{Machine: mc, Policy: "memaware", Model: "bandwidth:1,1", Gen: &genM}.MustRun(o)
		t.AddRow(f2(load), f0(ob.MeanWait), f0(ma.MeanWait),
			f1(ob.MeanBSld), f1(ma.MeanBSld), f2(ma.NodeUtil))
	}
	return []*Table{t}
}

// Table4Fairness compares how evenly the policies treat users: Jain
// index over per-user mean wait and the spread between the best- and
// worst-served user. Aggressive size-based ordering (SJF/WFP) and
// memory-aware admission could both skew service; this table
// quantifies the cost.
func Table4Fairness(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "table4",
		Title: "Per-user fairness by policy (64 GiB + 2 TiB/rack, 8 GiB/s fabric, bandwidth β=1 γ=1)",
		Note:  o.note() + "; fairness over seed 1",
		Cols:  []string{"policy", "jain(wait)", "best user wait (s)", "worst user wait (s)", "mean wait (s)"},
	}
	mc := stressedMachine(64, 2048)
	for _, pol := range []string{"easy-local", "sjf-local", "wfp-local", "easy-oblivious", "memaware", "memaware-patient"} {
		a := Cell{Machine: mc, Policy: pol, Model: "bandwidth:1,1"}.MustRun(o)
		var fair *metricsFairness
		fair = fairnessOf(a)
		t.AddRow(pol, f2(fair.jain), f0(fair.best), f0(fair.worst), f0(a.MeanWait))
	}
	return []*Table{t}
}

// metricsFairness is the slice of the fairness report the table needs.
type metricsFairness struct{ jain, best, worst float64 }

func fairnessOf(a Agg) *metricsFairness {
	// Recompute from the retained first-seed records.
	rec := recorderFromRecords(a)
	fr := rec.Fairness()
	return &metricsFairness{jain: fr.JainWait, best: fr.BestUserMeanWait, worst: fr.WorstUserMeanWait}
}

// Val2Lublin cross-checks the two workload models: the headline policy
// comparison's ordering must be stable when the calibrated generator is
// swapped for the Lublin-Feitelson model (a robustness check on the
// conclusions, not a fit to any particular trace).
func Val2Lublin(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "val2",
		Title: "Workload-model robustness: calibrated vs. Lublin-Feitelson (memaware vs oblivious)",
		Note:  o.note(),
		Cols: []string{"workload model", "wait oblivious (s)", "wait memaware (s)",
			"dil oblivious", "dil memaware"},
	}
	mc := stressedMachine(64, 2048)
	const model = "bandwidth:1,1"
	// Calibrated generator (the default).
	ob := Cell{Machine: mc, Policy: "easy-oblivious", Model: model}.MustRun(o)
	ma := Cell{Machine: mc, Policy: "memaware", Model: model}.MustRun(o)
	t.AddRow("calibrated", f0(ob.MeanWait), f0(ma.MeanWait),
		f2(ob.MeanDilRemote), f2(ma.MeanDilRemote))
	// Lublin model via per-seed workloads.
	obL := lublinCell(mc, "easy-oblivious", model, o)
	maL := lublinCell(mc, "memaware", model, o)
	t.AddRow("lublin", f0(obL.MeanWait), f0(maL.MeanWait),
		f2(obL.MeanDilRemote), f2(maL.MeanDilRemote))
	return []*Table{t}
}

func lublinCell(mc dismem.MachineConfig, policy, model string, o Options) Agg {
	var agg Agg
	for seed := 1; seed <= o.Seeds; seed++ {
		wl, err := loadMatchedLublin(o.Jobs, uint64(seed), mc, 0.9)
		if err != nil {
			panic(err)
		}
		res, err := dismem.Simulate(dismem.Options{
			Machine: mc, Policy: policy, Model: model, Workload: wl,
		})
		if err != nil {
			panic(err)
		}
		r := res.Report
		agg.MeanWait += r.Wait.Mean()
		agg.MeanDilRemote += r.DilationRemote.Mean()
	}
	agg.MeanWait /= float64(o.Seeds)
	agg.MeanDilRemote /= float64(o.Seeds)
	return agg
}

// loadMatchedLublin generates a Lublin-Feitelson trace whose offered
// load (node-hours demanded per node-hour of machine time) is scaled to
// the target by stretching the arrival process: the Lublin runtime
// distribution is much heavier than the calibrated generator's, so an
// unscaled trace would saturate any machine and measure only the
// overload regime.
func loadMatchedLublin(jobs int, seed uint64, mc dismem.MachineConfig, target float64) (*dismem.Workload, error) {
	cfg := workload.DefaultLublinConfig(jobs, seed, mc.TotalNodes())
	probe, err := workload.GenerateLublin(cfg)
	if err != nil {
		return nil, err
	}
	var nodeSeconds float64
	for _, j := range probe.Jobs {
		nodeSeconds += float64(j.Nodes) * float64(j.BaseRuntime)
	}
	first, last := probe.Span()
	span := float64(last - first)
	if span <= 0 {
		return probe, nil
	}
	load := nodeSeconds / (span * float64(mc.TotalNodes()))
	cfg.MeanInterarrival *= load / target
	return workload.GenerateLublin(cfg)
}

// Fig11OutageSeverity drives the scenario subsystem across the paper's
// headline policies: a planned 12-hour outage (racks down at t=6 h,
// repaired at t=18 h) of increasing severity. Unlike fig10's random
// Poisson failures, the outage is a deterministic timeline — every
// policy faces the identical intervention — so the table isolates how
// policies absorb a correlated capacity loss: kills and resubmissions
// at the outage instant, then queueing through the shrunken machine.
func Fig11OutageSeverity(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig11",
		Title: "Outage severity: 12 h planned rack outage at t=6 h (64 GiB + 2 TiB/rack, linear β=0.5)",
		Note:  o.note() + "; identical deterministic outage timeline per policy",
		Cols: []string{"racks down", "wait easy-local (s)", "wait easy-obliv (s)", "wait memaware (s)",
			"bsld easy-obliv", "bsld memaware", "killed memaware", "restarts memaware"},
	}
	mc := disaggMachine(64, 2048)
	for _, racks := range []int{0, 1, 2, 4} {
		sc := outageScenario(racks, 6*3600, 18*3600)
		el := Cell{Machine: mc, Policy: "easy-local", Scenario: sc}.MustRun(o)
		ob := Cell{Machine: mc, Policy: "easy-oblivious", Scenario: sc}.MustRun(o)
		ma := Cell{Machine: mc, Policy: "memaware", Scenario: sc}.MustRun(o)
		t.AddRow(f0(float64(racks)), f0(el.MeanWait), f0(ob.MeanWait), f0(ma.MeanWait),
			f1(ob.MeanBSld), f1(ma.MeanBSld), fp(ma.KilledFrac), f1(ma.FailureKills))
	}
	return []*Table{t}
}

// outageScenario builds a timeline downing the first n racks at downAt
// and repairing them at upAt (nil for n = 0: the undisturbed baseline).
func outageScenario(n int, downAt, upAt int64) *dismem.Scenario {
	if n == 0 {
		return nil
	}
	var b []string
	for r := 0; r < n; r++ {
		b = append(b, fmt.Sprintf("at=%d down rack=%d", downAt, r),
			fmt.Sprintf("at=%d up rack=%d", upAt, r))
	}
	sc, err := dismem.ParseScenario(strings.Join(b, "; "))
	if err != nil {
		panic(err)
	}
	return sc
}

// Fig10Failures injects node failures at decreasing MTBF and reports
// their toll: failure-killed jobs and the wait inflation from capacity
// loss. The memory-aware policy is compared against the big-memory
// baseline at equal failure rates (failures hit both equally; the
// disaggregated machine's exposure comes only from its extra queueing
// sensitivity).
func Fig10Failures(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig10",
		Title: "Failure injection: per-node MTBF vs. job losses and wait (repair 1 h)",
		Note:  o.note(),
		Cols: []string{"MTBF (h/node)", "failures", "restarts",
			"wait memaware (s)", "wait baseline (s)"},
	}
	mc := disaggMachine(64, 4096)
	base := baselineMachine()
	for _, mtbfH := range []int64{0, 2000, 500, 100} {
		var fc *sim.FailureConfig
		if mtbfH > 0 {
			fc = &sim.FailureConfig{MTBFPerNodeSec: mtbfH * 3600, RepairSec: 3600, Seed: 1}
		}
		ma := Cell{Machine: mc, Policy: "memaware", Failures: fc}.MustRun(o)
		bl := Cell{Machine: base, Policy: "easy-local", Failures: fc}.MustRun(o)
		label := "∞ (reliable)"
		if mtbfH > 0 {
			label = f0(float64(mtbfH))
		}
		t.AddRow(label, f1(ma.NodeFailures), f1(ma.FailureKills),
			f0(ma.MeanWait), f0(bl.MeanWait))
	}
	return []*Table{t}
}
