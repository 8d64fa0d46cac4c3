package sweep

import (
	"errors"
	"fmt"
	"sort"

	"dismem"
	"dismem/internal/metrics"
	"dismem/internal/stats"
	"dismem/internal/workload"
)

// Func computes one experiment at the given scale.
type Func func(o Options) []*Table

// registry maps experiment IDs to their implementations. IDs follow the
// reconstructed evaluation in DESIGN.md §4.
var registry = map[string]Func{
	"table1": Table1Workload,
	"table2": Table2Policies,
	"table3": Table3Ablation,
	"fig1":   Fig1Stranding,
	"fig2":   Fig2PoolSweep,
	"fig3":   Fig3PenaltySweep,
	"fig4":   Fig4Utilization,
	"fig5":   Fig5Downsize,
	"fig6":   Fig6Topology,
	"fig7":   Fig7Estimates,
	"fig8":   Fig8DilationCDF,
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID. A sweep cancelled through
// Options.Ctx returns ErrInterrupted (unwrappable with errors.Is)
// instead of panicking out of the experiment's MustRun calls.
func Run(id string, o Options) ([]*Table, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown experiment %q (known: %v)", id, IDs())
	}
	return runFunc(f, o)
}

// RunAll executes every experiment in ID order. On interruption it
// returns the tables completed so far alongside the error, so callers
// can still render partial progress.
func RunAll(o Options) ([]*Table, error) {
	var out []*Table
	for _, id := range IDs() {
		tables, err := runFunc(registry[id], o)
		out = append(out, tables...)
		if err != nil {
			return out, fmt.Errorf("sweep: experiment %s: %w", id, err)
		}
	}
	return out, nil
}

// runFunc invokes one experiment, converting MustRun's panic back to
// the error it wraps. Interruption is an input condition (a signal),
// not a programming bug, so it must not crash the process; other
// errors from deterministic experiments keep panicking.
func runFunc(f Func, o Options) (tables []*Table, err error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e, ok := r.(error); ok && errors.Is(e, ErrInterrupted) {
			tables, err = nil, e
			return
		}
		panic(r)
	}()
	return f(o), nil
}

// --- machine shorthands -------------------------------------------------

const gib = int64(1024) // MiB per GiB

// baselineMachine is the conventional big-memory reference:
// 256 GiB/node, no pool.
func baselineMachine() dismem.MachineConfig { return dismem.BaselineMachine(256 * gib) }

// disaggMachine has localGiB DRAM per node and poolGiB of pool per rack.
func disaggMachine(localGiB, poolGiB int64) dismem.MachineConfig {
	mc := dismem.DefaultMachine()
	mc.LocalMemMiB = localGiB * gib
	mc.Topology = dismem.TopologyRack
	mc.PoolMiB = poolGiB * gib
	return mc
}

// stressedMachine is disaggMachine with a deliberately tight fabric
// (8 GiB/s per rack pool) so that fabric contention — and therefore the
// balancing/shaping mechanisms and the contention-sensitive memory
// model — actually bind.
func stressedMachine(localGiB, poolGiB int64) dismem.MachineConfig {
	mc := disaggMachine(localGiB, poolGiB)
	mc.FabricGiBps = 8
	return mc
}

// globalMachine is disaggMachine with one machine-wide pool of equal
// total capacity and proportionally scaled fabric bandwidth.
func globalMachine(localGiB, poolGiBPerRackEquiv int64) dismem.MachineConfig {
	mc := disaggMachine(localGiB, poolGiBPerRackEquiv)
	mc.Topology = dismem.TopologyGlobal
	mc.PoolMiB = poolGiBPerRackEquiv * gib * int64(mc.Racks)
	mc.FabricGiBps *= float64(mc.Racks)
	return mc
}

// --- Table 1: workload characteristics ----------------------------------

// Table1Workload summarises the synthetic trace (the paper's workload
// table): population sizes, runtime/size/memory distributions, and the
// fraction of jobs that exceed the downsized nodes' local DRAM.
func Table1Workload(o Options) []*Table {
	o = o.withDefaults()
	mc := disaggMachine(64, 4096)
	wl, err := dismem.GenerateWorkload(dismem.DefaultGen(o.Jobs, 1, mc))
	if err != nil {
		panic(err)
	}
	s := workload.Summarize(wl, mc.LocalMemMiB)
	t := &Table{
		ID:    "table1",
		Title: "Workload characteristics (synthetic, calibrated to production trace shapes)",
		Note:  fmt.Sprintf("seed 1, %d jobs", o.Jobs),
		Cols:  []string{"statistic", "value"},
	}
	t.AddRow("jobs", f0(float64(s.Jobs)))
	t.AddRow("users", f0(float64(s.Users)))
	t.AddRow("trace span (h)", f1(float64(s.SpanSec)/3600))
	t.AddRow("total demand (node-hours)", f0(s.NodeHours))
	t.AddRow("nodes/job mean", f1(s.Nodes.Mean()))
	t.AddRow("nodes/job max", f0(s.Nodes.Max()))
	t.AddRow("runtime mean (s)", f0(s.Runtime.Mean()))
	t.AddRow("runtime max (s)", f0(s.Runtime.Max()))
	t.AddRow("estimate accuracy mean", f2(s.Accuracy.Mean()))
	t.AddRow("mem/node mean (GiB)", f1(s.MemNode.Mean()/float64(gib)))
	t.AddRow("mem/node p50 (GiB)", f1(s.MemP50/float64(gib)))
	t.AddRow("mem/node p95 (GiB)", f1(s.MemP95/float64(gib)))
	t.AddRow("mem/node p99 (GiB)", f1(s.MemP99/float64(gib)))
	t.AddRow(fmt.Sprintf("jobs > %d GiB/node (need pool)", 64), fp(s.LargeMemFraction))
	return []*Table{t}
}

// --- Fig 1: memory stranding on the conventional machine ----------------

// Fig1Stranding runs EASY on the big-memory baseline and reports the
// time-weighted distribution of system memory utilization against node
// (CPU) utilization: DRAM sits idle while nodes are busy — the memory
// stranding that motivates disaggregation.
func Fig1Stranding(o Options) []*Table {
	o = o.withDefaults()
	mc := baselineMachine()
	agg := Cell{Machine: mc, Policy: "easy-local"}.MustRun(o)

	memSeries := timeWeightedUtil(agg.Records, func(r *metrics.JobRecord) float64 {
		return float64(r.MemPerNode) * float64(r.Nodes) / float64(mc.TotalLocalMiB())
	})
	nodeSeries := timeWeightedUtil(agg.Records, func(r *metrics.JobRecord) float64 {
		return float64(r.Nodes) / float64(mc.TotalNodes())
	})

	t := &Table{
		ID:    "fig1",
		Title: "Memory stranding: time-weighted CDF of system utilization (easy-local, 256 GiB/node baseline)",
		Note:  o.note() + "; CDF over seed 1",
		Cols:  []string{"utilization<=", "fraction of time (memory)", "fraction of time (nodes)"},
	}
	for i := 1; i <= 10; i++ {
		x := float64(i) / 10
		t.AddRow(f1(x), f2(memSeries.cdf(x)), f2(nodeSeries.cdf(x)))
	}
	t.AddRow("mean", f2(memSeries.mean()), f2(nodeSeries.mean()))
	return []*Table{t}
}

// utilDist is a time-weighted empirical distribution of a utilization
// signal reconstructed from job records.
type utilDist struct {
	levels  []float64 // utilization level per interval
	weights []float64 // interval durations
}

// timeWeightedUtil rebuilds the piecewise-constant utilization signal
// value(t) = Σ_running contrib(job) from job start/end events.
func timeWeightedUtil(records []metrics.JobRecord, contrib func(*metrics.JobRecord) float64) utilDist {
	type ev struct {
		t int64
		d float64
	}
	var evs []ev
	for i := range records {
		r := &records[i]
		if r.Rejected {
			continue
		}
		c := contrib(r)
		evs = append(evs, ev{r.Start, c}, ev{r.End, -c})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	var d utilDist
	level := 0.0
	for i := 0; i < len(evs); {
		t := evs[i].t
		if i > 0 && t > evs[i-1].t {
			d.levels = append(d.levels, level)
			d.weights = append(d.weights, float64(t-evs[i-1].t))
		}
		for i < len(evs) && evs[i].t == t {
			level += evs[i].d
			i++
		}
	}
	return d
}

// cdf returns the fraction of time the signal was <= x.
func (d utilDist) cdf(x float64) float64 {
	var hit, total float64
	for i, l := range d.levels {
		total += d.weights[i]
		if l <= x+1e-12 {
			hit += d.weights[i]
		}
	}
	if total == 0 {
		return 0
	}
	return hit / total
}

// mean returns the time-weighted mean level.
func (d utilDist) mean() float64 {
	var acc, total float64
	for i, l := range d.levels {
		acc += l * d.weights[i]
		total += d.weights[i]
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// --- Fig 2: pool-size sweep ----------------------------------------------

// Fig2PoolSweep sweeps the per-rack pool size with 64 GiB local DRAM
// under the memory-aware policy: wait falls steeply, then flattens
// (diminishing returns). Pool 0 degenerates to the local-only machine
// where large-memory jobs are rejected outright.
func Fig2PoolSweep(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig2",
		Title: "Job wait time vs. per-rack pool size (memaware, 64 GiB/node local, linear β=0.5)",
		Note:  o.note(),
		Cols:  []string{"pool GiB/rack", "mean wait (s)", "p95 wait (s)", "rejected", "remote jobs", "pool util"},
	}
	for _, poolGiB := range []int64{0, 512, 1024, 2048, 4096, 8192} {
		var cell Cell
		if poolGiB == 0 {
			mc := dismem.BaselineMachine(64 * gib)
			cell = Cell{Machine: mc, Policy: "easy-local"}
		} else {
			cell = Cell{Machine: disaggMachine(64, poolGiB), Policy: "memaware"}
		}
		a := cell.MustRun(o)
		t.AddRow(f0(float64(poolGiB)), f0(a.MeanWait), f0(a.P95Wait),
			fp(a.RejectedFrac), fp(a.RemoteFrac), f2(a.PoolUtil))
	}
	return []*Table{t}
}

// --- Fig 3: remote-penalty sweep ------------------------------------------

// Fig3PenaltySweep sweeps the full-remote penalty β from CXL-class to
// RDMA-class. The oblivious spiller degrades monotonically; the
// memory-aware policy's slowdown cap bounds per-job dilation at the
// cost of slightly higher waits at large β (the paper's central
// trade-off figure).
func Fig3PenaltySweep(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig3",
		Title: "Bounded slowdown and dilation vs. remote penalty β (64 GiB local + 2 TiB/rack pool)",
		Note:  o.note(),
		Cols: []string{"β", "bsld oblivious", "bsld memaware",
			"dil oblivious", "dil memaware", "p95 dil obliv", "p95 dil memaw", "rejected memaw"},
	}
	mc := disaggMachine(64, 2048)
	for _, beta := range []float64{0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0} {
		model := fmt.Sprintf("linear:%g", beta)
		ob := Cell{Machine: mc, Policy: "easy-oblivious", Model: model}.MustRun(o)
		ma := Cell{Machine: mc, Policy: "memaware", Model: model}.MustRun(o)
		t.AddRow(f2(beta), f1(ob.MeanBSld), f1(ma.MeanBSld),
			f2(ob.MeanDilRemote), f2(ma.MeanDilRemote),
			f2(ob.P95DilRemote), f2(ma.P95DilRemote), fp(ma.RejectedFrac))
	}
	return []*Table{t}
}

// --- Fig 4: utilization by policy ------------------------------------------

// Fig4Utilization compares node, local-DRAM and pool utilization across
// policies on the downsized machine (64 GiB + 4 TiB/rack), with the
// big-memory baseline as reference.
func Fig4Utilization(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig4",
		Title: "Resource utilization by policy",
		Note:  o.note() + "; baseline row runs on the 256 GiB machine",
		Cols:  []string{"policy", "node util", "local mem util", "pool util", "rejected"},
	}
	rows := []struct {
		label string
		cell  Cell
	}{
		{"easy-local @256GiB (baseline)", Cell{Machine: baselineMachine(), Policy: "easy-local"}},
		{"easy-local @64GiB", Cell{Machine: dismem.BaselineMachine(64 * gib), Policy: "easy-local"}},
		{"easy-oblivious", Cell{Machine: disaggMachine(64, 4096), Policy: "easy-oblivious"}},
		{"memaware", Cell{Machine: disaggMachine(64, 4096), Policy: "memaware"}},
	}
	for _, r := range rows {
		a := r.cell.MustRun(o)
		t.AddRow(r.label, f2(a.NodeUtil), f2(a.LocalUtil), f2(a.PoolUtil), fp(a.RejectedFrac))
	}
	return []*Table{t}
}

// --- Table 2: headline policy comparison -----------------------------------

// Table2Policies is the paper's headline table: every policy on the
// downsized disaggregated machine, with the big-memory baseline for
// reference.
func Table2Policies(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "table2",
		Title: "Policy comparison (64 GiB/node + 2 TiB/rack pool, 8 GiB/s fabric, bandwidth β=1 γ=1)",
		Note:  o.note(),
		Cols: []string{"policy", "mean wait (s)", "p95 wait (s)", "mean bsld",
			"node util", "jobs/h", "remote", "mean dil", "killed", "rejected", "jain"},
	}
	mc := stressedMachine(64, 2048)
	const model = "bandwidth:1,1"
	rows := []struct {
		label string
		cell  Cell
	}{
		{"easy-local @256GiB", Cell{Machine: baselineMachine(), Policy: "easy-local", Model: model}},
		{"fcfs-local", Cell{Machine: mc, Policy: "fcfs-local", Model: model}},
		{"easy-local", Cell{Machine: mc, Policy: "easy-local", Model: model}},
		{"cons-local", Cell{Machine: mc, Policy: "cons-local", Model: model}},
		{"easy-oblivious", Cell{Machine: mc, Policy: "easy-oblivious", Model: model}},
		{"memaware", Cell{Machine: mc, Policy: "memaware", Model: model}},
		{"memaware-cons", Cell{Machine: mc, Policy: "memaware-cons", Model: model}},
		{"memaware-patient", Cell{Machine: mc, Policy: "memaware-patient", Model: model}},
	}
	for _, r := range rows {
		a := r.cell.MustRun(o)
		t.AddRow(r.label, f0(a.MeanWait), f0(a.P95Wait), f1(a.MeanBSld),
			f2(a.NodeUtil), f1(a.Throughput), fp(a.RemoteFrac),
			f2(a.MeanDilRemote), fp(a.KilledFrac), fp(a.RejectedFrac), f2(a.JainWait))
	}
	return []*Table{t}
}

// --- Fig 5: DRAM downsizing ------------------------------------------------

// Fig5Downsize shrinks per-node local DRAM while a rack pool holds
// total system memory constant at the baseline's 256 GiB/node. Without
// a pool, downsizing collapses capacity (rejections); with the pool and
// the memory-aware policy most of the DRAM can be shed cheaply.
func Fig5Downsize(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig5",
		Title: "DRAM downsizing at constant total memory (memaware vs. no-pool, linear β=0.5)",
		Note:  o.note(),
		Cols: []string{"local GiB/node", "pool GiB/rack", "wait memaware (s)", "wait no-pool (s)",
			"rejected no-pool", "jobs/h memaware", "dil memaware"},
	}
	for _, local := range []int64{256, 192, 128, 96, 64, 48, 32} {
		poolPerRack := (256 - local) * 16 // nodes/rack * freed DRAM
		var ma Agg
		if poolPerRack == 0 {
			ma = Cell{Machine: baselineMachine(), Policy: "easy-local"}.MustRun(o)
		} else {
			ma = Cell{Machine: disaggMachine(local, poolPerRack), Policy: "memaware"}.MustRun(o)
		}
		np := Cell{Machine: dismem.BaselineMachine(local * gib), Policy: "easy-local"}.MustRun(o)
		t.AddRow(f0(float64(local)), f0(float64(poolPerRack)),
			f0(ma.MeanWait), f0(np.MeanWait), fp(np.RejectedFrac),
			f1(ma.Throughput), f2(ma.MeanDilRemote))
	}
	return []*Table{t}
}

// --- Fig 6: rack pools vs. one global pool ----------------------------------

// Fig6Topology compares rack-level pools against a single global pool
// of equal total capacity under memaware: the global pool multiplexes
// better (lower waits at small sizes), rack pools bound fabric blast
// radius; the gap closes as capacity grows.
func Fig6Topology(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig6",
		Title: "Pool topology: per-rack vs. global at equal total capacity (memaware, bandwidth β=0.5 γ=1)",
		Note:  o.note(),
		Cols: []string{"pool GiB/rack-equiv", "wait rack (s)", "wait global (s)",
			"dil rack", "dil global", "rejected rack", "rejected global"},
	}
	for _, poolGiB := range []int64{512, 1024, 2048, 4096} {
		rackMC := disaggMachine(64, poolGiB)
		rackMC.FabricGiBps = 16
		globMC := globalMachine(64, poolGiB)
		globMC.FabricGiBps = 16 * float64(globMC.Racks)
		rack := Cell{Machine: rackMC, Policy: "memaware", Model: "bandwidth:0.5,1"}.MustRun(o)
		glob := Cell{Machine: globMC, Policy: "memaware", Model: "bandwidth:0.5,1"}.MustRun(o)
		t.AddRow(f0(float64(poolGiB)), f0(rack.MeanWait), f0(glob.MeanWait),
			f2(rack.MeanDilRemote), f2(glob.MeanDilRemote),
			fp(rack.RejectedFrac), fp(glob.RejectedFrac))
	}
	return []*Table{t}
}

// --- Fig 7: sensitivity to user estimates -----------------------------------

// Fig7Estimates sweeps user estimate accuracy φ: backfill quality (and
// thus waits) improves as estimates tighten, for both the baseline and
// the memory-aware policy.
func Fig7Estimates(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig7",
		Title: "Sensitivity to user runtime-estimate accuracy φ (64 GiB + 4 TiB/rack)",
		Note:  o.note(),
		Cols:  []string{"φ", "wait easy-local@256 (s)", "wait memaware (s)", "bsld easy-local@256", "bsld memaware"},
	}
	mc := disaggMachine(64, 4096)
	base := baselineMachine()
	for _, phi := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		genB := dismem.DefaultGen(o.Jobs, 1, base)
		genB.EstimateAccuracy = phi
		genM := dismem.DefaultGen(o.Jobs, 1, mc)
		genM.EstimateAccuracy = phi
		b := Cell{Machine: base, Policy: "easy-local", Gen: &genB}.MustRun(o)
		m := Cell{Machine: mc, Policy: "memaware", Gen: &genM}.MustRun(o)
		t.AddRow(f2(phi), f0(b.MeanWait), f0(m.MeanWait), f1(b.MeanBSld), f1(m.MeanBSld))
	}
	return []*Table{t}
}

// --- Table 3: ablation of the memory-aware knobs -----------------------------

// Table3Ablation switches off each memaware mechanism in turn under a
// stressed configuration (small pools, RDMA-class penalty, contention-
// sensitive model) where the mechanisms matter most.
func Table3Ablation(o Options) []*Table {
	o = o.withDefaults()
	t := &Table{
		ID:    "table3",
		Title: "Ablation of memaware mechanisms (64 GiB + 1 TiB/rack, 8 GiB/s fabric, bandwidth β=1.5 γ=1)",
		Note:  o.note(),
		Cols: []string{"variant", "mean wait (s)", "mean bsld", "mean dil",
			"p95 dil", "killed", "remote"},
	}
	mc := stressedMachine(64, 1024)
	const model = "bandwidth:1.5,1"
	rows := []struct {
		label string
		cell  Cell
	}{
		{"memaware (full)", Cell{Machine: mc, Policy: "memaware", Model: model}},
		{"- slowdown cap", Cell{Machine: mc, Policy: "memaware-nocap", Model: model}},
		{"- pool balancing", Cell{Machine: mc, Policy: "memaware-nobal", Model: model}},
		{"- cross-rack shaping", Cell{Machine: mc, Policy: "memaware-noshape", Model: model}},
		{"- dilated limits (strict kill)", Cell{Machine: mc, Policy: "memaware", Model: model, StrictKill: true}},
		{"+ 30 min spill patience", Cell{Machine: mc, Policy: "memaware-patient", Model: model}},
		{"oblivious spill", Cell{Machine: mc, Policy: "easy-oblivious", Model: model}},
	}
	for _, r := range rows {
		a := r.cell.MustRun(o)
		t.AddRow(r.label, f0(a.MeanWait), f1(a.MeanBSld), f2(a.MeanDilRemote),
			f2(a.P95DilRemote), fp(a.KilledFrac), fp(a.RemoteFrac))
	}
	return []*Table{t}
}

// --- Fig 8: per-job dilation CDF ---------------------------------------------

// Fig8DilationCDF contrasts the per-job dilation distribution of the
// oblivious spiller with the capped memory-aware policy at RDMA-class
// penalty: the cap truncates the tail.
func Fig8DilationCDF(o Options) []*Table {
	o = o.withDefaults()
	mc := stressedMachine(64, 2048)
	const model = "bandwidth:1,1"
	ob := Cell{Machine: mc, Policy: "easy-oblivious", Model: model}.MustRun(o)
	ma := Cell{Machine: mc, Policy: "memaware", Model: model}.MustRun(o)

	dils := func(records []metrics.JobRecord) []float64 {
		var out []float64
		for i := range records {
			r := &records[i]
			if !r.Rejected && r.RemoteMiB > 0 {
				out = append(out, r.Dilation)
			}
		}
		return out
	}
	obD, maD := dils(ob.Records), dils(ma.Records)

	t := &Table{
		ID:    "fig8",
		Title: "CDF of per-job dilation among pool-using jobs (bandwidth β=1 γ=1, 2 TiB/rack, 8 GiB/s fabric)",
		Note:  o.note() + "; CDF over seed 1",
		Cols:  []string{"percentile", "dilation oblivious", "dilation memaware"},
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 100} {
		t.AddRow(f0(p), f2(stats.Percentile(obD, p)), f2(stats.Percentile(maD, p)))
	}
	return []*Table{t}
}
