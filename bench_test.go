// Benchmarks regenerating every table and figure of the reconstructed
// evaluation (DESIGN.md §4), plus micro-benchmarks of the simulator's
// hot paths and of checkpointing. Each experiment benchmark runs the
// corresponding sweep at a reduced-but-meaningful scale per iteration;
// run
//
//	go test -bench=. -benchmem
//
// and use `go run ./cmd/dmsweep -exp <id>` for the full-scale numbers
// recorded in EXPERIMENTS.md. The repository benchmark, with trials,
// noise and end-to-end workloads (streamed replay, traced runs, the
// sweep grid, what-if serving), is perfbench/ (DESIGN.md §6).
package dismem_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/des"
	"dismem/internal/memmodel"
	"dismem/internal/sweep"
	"dismem/internal/workload"
)

// benchOptions is the per-iteration experiment scale: large enough that
// queueing dynamics are real, small enough to iterate.
var benchOptions = sweep.Options{Jobs: 800, Seeds: 2}

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := sweep.Run(id, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("experiment %s produced no data", id)
		}
	}
}

// --- one benchmark per table and figure -----------------------------------

// BenchmarkTable1Workload regenerates the workload-characteristics table.
func BenchmarkTable1Workload(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Policies regenerates the headline policy comparison.
func BenchmarkTable2Policies(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Ablation regenerates the memaware mechanism ablation.
func BenchmarkTable3Ablation(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig1Stranding regenerates the memory-stranding CDF.
func BenchmarkFig1Stranding(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2PoolSweep regenerates the wait-vs-pool-size sweep.
func BenchmarkFig2PoolSweep(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3PenaltySweep regenerates the remote-penalty sweep.
func BenchmarkFig3PenaltySweep(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Utilization regenerates the per-policy utilization bars.
func BenchmarkFig4Utilization(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5Downsize regenerates the DRAM-downsizing sweep.
func BenchmarkFig5Downsize(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6Topology regenerates the rack-vs-global pool comparison.
func BenchmarkFig6Topology(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Estimates regenerates the estimate-accuracy sensitivity.
func BenchmarkFig7Estimates(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8DilationCDF regenerates the per-job dilation CDF.
func BenchmarkFig8DilationCDF(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkVal1Queueing regenerates the Erlang-C validation table.
func BenchmarkVal1Queueing(b *testing.B) { benchExperiment(b, "val1") }

// BenchmarkFig9LoadSweep regenerates the offered-load scaling sweep.
func BenchmarkFig9LoadSweep(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Failures regenerates the failure-injection sweep.
func BenchmarkFig10Failures(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable4Fairness regenerates the per-user fairness table.
func BenchmarkTable4Fairness(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkVal2Lublin regenerates the workload-model robustness check.
func BenchmarkVal2Lublin(b *testing.B) { benchExperiment(b, "val2") }

// BenchmarkFig11OutageSeverity regenerates the outage-severity sweep.
func BenchmarkFig11OutageSeverity(b *testing.B) { benchExperiment(b, "fig11") }

// --- micro-benchmarks of the simulator's hot paths -------------------------

// BenchmarkEventQueue measures raw DES schedule+fire throughput.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	s := des.New()
	noop := func(des.Time, any) {}
	for i := 0; i < b.N; i++ {
		// Keep ~1k events in flight, firing one per scheduled.
		s.Schedule(s.Now()+des.Time(i%1000), noop)
		s.Step()
	}
}

// BenchmarkMachineAllocRelease measures the cluster bookkeeping cycle.
func BenchmarkMachineAllocRelease(b *testing.B) {
	b.ReportAllocs()
	m := cluster.MustNew(cluster.DefaultConfig())
	a := &cluster.Allocation{JobID: 1, Shares: []cluster.NodeShare{
		{Node: 0, LocalMiB: 64 * 1024, RemoteMiB: 32 * 1024, Pool: 0},
		{Node: 1, LocalMiB: 64 * 1024, RemoteMiB: 32 * 1024, Pool: 0},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Allocate(a); err != nil {
			b.Fatal(err)
		}
		if err := m.Release(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemAwarePlan measures one placement decision on a half-loaded
// machine (the scheduler's inner loop).
func BenchmarkMemAwarePlan(b *testing.B) {
	b.ReportAllocs()
	m := cluster.MustNew(cluster.DefaultConfig())
	// Occupy half the machine.
	for i := 0; i < 128; i++ {
		a := &cluster.Allocation{JobID: 1000 + i, Shares: []cluster.NodeShare{
			{Node: cluster.NodeID(i * 2), LocalMiB: 32 * 1024, Pool: cluster.NoPool},
		}}
		if err := m.Allocate(a); err != nil {
			b.Fatal(err)
		}
	}
	placer := core.New()
	model := memmodel.Bandwidth{Beta: 1, Gamma: 1}
	j := &workload.Job{ID: 1, Nodes: 16, MemPerNode: 96 * 1024, Estimate: 3600, BaseRuntime: 1800}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if placer.Plan(j, m, model) == nil {
			b.Fatal("plan failed")
		}
	}
}

// BenchmarkWorkloadGenerate measures synthetic trace generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	b.ReportAllocs()
	cfg := workload.DefaultGenConfig(1000, 1, 256)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- end-to-end runs of the headline workload ------------------------------

// benchJobs is the headline workload size: the end-to-end benchmarks
// simulate benchJobs jobs per iteration, and the checkpoint benchmarks
// freeze that run at its midpoint.
const benchJobs = 1000

// headline is the headline run: the full memaware stack under the
// contention-sensitive model.
func headline(wl *dismem.Workload) dismem.Options {
	return dismem.Options{Policy: "memaware", Model: "bandwidth:1,1", Workload: wl}
}

// benchRuns times run, one benchJobs-job simulation per call, and
// reports jobs/s, allocs/job and B/job. allocs/job is the number the
// alloc-budget tests bound: allocs/op and B/op scale with the workload
// size, so the per-job form is what stays comparable across benchmarks
// and across workload-size changes.
func benchRuns(b *testing.B, run func() (*dismem.Result, error)) {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, total := ms.Mallocs, ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			b.Fatal("no jobs ran")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(benchJobs) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/job")
	b.ReportMetric(float64(ms.TotalAlloc-total)/n, "B/job")
}

// BenchmarkSimulation measures end-to-end simulated-jobs-per-second for
// the headline run. It runs through the steppable Simulation handle
// (Simulate is New plus Run), so the number also guards the handle's
// and the unused observer hooks' overhead: ~nothing.
func BenchmarkSimulation(b *testing.B) {
	opts := headline(dismem.SyntheticWorkload(benchJobs, 1))
	benchRuns(b, func() (*dismem.Result, error) { return dismem.Simulate(opts) })
}

// BenchmarkScenarioSimulation is BenchmarkSimulation with an active
// intervention timeline: a 12-hour rack outage plus a diurnal arrival
// cycle. It measures the scenario subsystem's end-to-end overhead: the
// arrival time-warp, the intervention events, the kill/resubmit churn,
// and the extra scheduling passes they trigger.
func BenchmarkScenarioSimulation(b *testing.B) {
	opts := headline(dismem.SyntheticWorkload(benchJobs, 1))
	var err error
	opts.Scenario, err = dismem.ParseScenario(
		"at=21600 down rack=2; at=64800 up rack=2; from=0 period=86400 amp=0.4 diurnal")
	if err != nil {
		b.Fatal(err)
	}
	benchRuns(b, func() (*dismem.Result, error) {
		res, err := dismem.Simulate(opts)
		if err == nil && res.ScenarioEvents == 0 {
			err = errors.New("scenario run applied no interventions")
		}
		return res, err
	})
}

// BenchmarkSeriesSampling measures the price of live observation: the
// headline run with the sampling tick chain armed at a
// 600-simulated-second period and every sample encoded to a discarded
// JSONL series stream. The jobs/s gap to BenchmarkSimulation (which
// never arms the chain) is the full cost of -series-out at this
// sampling rate: tick events, usage snapshots and JSON encoding.
func BenchmarkSeriesSampling(b *testing.B) {
	opts := headline(dismem.SyntheticWorkload(benchJobs, 1))
	opts.SampleEvery = 600
	samples := 0
	benchRuns(b, func() (*dismem.Result, error) {
		lines := new(lineCounter)
		opts.SeriesSink = dismem.NewJSONLSeriesSink(lines)
		res, err := dismem.Simulate(opts)
		if err == nil && *lines == 0 {
			err = errors.New("no samples streamed")
		}
		samples += int(*lines)
		return res, err
	})
	b.ReportMetric(float64(samples)/float64(b.N), "samples/run")
}

// lineCounter counts JSONL lines on their way to the void.
type lineCounter int

// Write implements io.Writer.
func (c *lineCounter) Write(p []byte) (int, error) {
	*c += lineCounter(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// --- checkpoints ----------------------------------------------------------

// midTrace returns the headline run advanced to its submit-time
// midpoint, the fixture of the checkpoint benchmarks.
func midTrace(b *testing.B) *dismem.Simulation {
	b.Helper()
	wl := dismem.SyntheticWorkload(benchJobs, 1)
	h, err := dismem.New(headline(wl))
	if err != nil {
		b.Fatal(err)
	}
	h.RunUntil(wl.Jobs[len(wl.Jobs)/2].Submit)
	return h
}

// midTraceEnvelope returns the mid-trace checkpoint and its durable
// envelope.
func midTraceEnvelope(b *testing.B) (*dismem.Checkpoint, []byte) {
	b.Helper()
	cp, err := midTrace(b).Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
		b.Fatal(err)
	}
	return cp, buf.Bytes()
}

// BenchmarkCheckpointFork measures checkpoint+fork of the mid-trace
// run (state cloning only, the forked future is not run): the cost a
// what-if study pays per variant on top of simulating the divergent
// suffix. The forks/s metric makes the comparison with a full prefix
// re-simulation direct.
func BenchmarkCheckpointFork(b *testing.B) {
	b.ReportAllocs()
	h := midTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := h.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dismem.Fork(cp, dismem.ForkOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "forks/s")
}

// BenchmarkForkQuery measures one what-if query in process, the work a
// dmserve query does between decoding its body and encoding its
// answer: Fork a late checkpoint of a 2,000-job memaware run, with at
// least 1,500 records behind it, at a 1,800 s horizon, Run the future,
// and read its fairness. It reports queries/s, allocs/query and
// B/query. A query's cost should follow its future, not the prefix the
// checkpoint carries.
func BenchmarkForkQuery(b *testing.B) {
	wl := dismem.SyntheticWorkload(2000, 1)
	h, err := dismem.New(dismem.Options{Policy: "memaware", Workload: wl})
	if err != nil {
		b.Fatal(err)
	}
	h.RunUntil(wl.Jobs[len(wl.Jobs)-1].Submit)
	cp, err := h.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	query := func(horizon int64) *dismem.Result {
		f, err := dismem.Fork(cp, dismem.ForkOptions{Horizon: horizon})
		if err != nil {
			b.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	if prefix := query(cp.At()).Report; prefix.Completed < 1500 {
		b.Fatalf("checkpoint holds %d completed records, want at least 1,500", prefix.Completed)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, total := ms.Mallocs, ms.TotalAlloc
	jain := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jain += query(cp.At() + 1800).Recorder.Fairness().JainWait
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	if jain <= 0 {
		b.Fatal("queries read no fairness")
	}
	n := float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/query")
	b.ReportMetric(float64(ms.TotalAlloc-total)/n, "B/query")
}

// BenchmarkCheckpointEncode measures SaveCheckpoint throughput: the
// mid-trace checkpoint is serialized to its durable envelope (magic,
// version, schema fingerprint, JSON payload, SHA-256 digest) per
// iteration. It reports MB/s of envelope produced and bytes/ckpt, the
// envelope size, which is the number to watch for accidental state
// blowup.
func BenchmarkCheckpointEncode(b *testing.B) {
	b.ReportAllocs()
	cp, env := midTraceEnvelope(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(env))*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
	b.ReportMetric(float64(len(env)), "bytes/ckpt")
}

// BenchmarkCheckpointDecode measures LoadCheckpoint throughput on the
// same envelope: digest verification, strict JSON decode, and full
// engine state validation per iteration.
func BenchmarkCheckpointDecode(b *testing.B) {
	b.ReportAllocs()
	_, env := midTraceEnvelope(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dismem.LoadCheckpoint(bytes.NewReader(env)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(env))*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
	b.ReportMetric(float64(len(env)), "bytes/ckpt")
}
