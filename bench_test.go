// Benchmarks regenerating every table and figure of the reconstructed
// evaluation (DESIGN.md §4), plus micro-benchmarks of the simulator's
// hot paths. Each experiment benchmark runs the corresponding sweep at
// a reduced-but-meaningful scale per iteration; run
//
//	go test -bench=. -benchmem
//
// and use `go run ./cmd/dmsweep -exp <id>` for the full-scale numbers
// recorded in EXPERIMENTS.md.
package dismem_test

import (
	"testing"

	"dismem/internal/benchkit"
	"dismem/internal/des"
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
func BenchmarkMachineAllocRelease(b *testing.B) { benchkit.MachineAllocRelease(b) }

// BenchmarkMemAwarePlan measures one placement decision on a half-loaded
// machine (the scheduler's inner loop).
func BenchmarkMemAwarePlan(b *testing.B) { benchkit.MemAwarePlan(b) }

// BenchmarkConservativePass measures one conservative-backfill planning
// pass (memaware-cons) over a 170-job queue on the Table 2 stressed
// machine, reporting ns/pass and allocs/pass (0 in steady state).
func BenchmarkConservativePass(b *testing.B) { benchkit.ConservativePass(b) }

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

// BenchmarkSimulation measures end-to-end simulated-jobs-per-second for
// the full memaware stack under the contention-sensitive model.
func BenchmarkSimulation(b *testing.B) { benchkit.Simulation(b) }

// BenchmarkBatchSimulation is BenchmarkSimulation on the batched
// multi-run path: one Runner per benchmark, machine and pools recycled
// between runs (see dismem.RunBatch).
func BenchmarkBatchSimulation(b *testing.B) { benchkit.BatchSimulation(b) }

// BenchmarkScenarioSimulation is BenchmarkSimulation with an active
// intervention timeline (rack outage + diurnal cycle), guarding the
// scenario subsystem's end-to-end overhead.
func BenchmarkScenarioSimulation(b *testing.B) { benchkit.ScenarioSimulation(b) }

// BenchmarkSeriesSampling is BenchmarkSimulation with the sampling tick
// chain armed (600 s period) and every sample JSON-encoded to a
// discarded series stream: the full end-to-end price of -series-out.
// `go run ./cmd/dmbench -series` records it, with Simulation as the
// sampling-off reference, as BENCH_<date>_series.json.
func BenchmarkSeriesSampling(b *testing.B) { benchkit.SeriesSampling(b) }

// BenchmarkTraceSimulation is BenchmarkSimulation with every lifecycle
// trace event JSON-encoded to a discarded trace stream: the full
// end-to-end price of -trace-out (tracing is event-driven, so no
// sampling tick chain is armed). `go run ./cmd/dmbench -trace` records
// it, with Simulation as the nil-sink reference, as
// BENCH_<date>_trace.json.
func BenchmarkTraceSimulation(b *testing.B) { benchkit.TraceSimulation(b) }

// BenchmarkStreamingReplay measures bounded-memory trace replay: a
// 100k-job SWF trace streamed through SWFSource with the
// online-aggregate sink, reporting jobs/s and the live-heap high-water
// mark (peakheap-MB). `go run ./cmd/dmbench -stream` runs this and the
// 1M-job variant and records BENCH_<date>_stream.json; the 1M peak
// heap staying within 2x of the 100k one is the subsystem's memory
// contract (DESIGN.md §7).
func BenchmarkStreamingReplay(b *testing.B) { benchkit.StreamingReplay100k(b) }

// BenchmarkFig11OutageSeverity regenerates the outage-severity sweep.
func BenchmarkFig11OutageSeverity(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkCheckpointFork measures checkpoint+fork of a mid-trace
// simulation (state cloning only, the forked future is not run): the
// per-variant overhead of shared-prefix what-if studies. `go run
// ./cmd/dmbench -fork` records it as BENCH_<date>_fork.json.
func BenchmarkCheckpointFork(b *testing.B) { benchkit.CheckpointFork(b) }

// BenchmarkCheckpointEncode / BenchmarkCheckpointDecode measure the
// durable checkpoint envelope (SaveCheckpoint/LoadCheckpoint): encode
// and verified decode throughput in MB/s plus the fixture's envelope
// size in bytes/ckpt. `go run ./cmd/dmbench -ckptio` records both as
// BENCH_<date>_ckptio.json.
func BenchmarkCheckpointEncode(b *testing.B) { benchkit.CheckpointEncode(b) }
func BenchmarkCheckpointDecode(b *testing.B) { benchkit.CheckpointDecode(b) }

// BenchmarkServeQueries measures the serving layer end to end:
// concurrent short-horizon /v1/whatif queries against a completed
// baseline's checkpoint ring, reporting queries/s and p50/p99
// fork-to-response latency. `go run ./cmd/dmbench -serve` records it
// as BENCH_<date>_serve.json.
func BenchmarkServeQueries(b *testing.B) { benchkit.ServeQueries(b) }
