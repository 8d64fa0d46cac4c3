// Package benchkit holds the bodies of the simulator's headline
// hot-path benchmarks so they can run both under `go test -bench`
// (bench_test.go at the repo root) and programmatically from
// cmd/dmbench, which records them as BENCH_<date>.json for the in-repo
// performance trajectory.
package benchkit

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dismem"
	"dismem/internal/cluster"
	"dismem/internal/core"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/serve"
	"dismem/internal/source"
	"dismem/internal/spec"
	"dismem/internal/workload"
)

// SimulationJobs is the workload size SimulationBench runs per
// iteration; the jobs/s metric is derived from it.
const SimulationJobs = 1000

// jobAlloc snapshots the allocator counters so a benchmark can report
// its per-job allocation discipline. Take one snapshot right before
// ResetTimer and report right after StopTimer:
//
//	a := allocSnapshot()
//	b.ResetTimer()
//	... timed loop ...
//	b.StopTimer()
//	a.reportPerJob(b, SimulationJobs)
//
// allocs/job is the number the alloc-budget regression test bounds:
// B/op and allocs/op scale with the per-iteration workload size, so
// the normalised form is what stays comparable across benchmarks and
// across workload-size changes.
type jobAlloc struct{ mallocs, bytes uint64 }

func allocSnapshot() jobAlloc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return jobAlloc{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (a jobAlloc) reportPerJob(b *testing.B, jobsPerOp int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(jobsPerOp) * float64(b.N)
	b.ReportMetric(float64(ms.Mallocs-a.mallocs)/n, "allocs/job")
	b.ReportMetric(float64(ms.TotalAlloc-a.bytes)/n, "B/job")
}

// MachineAllocRelease measures the cluster bookkeeping cycle.
func MachineAllocRelease(b *testing.B) {
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

// MemAwarePlan measures one placement decision on a half-loaded
// machine (the scheduler's inner loop).
func MemAwarePlan(b *testing.B) {
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

// ConservativePass measures one conservative-backfill pass
// (memaware-cons) on the Table 2 stressed machine: 64 GiB/node, 2 TiB
// rack pools, 8 GiB/s fabric. 40 jobs of the Table 2 workload run and
// the next 170 wait, about what that sweep's passes see, and a filler
// job holds the remaining nodes. No queued job fits now, so every pass
// plans the first MaxReservations jobs into the capacity profile,
// starts nothing and leaves the machine as it was; in steady state a
// pass allocates nothing. It reports ns/pass and allocs/pass.
func ConservativePass(b *testing.B) {
	const running, queued, now = 40, 170, 1 << 20
	cfg := cluster.DefaultConfig()
	cfg.PoolMiB = 2048 * 1024
	cfg.FabricGiBps = 8
	m := cluster.MustNew(cfg)
	model := memmodel.Bandwidth{Beta: 1, Gamma: 1}
	pol, err := spec.Parse("memaware-cons")
	if err != nil {
		b.Fatal(err)
	}

	wl := workload.MustGenerate(workload.DefaultGenConfig(2000, 1, cfg.TotalNodes()))
	ctx := &sched.Context{Now: now, Machine: m, Model: model, ExtendLimit: true}
	placer := core.New()
	start := func(j *workload.Job) bool {
		p := placer.Plan(j, m, model)
		if p == nil {
			return false
		}
		alloc, err := m.AllocateCopy(p.Alloc)
		if err != nil {
			b.Fatal(err)
		}
		// Half-way through its limit, so the releases spread over the
		// next few hours.
		ctx.Running = append(ctx.Running, sched.RunningJob{Job: j, Start: now - j.Estimate/2, Limit: j.Estimate, Alloc: alloc})
		return true
	}
	for _, j := range wl.Jobs {
		if len(ctx.Running) < running && start(j) {
			continue
		}
		if ctx.Queue = append(ctx.Queue, j); len(ctx.Queue) == queued {
			break
		}
	}
	filler := &workload.Job{ID: len(wl.Jobs) + 1, Nodes: m.FreeNodes(), MemPerNode: 1024, Estimate: 3600, BaseRuntime: 3600}
	if filler.Nodes > 0 && !start(filler) {
		b.Fatal("filler job did not fit the free nodes")
	}
	if len(ctx.Running) < running || len(ctx.Queue) != queued {
		b.Fatalf("fixture has %d running, %d queued", len(ctx.Running), len(ctx.Queue))
	}
	byEnd := ctx.ByEnd()
	ctx.ByEndFn = func() []sched.RunningJob { return byEnd }

	pass := func() {
		ctx.Reset()
		if d := pol.Pass(ctx); len(d) != 0 {
			b.Fatalf("pass started %d jobs on a full machine", len(d))
		}
	}
	pass() // grow the scheduler's scratch to its steady-state size
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(0, "ns/op") // one op is one pass: report it as ns/pass
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pass")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N), "allocs/pass")
}

// Simulation measures end-to-end simulated-jobs-per-second for the
// full memaware stack under the contention-sensitive model. It runs
// through the steppable Simulation handle (the path Simulate wraps), so
// the number also guards the handle's and the unused observer hooks'
// overhead: ~nothing.
func Simulation(b *testing.B) {
	b.ReportAllocs()
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	a := allocSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := dismem.New(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			b.Fatal("no jobs ran")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(SimulationJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	a.reportPerJob(b, SimulationJobs)
}

// BatchSimulation is Simulation on the batched multi-run path: one
// Runner executes the headline workload per iteration, so every run
// after the first reuses the previous run's machine (reset in place),
// DES event pool and engine scratch instead of rebuilding them. The
// jobs/s gap to Simulation is what dismem.RunBatch — and the sweep
// worker pool built on it — saves per run; results stay bit-identical
// to fresh construction (TestRunBatchMatchesLoopOfSimulate).
func BatchSimulation(b *testing.B) {
	b.ReportAllocs()
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	r := dismem.NewRunner(dismem.Options{
		Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
	})
	a := allocSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(dismem.RunSpec{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			b.Fatal("no jobs ran")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(SimulationJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	a.reportPerJob(b, SimulationJobs)
}

// SeriesSampling measures the price of live observation: the headline
// Simulation workload with the sampling tick chain armed at a
// 600-simulated-second period and every sample encoded to a discarded
// JSONL series stream. The jobs/s gap to Simulation (which never arms
// the chain) is the full cost of -series-out at this sampling rate —
// tick events, usage snapshots and JSON encoding included.
func SeriesSampling(b *testing.B) {
	b.ReportAllocs()
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	samples := 0
	a := allocSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counter := &countingWriter{}
		h, err := dismem.New(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
			SampleEvery: 600,
			SeriesSink:  dismem.NewJSONLSeriesSink(counter),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			b.Fatal("no jobs ran")
		}
		if counter.lines == 0 {
			b.Fatal("no samples streamed")
		}
		samples += counter.lines
	}
	b.StopTimer()
	b.ReportMetric(float64(SimulationJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(samples)/float64(b.N), "samples/run")
	a.reportPerJob(b, SimulationJobs)
}

// TraceSimulation measures the price of lifecycle tracing: the
// headline Simulation workload with every trace event (submit,
// dispatch, terminate, ...) encoded to a discarded JSONL trace stream.
// Tracing is event-driven — the sampling tick chain stays unarmed — so
// the jobs/s gap to Simulation (nil sink) is the full cost of
// -trace-out: event construction, placement extraction and JSON
// encoding included.
func TraceSimulation(b *testing.B) {
	b.ReportAllocs()
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	events := 0
	a := allocSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counter := &countingWriter{}
		h, err := dismem.New(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
			TraceSink: dismem.NewJSONLTraceSink(counter),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Jobs() == 0 {
			b.Fatal("no jobs ran")
		}
		if counter.lines == 0 {
			b.Fatal("no trace events streamed")
		}
		events += counter.lines
	}
	b.StopTimer()
	b.ReportMetric(float64(SimulationJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	a.reportPerJob(b, SimulationJobs)
}

// countingWriter counts JSONL lines on their way to the void.
type countingWriter struct{ lines int }

// Write implements io.Writer.
func (c *countingWriter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// CheckpointFork measures the checkpoint+fork overhead in isolation: a
// mid-trace Simulation (the SimulationJobs workload advanced to its
// submit-time midpoint) is checkpointed and forked once per iteration,
// without running the forked future. This is the cost a what-if study
// pays per variant on top of simulating the divergent suffix; the
// forks-per-second metric makes the comparison with a full prefix
// re-simulation direct.
func CheckpointFork(b *testing.B) {
	b.ReportAllocs()
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	h, err := dismem.New(dismem.Options{
		Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
	})
	if err != nil {
		b.Fatal(err)
	}
	mid := wl.Jobs[len(wl.Jobs)/2].Submit
	h.RunUntil(mid)
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

// midTraceCheckpoint freezes the standard benchmark simulation at its
// submit-time midpoint — the shared fixture for the checkpoint I/O
// benchmarks.
func midTraceCheckpoint(b *testing.B) *dismem.Checkpoint {
	b.Helper()
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	h, err := dismem.New(dismem.Options{
		Policy: "memaware", Model: "bandwidth:1,1", Workload: wl,
	})
	if err != nil {
		b.Fatal(err)
	}
	h.RunUntil(wl.Jobs[len(wl.Jobs)/2].Submit)
	cp, err := h.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return cp
}

// CheckpointEncode measures SaveCheckpoint throughput: a mid-trace
// checkpoint is serialized to its durable envelope (magic, version,
// schema fingerprint, JSON payload, SHA-256 digest) per iteration.
// Reported metrics: MB/s of envelope produced and bytes/ckpt, the
// envelope size for the standard fixture — the number to watch for
// accidental state-blowup across PRs.
func CheckpointEncode(b *testing.B) {
	b.ReportAllocs()
	cp := midTraceCheckpoint(b)
	var buf bytes.Buffer
	if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
		b.Fatal(err)
	}
	size := buf.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
	b.ReportMetric(float64(size), "bytes/ckpt")
}

// CheckpointDecode measures LoadCheckpoint throughput on the same
// fixture: digest verification, strict JSON decode, and full engine
// state validation per iteration.
func CheckpointDecode(b *testing.B) {
	b.ReportAllocs()
	cp := midTraceCheckpoint(b)
	var buf bytes.Buffer
	if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
		b.Fatal(err)
	}
	env := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dismem.LoadCheckpoint(bytes.NewReader(env)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(env))*float64(b.N)/1e6/b.Elapsed().Seconds(), "MB/s")
	b.ReportMetric(float64(len(env)), "bytes/ckpt")
}

// StreamingReplay100k runs the streaming-replay benchmark at 100k jobs;
// its peak-heap metric is the reference the 1M run is compared against
// (flat within 2x = memory independent of job count).
func StreamingReplay100k(b *testing.B) { streamingReplay(b, 100_000) }

// StreamingReplay1M is the headline bounded-memory benchmark: a
// million-job SWF trace replayed through SWFSource with the
// online-aggregate (discard) sink.
func StreamingReplay1M(b *testing.B) { streamingReplay(b, 1_000_000) }

// streamingReplay measures end-to-end streamed trace replay: a Lublin
// SWF trace of n jobs is generated to disk once (itself streamed, flat
// memory), then each iteration replays it from the file through
// SWFSource with bounded metrics recording. Reported metrics: jobs/s,
// B/job (allocation churn per job — each decoded job is a short-lived
// allocation, so total B/op necessarily scales with n), and
// peakheap-MB, the live-heap high-water mark sampled every 20k
// terminations — the number that must stay flat as n grows.
func streamingReplay(b *testing.B, n int) {
	b.ReportAllocs()
	path := filepath.Join(b.TempDir(), "trace.swf")
	writeLublinTrace(b, path, n)

	a := allocSnapshot()
	b.ResetTimer()
	var peak uint64
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		obs := &heapWatcher{}
		h, err := dismem.New(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1",
			Source:     dismem.SWFSource(f, workload.SWFReadOptions{DefaultMemPerNode: 32 * 1024}),
			RecordSink: dismem.DiscardRecords,
			Observer:   obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Report.Jobs() + res.Report.Rejected; got != n {
			b.Fatalf("replayed %d jobs, want %d", got, n)
		}
		f.Close()
		if obs.peak > peak {
			peak = obs.peak
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(peak)/1e6, "peakheap-MB")
	a.reportPerJob(b, n)
}

// replayInterarrival thins the Lublin arrival process so the default
// machine keeps up (offered load ≈ 0.76 at 1800 s): the queue — the
// one engine structure that scales with backlog — stays shallow, and
// peak heap genuinely measures the streaming path, not an unbounded
// saturation backlog.
const replayInterarrival = 1800

// writeLublinTrace streams an n-job Lublin trace to path.
func writeLublinTrace(b *testing.B, path string, n int) {
	b.Helper()
	cfg := workload.DefaultLublinConfig(0, 1, cluster.DefaultConfig().TotalNodes())
	cfg.MeanInterarrival = replayInterarrival
	st, err := workload.NewLublinStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := workload.NewSWFWriter(f).WriteAll(source.Gen(st, n, 0).Next); err != nil {
		b.Fatal(err)
	}
}

// heapWatcher samples the live heap every 20k job terminations
// (ReadMemStats is too expensive per event) and keeps the high-water
// mark. Read-only w.r.t. engine state, like every observer.
type heapWatcher struct {
	dismem.NopObserver
	terminated int
	peak       uint64
}

// OnTerminate implements dismem.Observer.
func (hw *heapWatcher) OnTerminate(int64, dismem.JobRecord) {
	hw.terminated++
	if hw.terminated%20_000 != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > hw.peak {
		hw.peak = ms.HeapAlloc
	}
}

// ScenarioSimulation is Simulation with an active intervention
// timeline: a 12-hour rack outage plus a diurnal arrival cycle. It
// measures the scenario subsystem's end-to-end overhead — the arrival
// time-warp, the intervention events, the kill/resubmit churn, and the
// extra scheduling passes they trigger.
func ScenarioSimulation(b *testing.B) {
	b.ReportAllocs()
	sc, err := dismem.ParseScenario(
		"at=21600 down rack=2; at=64800 up rack=2; from=0 period=86400 amp=0.4 diurnal")
	if err != nil {
		b.Fatal(err)
	}
	wl := dismem.SyntheticWorkload(SimulationJobs, 1)
	a := allocSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := dismem.New(dismem.Options{
			Policy: "memaware", Model: "bandwidth:1,1", Workload: wl, Scenario: sc,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Jobs() == 0 || res.ScenarioEvents == 0 {
			b.Fatal("scenario run degenerate")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(SimulationJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	a.reportPerJob(b, SimulationJobs)
}

// ServeQueries measures the serving layer (internal/serve) end to end:
// one baseline (SimulationJobs jobs) is driven to completion and frozen
// into a checkpoint ring, then concurrent short-horizon /v1/whatif
// queries — fork the t=21600 checkpoint, replay a two-hour divergent
// future — are hammered through the HTTP handler from all procs. It
// reports queries/s plus p50/p99 fork-to-response latency, the
// service-level numbers the ring + fork design buys (a query costs a
// fork and a tail replay, never the prefix).
func ServeQueries(b *testing.B) {
	srv, err := serve.New(serve.Config{
		Options: dismem.Options{
			Policy:   "memaware",
			Workload: dismem.SyntheticWorkload(SimulationJobs, 1),
		},
		CkptDir:   b.TempDir(),
		CkptEvery: 7200,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	for !srv.Status().BaselineDone {
		time.Sleep(time.Millisecond)
	}

	h := srv.Handler()
	const body = `{"at": 21600, "scenario": "at=22000 down rack=2; at=22900 up rack=2", "horizon": 23400}`
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/whatif", strings.NewReader(body)))
		return rec
	}
	// Warm the baseline-delta cache: steady-state latency is the number
	// that matters for a long-lived service.
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up query: %d: %s", rec.Code, rec.Body)
	}

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 256)
		for pb.Next() {
			start := time.Now()
			rec := post()
			d := time.Since(start)
			if rec.Code != http.StatusOK {
				b.Errorf("what-if query: %d: %s", rec.Code, rec.Body)
				return
			}
			local = append(local, d)
		}
		mu.Lock()
		latencies = append(latencies, local...)
		mu.Unlock()
	})
	b.StopTimer()
	cancel()
	<-done

	if len(latencies) == 0 {
		b.Fatal("no queries completed")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) float64 {
		i := len(latencies) * p / 100
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return float64(latencies[i].Nanoseconds()) / 1e6
	}
	b.ReportMetric(float64(len(latencies))/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(pct(50), "p50-ms")
	b.ReportMetric(pct(99), "p99-ms")
}
