package dismem

// Bit-identity pins for the batched engine: a run executed through a
// Runner — on a machine reset from the previous run, with recycled
// event and scratch pools — must be indistinguishable, byte for byte,
// from the same run built from nothing. These tests are the contract
// named by sim.NewReusing's documentation.

import (
	"bytes"
	"reflect"
	"testing"
)

// runCapture holds one run's observable output: the structured result
// plus the raw bytes of every streaming sink.
type runCapture struct {
	res     *Result
	records bytes.Buffer
	series  bytes.Buffer
	trace   bytes.Buffer
}

// sinkOpts attaches fresh capture sinks to o and returns the capture.
func sinkOpts(o Options) (Options, *runCapture) {
	c := &runCapture{}
	o.RecordSink = NewJSONLSink(&c.records)
	o.SeriesSink = NewCSVSeriesSink(&c.series)
	o.TraceSink = NewJSONLTraceSink(&c.trace)
	if o.SampleEvery == 0 {
		o.SampleEvery = 1800
	}
	return o, c
}

// assertSameRun fails unless got (batched) and want (fresh) are
// byte-identical across report, events, and all three sink streams.
func assertSameRun(t *testing.T, i int, got, want *runCapture) {
	t.Helper()
	if !reflect.DeepEqual(got.res.Report, want.res.Report) {
		t.Errorf("run %d: report diverged\nbatched: %+v\nfresh:   %+v", i, got.res.Report, want.res.Report)
	}
	if got.res.Events != want.res.Events {
		t.Errorf("run %d: events = %d, fresh run fired %d", i, got.res.Events, want.res.Events)
	}
	if got.res.Stopped != want.res.Stopped || got.res.ScenarioEvents != want.res.ScenarioEvents {
		t.Errorf("run %d: stopped/scenario = %v/%d, want %v/%d", i,
			got.res.Stopped, got.res.ScenarioEvents, want.res.Stopped, want.res.ScenarioEvents)
	}
	if !bytes.Equal(got.records.Bytes(), want.records.Bytes()) {
		t.Errorf("run %d: record stream diverged (%d vs %d bytes)", i, got.records.Len(), want.records.Len())
	}
	if !bytes.Equal(got.series.Bytes(), want.series.Bytes()) {
		t.Errorf("run %d: series stream diverged (%d vs %d bytes)", i, got.series.Len(), want.series.Len())
	}
	if !bytes.Equal(got.trace.Bytes(), want.trace.Bytes()) {
		t.Errorf("run %d: trace stream diverged (%d vs %d bytes)", i, got.trace.Len(), want.trace.Len())
	}
}

// TestRunnerMatchesLoopOfSimulate drives a heterogeneous sequence of
// runs — policies, models, scenarios, failures and shared workloads all
// vary from run to run — through one Runner and through a loop of
// independent Simulate calls on identical options, and requires every
// observable output to match exactly.
func TestRunnerMatchesLoopOfSimulate(t *testing.T) {
	wlA := SyntheticWorkload(300, 1)
	wlB := SyntheticWorkload(300, 2)
	scen, err := ParseScenario("at=3600 down rack=1; at=14400 up rack=1")
	if err != nil {
		t.Fatal(err)
	}
	const policy, model = "memaware", "bandwidth:1,1"
	fails := &FailureConfig{MTBFPerNodeSec: 400000, RepairSec: 1800, Seed: 7}
	runs := []Options{
		{Policy: policy, Model: model, Workload: wlA},
		{Policy: "order=sjf backfill=conservative placer=spill", Model: model, Workload: wlB},
		{Policy: policy, Model: "linear:0.7", Workload: wlA},
		{Policy: policy, Model: model, Workload: wlB, Scenario: scen},
		{Policy: policy, Model: model, Workload: wlA, StrictKill: true, Failures: fails},
		{Policy: policy, Model: model, Workload: wlA}, // repeat of run 0: reuse after heterogeneity
	}

	r := NewRunner()
	for i, opts := range runs {
		o, got := sinkOpts(opts)
		if got.res, err = r.Run(o); err != nil {
			t.Fatalf("Runner run %d: %v", i, err)
		}
		o, want := sinkOpts(opts)
		if want.res, err = Simulate(o); err != nil {
			t.Fatalf("Simulate run %d: %v", i, err)
		}
		assertSameRun(t, i, got, want)
		if !reflect.DeepEqual(got.res.Recorder.Records(), want.res.Recorder.Records()) {
			t.Errorf("run %d: retained records diverged", i)
		}
	}
}

// TestRunnerReuseBitIdentical re-runs identical options through one
// Runner (maximum state recycling: same machine, reset in place) and
// checks every repetition against a fresh Simulate.
func TestRunnerReuseBitIdentical(t *testing.T) {
	wl := SyntheticWorkload(250, 3)
	opts := Options{Policy: "memaware", Model: "step:1,2", Workload: wl}

	r := NewRunner()
	for i := 0; i < 3; i++ {
		o, got := sinkOpts(opts)
		got.res, _ = r.Run(o)
		if got.res == nil {
			t.Fatalf("run %d failed", i)
		}
		o, want := sinkOpts(opts)
		want.res, _ = Simulate(o)
		assertSameRun(t, i, got, want)
	}

	// A machine-config change mid-batch falls back to fresh
	// construction and must stay exact too.
	small := DefaultMachine()
	small.Racks = 2
	o, got := sinkOpts(Options{Machine: small, Policy: "memaware", Workload: wl})
	var err error
	got.res, err = r.Run(o)
	if err != nil {
		t.Fatalf("machine-change run: %v", err)
	}
	o, want := sinkOpts(Options{Machine: small, Policy: "memaware", Workload: wl})
	want.res, _ = Simulate(o)
	assertSameRun(t, 99, got, want)
}

// TestRunnerReuseAfterStoppedRun retires a run halted mid-flight —
// queue, running set and pending events all non-empty — and checks the
// next run on the Runner is untouched by the leftovers.
func TestRunnerReuseAfterStoppedRun(t *testing.T) {
	wl := SyntheticWorkload(250, 3)
	opts := Options{Policy: "memaware", Workload: wl}

	r := NewRunner()
	h, err := r.NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	h.RunUntil(7200)
	h.Stop()
	if _, err := h.Result(); err != nil {
		t.Fatalf("stopped run result: %v", err)
	}
	r.Retire(h)

	o, got := sinkOpts(opts)
	got.res, err = r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o, want := sinkOpts(opts)
	want.res, _ = Simulate(o)
	assertSameRun(t, 0, got, want)
}
