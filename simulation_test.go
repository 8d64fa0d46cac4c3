package dismem_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dismem"
	"dismem/internal/spec"
	"dismem/internal/sweep"
)

// --- spec grammar round-trip --------------------------------------------

// TestLegacyNamesRoundTripThroughSpecs proves backward compatibility of
// the policy grammar: for every legacy policy name, the scheduler built
// from the name and the scheduler built from its canonical spec string
// produce bit-identical simulations.
func TestLegacyNamesRoundTripThroughSpecs(t *testing.T) {
	wl := dismem.SyntheticWorkload(400, 3)
	mc := dismem.DefaultMachine()
	mc.PoolMiB = 2 * 1024 * 1024
	mc.FabricGiBps = 8

	n := 0
	for _, name := range dismem.Policies() {
		canonical, ok := spec.AliasSpec(name)
		if !ok {
			t.Fatalf("policy %q has no alias spec", name)
		}
		n++
		viaName, err := dismem.Simulate(dismem.Options{
			Machine: mc, Policy: name, Model: "bandwidth:1,1", Workload: wl,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		viaSpec, err := dismem.Simulate(dismem.Options{
			Machine: mc, Policy: canonical, Model: "bandwidth:1,1", Workload: wl,
		})
		if err != nil {
			t.Fatalf("%s via spec %q: %v", name, canonical, err)
		}
		if !reflect.DeepEqual(viaName.Recorder.Records(), viaSpec.Recorder.Records()) {
			t.Errorf("policy %q and its spec %q diverged", name, canonical)
		}
		if viaName.Events != viaSpec.Events {
			t.Errorf("policy %q: %d events via name, %d via spec", name, viaName.Events, viaSpec.Events)
		}
	}
	if n < 13 {
		t.Fatalf("only %d legacy aliases round-tripped; expected the full evaluation set", n)
	}
}

// TestHeadlineTablesDeterministicThroughParser regenerates the paper's
// headline and ablation tables (which exercise the legacy names through
// the spec parser) twice at reduced scale: any
// nondeterminism or name/spec mismatch shows up as an output diff. Each
// render must also equal its golden in testdata/ (<id>_200x1.csv), so a
// change that moves any scheduling decision, such as a conservative
// planner returning a later-but-valid start, fails here too.
func TestHeadlineTablesDeterministicThroughParser(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep in -short mode")
	}
	o := sweep.Options{Jobs: 200, Seeds: 1}
	for _, id := range []string{"table2", "table3"} {
		render := func() string {
			tables, err := sweep.Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			out := ""
			for _, tb := range tables {
				out += tb.CSV()
			}
			return out
		}
		a, b := render(), render()
		if a != b {
			t.Errorf("%s output not reproducible through the spec parser:\n--- first\n%s--- second\n%s", id, a, b)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", id+"_200x1.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if a != string(golden) {
			t.Errorf("%s output differs from its golden:\n--- golden\n%s--- got\n%s", id, golden, a)
		}
	}
}

// --- Simulation handle ----------------------------------------------------

func TestHandleMatchesSimulate(t *testing.T) {
	wl := dismem.SyntheticWorkload(300, 9)
	direct, err := dismem.Simulate(dismem.Options{Policy: "memaware", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}

	// Same run, advanced in one-hour slices with live queries between.
	h, err := dismem.New(dismem.Options{Policy: "memaware", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if h.Now() != 0 {
		t.Fatalf("clock at %d before first step", h.Now())
	}
	if _, err := h.Result(); err == nil {
		t.Fatal("Result succeeded with pending events")
	}
	last := int64(0)
	for !h.Done() {
		h.RunUntil(last + 3600)
		if h.Now() < last {
			t.Fatalf("clock moved backwards: %d -> %d", last, h.Now())
		}
		last = h.Now()
		if q, r := h.QueueDepth(), h.Running(); q < 0 || r < 0 {
			t.Fatalf("negative live state: queue %d running %d", q, r)
		}
		if u := h.Usage(); u.BusyNodes < 0 || u.BusyNodes > 256 {
			t.Fatalf("busy nodes %d out of range", u.BusyNodes)
		}
	}
	res, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Recorder.Records(), res.Recorder.Records()) {
		t.Fatal("stepped run diverged from Simulate")
	}
	if res.Stopped {
		t.Fatal("completed run marked stopped")
	}
	// Result is idempotent.
	again, err := h.Result()
	if err != nil || again != res {
		t.Fatalf("second Result = (%p, %v), want cached (%p, nil)", again, err, res)
	}
}

func TestHandleStepGranularity(t *testing.T) {
	wl := dismem.SyntheticWorkload(50, 2)
	h, err := dismem.New(dismem.Options{Policy: "easy-local", Machine: dismem.BaselineMachine(256 * 1024), Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for h.Step() {
		steps++
	}
	if steps == 0 {
		t.Fatal("no events fired")
	}
	if uint64(steps) != h.Events() {
		t.Fatalf("stepped %d times but %d events fired", steps, h.Events())
	}
	if !h.Done() {
		t.Fatal("drained handle not done")
	}
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleStopTruncates(t *testing.T) {
	wl := dismem.SyntheticWorkload(500, 4)
	h, err := dismem.New(dismem.Options{Policy: "memaware", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	// Run a prefix, then stop mid-flight.
	h.RunUntil(24 * 3600)
	if h.Done() {
		t.Skip("workload finished within the prefix; nothing to truncate")
	}
	h.Stop()
	if !h.Done() {
		t.Fatal("stopped handle not done")
	}
	res, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("truncated result not marked Stopped")
	}
	if got := res.Report.Jobs() + res.Report.Rejected; got >= 500 {
		t.Fatalf("truncated run recorded %d terminal jobs, want < 500", got)
	}
	if h.Step() {
		t.Fatal("Step made progress after Stop")
	}
}

// --- machine validation ---------------------------------------------------

func TestOptionsMachineValidation(t *testing.T) {
	wl := dismem.SyntheticWorkload(10, 1)
	bad := []dismem.MachineConfig{
		func() dismem.MachineConfig { m := dismem.DefaultMachine(); m.LocalMemMiB = -1; return m }(),
		func() dismem.MachineConfig { m := dismem.DefaultMachine(); m.CoresPerNode = 0; return m }(),
		func() dismem.MachineConfig { m := dismem.DefaultMachine(); m.PoolMiB = -5; return m }(),
		func() dismem.MachineConfig { m := dismem.DefaultMachine(); m.FabricGiBps = 0; return m }(),
		// Partially filled configs are no longer silently swapped for
		// the default machine (the old mc.Racks == 0 heuristic).
		{PoolMiB: 4096},
		{Racks: 16},
	}
	for i, mc := range bad {
		if _, err := dismem.Simulate(dismem.Options{Machine: mc, Policy: "memaware", Workload: wl}); err == nil {
			t.Errorf("case %d: nonsense machine %+v accepted", i, mc)
		}
	}
	// The exact zero value still selects the documented default.
	if _, err := dismem.Simulate(dismem.Options{Policy: "memaware", Workload: wl}); err != nil {
		t.Fatalf("zero machine rejected: %v", err)
	}
}

// --- observers ------------------------------------------------------------

// countingObserver tallies every hook and checks the sample invariants.
type countingObserver struct {
	t          *testing.T
	dispatches int
	terminals  int
	passes     int
	samples    int
	scenarios  int
	lastSample int64
	every      int64
}

func (c *countingObserver) OnScenarioEvent(now int64, ev dismem.ScenarioEvent) {
	c.scenarios++
	if now != ev.At {
		c.t.Errorf("scenario event scheduled for %d applied at %d", ev.At, now)
	}
}

func (c *countingObserver) OnDispatch(now int64, job *dismem.Job, remoteMiB int64, dil float64) {
	c.dispatches++
	if job == nil || dil < 1 || remoteMiB < 0 {
		c.t.Errorf("bad dispatch: job %v remote %d dil %g", job, remoteMiB, dil)
	}
}

func (c *countingObserver) OnTerminate(now int64, rec dismem.JobRecord) {
	c.terminals++
	if !rec.Rejected && rec.End != now {
		c.t.Errorf("terminate at %d for record ending %d", now, rec.End)
	}
}

func (c *countingObserver) OnPassEnd(now int64, dispatched, queueDepth int) {
	c.passes++
	if dispatched < 0 || queueDepth < 0 {
		c.t.Errorf("bad pass: %d dispatched %d queued", dispatched, queueDepth)
	}
}

func (c *countingObserver) OnSample(s dismem.Sample) {
	c.samples++
	if s.Now%c.every != 0 {
		c.t.Errorf("sample at %d not on the %d s grid", s.Now, c.every)
	}
	if s.Now <= c.lastSample {
		c.t.Errorf("samples not strictly advancing: %d after %d", s.Now, c.lastSample)
	}
	c.lastSample = s.Now
}

func TestObserverHooks(t *testing.T) {
	const jobs = 300
	wl := dismem.SyntheticWorkload(jobs, 5)
	obs := &countingObserver{t: t, every: 3600}
	withObs, err := dismem.Simulate(dismem.Options{
		Policy: "memaware", Workload: wl, Observer: obs, SampleEvery: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.terminals != jobs {
		t.Errorf("OnTerminate fired %d times for %d jobs", obs.terminals, jobs)
	}
	r := withObs.Report
	if want := r.Jobs() - r.Killed; obs.dispatches < want {
		t.Errorf("OnDispatch fired %d times, want >= %d", obs.dispatches, want)
	}
	if obs.passes == 0 || obs.samples == 0 {
		t.Errorf("passes %d samples %d, want both > 0", obs.passes, obs.samples)
	}

	// Observation must not change scheduling: same run without the
	// observer yields identical records (sampling adds DES events, so
	// only the event count may differ).
	plain, err := dismem.Simulate(dismem.Options{Policy: "memaware", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Recorder.Records(), withObs.Recorder.Records()) {
		t.Fatal("observer changed simulation outcomes")
	}
	if plain.Report.MakespanSec != withObs.Report.MakespanSec ||
		plain.Report.NodeUtil != withObs.Report.NodeUtil {
		t.Fatal("observer changed report aggregates")
	}
}

func TestObserverStopFromCallback(t *testing.T) {
	wl := dismem.SyntheticWorkload(500, 6)
	var h *dismem.Simulation
	var stopped atomic.Bool
	stopAt := &stopAfterObserver{cut: 12 * 3600, stop: func() { stopped.Store(true); h.Stop() }}
	h, err := dismem.New(dismem.Options{
		Policy: "memaware", Workload: wl, Observer: stopAt, SampleEvery: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stopped.Load() {
		t.Skip("run ended before the stop threshold")
	}
	if !res.Stopped {
		t.Fatal("result of callback-stopped run not marked Stopped")
	}
	if h.Now() != 12*3600 {
		t.Fatalf("stopped at t=%d, want the 12 h sample tick", h.Now())
	}
}

// stopAfterObserver stops the simulation at the first sample at or
// past cut.
type stopAfterObserver struct {
	dismem.NopObserver
	cut  int64
	stop func()
}

func (s *stopAfterObserver) OnSample(smp dismem.Sample) {
	if smp.Now >= s.cut {
		s.stop()
	}
}
