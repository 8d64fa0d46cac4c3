package sim

import (
	"testing"

	"dismem/internal/workload"
)

// steppableWorkload is a small trace with staggered arrivals so the
// engine is observably mid-flight between events.
func steppableWorkload() *workload.Workload {
	w := &workload.Workload{Name: "steppable"}
	for i := 0; i < 20; i++ {
		w.Jobs = append(w.Jobs, &workload.Job{
			ID: i + 1, Submit: int64(i * 100), Nodes: 1, MemPerNode: 500,
			Estimate: 400, BaseRuntime: 300,
		})
	}
	w.Sort()
	return w
}

func TestEngineLifecycleGuards(t *testing.T) {
	cfg := Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finish(); err == nil {
		t.Fatal("Finish before Start accepted")
	}
	w := steppableWorkload()
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err == nil {
		t.Fatal("second Start accepted")
	}
	e.RunAll()
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := e.Finish(); err != nil || again != res {
		t.Fatal("Finish not idempotent")
	}
}

func TestEngineStepwiseEqualsRun(t *testing.T) {
	cfg := Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal(), CheckInvariants: true}
	whole, err := Run(cfg, steppableWorkload())
	if err != nil {
		t.Fatal(err)
	}

	cfg.Scheduler = easyLocal()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(steppableWorkload()); err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		before := e.Now()
		if !e.Step() {
			break
		}
		if e.Now() < before {
			t.Fatalf("clock moved backwards: %d -> %d", before, e.Now())
		}
		if e.QueueDepth() < 0 || e.RunningCount() < 0 {
			t.Fatal("negative live state")
		}
		s := e.Sample()
		if s.Running != e.RunningCount() || s.QueueDepth != e.QueueDepth() || s.Now != e.Now() {
			t.Fatalf("Sample %+v disagrees with live queries", s)
		}
	}
	stepped, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Events != whole.Events ||
		stepped.Report.MakespanSec != whole.Report.MakespanSec ||
		stepped.Report.Wait.Mean() != whole.Report.Wait.Mean() {
		t.Fatal("stepwise execution diverged from Run")
	}
}

func TestEngineRunUntilHoldsClock(t *testing.T) {
	cfg := Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(steppableWorkload()); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(550)
	if e.Now() != 550 {
		t.Fatalf("clock at %d after RunUntil(550)", e.Now())
	}
	// Arrivals at 0..500 have fired; 600.. have not.
	if got := e.Events(); got == 0 {
		t.Fatal("no events fired by 550")
	}
	if e.Done() {
		t.Fatal("done with arrivals still pending")
	}
	e.RunAll()
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStopTruncates(t *testing.T) {
	cfg := Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(steppableWorkload()); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(500)
	e.Stop()
	if !e.Done() {
		t.Fatal("stopped engine not done")
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("truncated result not marked Stopped")
	}
	if n := res.Report.Jobs(); n == 0 || n >= 20 {
		t.Fatalf("truncated run recorded %d jobs, want a proper prefix", n)
	}
}

// samplingObserver records sample instants.
type samplingObserver struct {
	NopObserver
	at []int64
}

func (s *samplingObserver) OnSample(smp Sample) { s.at = append(s.at, smp.Now) }

func TestSamplingStopsWithLastJob(t *testing.T) {
	obs := &samplingObserver{}
	cfg := Config{
		Machine: tinyMachine(0, 0), Scheduler: easyLocal(),
		SampleEvery: 50, Outputs: Outputs{Observer: obs},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(steppableWorkload()); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.at) == 0 {
		t.Fatal("no samples fired")
	}
	last := res.Report.MakespanSec // last terminate instant for Submit-0 traces
	for i, at := range obs.at {
		if at%50 != 0 {
			t.Fatalf("sample %d at %d off the 50 s grid", i, at)
		}
		if at > last {
			t.Fatalf("sample at %d after the last termination %d stretched the run", at, last)
		}
	}
}
