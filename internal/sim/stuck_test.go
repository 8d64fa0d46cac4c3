package sim

import (
	"strings"
	"testing"
)

// stuckCfg takes the only rack down for good at t=50: every job queued
// from then on can never start.
func stuckCfg() Config {
	cfg := Config{Machine: tinyMachine(0, 0), Scheduler: easyLocal()}
	cfg.Scenario = mustScenario("at=50 down rack=0")
	return cfg
}

// tickBudget counts sampling ticks and stops the engine once they pass
// a budget no terminating run reaches, so a run that keeps ticking
// fails the test instead of hanging it.
type tickBudget struct {
	NopObserver
	e     *Engine
	ticks int
}

func (b *tickBudget) OnSample(Sample) {
	if b.ticks++; b.ticks > 10000 {
		b.e.Stop()
	}
}

// TestStuckSampledRunEndsLoudly pins that a sampled run whose queue can
// never drain ends: RunAll returns once only the sampling tick is
// pending, and Finish reports the jobs that never terminated.
func TestStuckSampledRunEndsLoudly(t *testing.T) {
	obs := &tickBudget{}
	cfg := stuckCfg()
	cfg.SampleEvery = 100
	cfg.Outputs = Outputs{Observer: obs}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs.e = e
	if err := e.Start(steppableWorkload()); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if obs.ticks > 10000 {
		t.Fatal("RunAll kept sampling a stuck run")
	}
	if _, err := e.Finish(); err == nil || !strings.Contains(err.Error(), "never terminated") {
		t.Fatalf("Finish on a stuck run: %v, want a never-terminated error", err)
	}
}

// TestStuckRunDriveLoopEnds pins that the `for !Done() { RunUntil }`
// drive loop ends on a stuck run, sampled or not, instead of advancing
// an empty clock forever.
func TestStuckRunDriveLoopEnds(t *testing.T) {
	for _, every := range []int64{0, 100} {
		cfg := stuckCfg()
		cfg.SampleEvery = every
		cfg.Outputs = Outputs{Observer: NopObserver{}}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(steppableWorkload()); err != nil {
			t.Fatal(err)
		}
		for i := 0; !e.Done(); i++ {
			if i == 1000 {
				t.Fatalf("SampleEvery=%d: drive loop still running at t=%d", every, e.Now())
			}
			e.RunUntil(e.Now() + 1000)
		}
		if _, err := e.Finish(); err == nil || !strings.Contains(err.Error(), "never terminated") {
			t.Fatalf("SampleEvery=%d: Finish on a stuck run: %v, want a never-terminated error", every, err)
		}
	}
}
