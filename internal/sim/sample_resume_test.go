package sim

import (
	"testing"
)

// tickRecorder counts periodic sampling ticks and the instants they
// fired at.
type tickRecorder struct {
	NopObserver
	ticks []int64
}

func (r *tickRecorder) OnSample(s Sample) { r.ticks = append(r.ticks, s.Now) }

// sampleCfg is the sampling-enabled fork configuration: the full
// adversarial stack plus a tick period deliberately coprime with the
// checkpoint instants below, so checkpoints land mid-tick.
func sampleCfg(obs Observer) Config {
	cfg := forkCfg()
	cfg.Observer = obs
	cfg.SampleEvery = 700
	return cfg
}

// TestSampleChainResumesInPhase is the regression test for the
// sampler-determinism fix: a run checkpointed mid-tick and resumed
// with a fresh observer must emit exactly the ticks the uninterrupted
// run emits — same instants, same count, and bit-identical results
// (including the DES event count, which sampling contributes to).
// Before the fix, the pending tick was dropped at checkpoint and
// re-armed at the resume instant, phase-shifting every subsequent
// sample.
func TestSampleChainResumesInPhase(t *testing.T) {
	w := testWorkload(250, 3)

	clean := &tickRecorder{}
	fresh := runSlice(t, sampleCfg(clean), w)
	if len(clean.ticks) < 10 {
		t.Fatalf("degenerate fixture: only %d sampling ticks", len(clean.ticks))
	}

	// 1049: strictly between ticks (700, 1400). 1400: exactly on a
	// tick, so the pending tick sits one full period ahead. 35001:
	// deep mid-run.
	for _, at := range []int64{1049, 1400, 35001} {
		parent := &tickRecorder{}
		e, err := New(sampleCfg(parent))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(w); err != nil {
			t.Fatal(err)
		}
		e.RunUntil(at)
		cp, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", at, err)
		}
		prefix := append([]int64(nil), parent.ticks...)

		resumed := &tickRecorder{}
		fork, err := Resume(cp, Overrides{Outputs: Outputs{Observer: resumed}})
		if err != nil {
			t.Fatalf("resume at %d: %v", at, err)
		}
		sameResult(t, "sampled fork vs fresh", fresh, finish(t, fork))

		got := append(prefix, resumed.ticks...)
		if len(got) != len(clean.ticks) {
			t.Fatalf("at=%d: %d ticks across checkpoint, clean run had %d", at, len(got), len(clean.ticks))
		}
		for i := range got {
			if got[i] != clean.ticks[i] {
				t.Fatalf("at=%d: tick %d fired at t=%d across checkpoint, t=%d clean", at, i, got[i], clean.ticks[i])
			}
		}
	}
}

// TestSampleResumeWithoutConsumer: a future resumed with no observer
// and no series sink drops the restored tick chain — the run completes
// with the same report (sampling never affects scheduling outcomes)
// and strictly fewer events.
func TestSampleResumeWithoutConsumer(t *testing.T) {
	w := testWorkload(250, 3)
	clean := &tickRecorder{}
	fresh := runSlice(t, sampleCfg(clean), w)

	e, err := New(sampleCfg(&tickRecorder{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(1049)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Resume(cp, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	res := finish(t, fork)
	if *res.Report != *fresh.Report {
		t.Fatalf("unsampled fork report differs:\n%+v\n%+v", res.Report, fresh.Report)
	}
	if res.Events >= fresh.Events {
		t.Fatalf("unsampled fork fired %d events, want fewer than the sampled run's %d", res.Events, fresh.Events)
	}
}

// TestSampleResumePeriodOverride: overriding the period discards the
// restored tick and restarts the chain at the resume instant — the
// documented fresh-chain semantics.
func TestSampleResumePeriodOverride(t *testing.T) {
	w := testWorkload(250, 3)
	e, err := New(sampleCfg(&tickRecorder{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(1049)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	obs := &tickRecorder{}
	fork, err := Resume(cp, Overrides{SampleEvery: 500, Outputs: Outputs{Observer: obs}})
	if err != nil {
		t.Fatal(err)
	}
	finish(t, fork)
	if len(obs.ticks) < 2 {
		t.Fatalf("degenerate: only %d ticks after period override", len(obs.ticks))
	}
	if obs.ticks[0] != cp.Now()+500 {
		t.Fatalf("first overridden tick at t=%d, want checkpoint+period=%d", obs.ticks[0], cp.Now()+500)
	}
	if d := obs.ticks[1] - obs.ticks[0]; d != 500 {
		t.Fatalf("overridden tick spacing %d, want 500", d)
	}
}

// TestSampleStateRoundTrip: a checkpoint holding a pending sampling
// tick survives the serialized CheckpointState round trip, and a state
// claiming a pending tick without a sampling period is rejected.
func TestSampleStateRoundTrip(t *testing.T) {
	w := testWorkload(250, 3)
	clean := &tickRecorder{}
	fresh := runSlice(t, sampleCfg(clean), w)

	parent := &tickRecorder{}
	e, err := New(sampleCfg(parent))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(1049)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := cp.State()
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	for _, ev := range st.Events {
		if ev.Kind == "sample" {
			pending++
		}
	}
	if pending != 1 {
		t.Fatalf("serialized state holds %d pending sampling ticks, want 1", pending)
	}

	cfg := sampleCfg(nil) // config as a loader would rebuild it: no live consumers
	cp2, err := CheckpointFromState(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	resumed := &tickRecorder{}
	fork, err := Resume(cp2, Overrides{Outputs: Outputs{Observer: resumed}})
	if err != nil {
		t.Fatal(err)
	}
	res := finish(t, fork)
	if res.Events != fresh.Events {
		t.Fatalf("round-tripped fork fired %d events, clean run %d", res.Events, fresh.Events)
	}
	got := append(append([]int64(nil), parent.ticks...), resumed.ticks...)
	if len(got) != len(clean.ticks) {
		t.Fatalf("%d ticks across round trip, clean run had %d", len(got), len(clean.ticks))
	}
	for i := range got {
		if got[i] != clean.ticks[i] {
			t.Fatalf("tick %d at t=%d across round trip, t=%d clean", i, got[i], clean.ticks[i])
		}
	}

	// A pending tick with no sampling period is inconsistent state.
	badCfg := cfg
	badCfg.SampleEvery = 0
	if _, err := CheckpointFromState(badCfg, st); err == nil {
		t.Fatal("CheckpointFromState accepted a pending sampling tick with no sampling period")
	}
}
