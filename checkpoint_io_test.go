package dismem_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dismem"
	"dismem/internal/workload"
)

// saveLoad round-trips cp through the envelope and fails the test on
// any error.
func saveLoad(t *testing.T, cp *dismem.Checkpoint) *dismem.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := dismem.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// checkpointAt advances a fresh simulation of opts to t0 and captures.
func checkpointAt(t *testing.T, opts dismem.Options, t0 int64) *dismem.Checkpoint {
	t.Helper()
	s := mustNew(t, opts)
	s.RunUntil(t0)
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestSaveLoadRoundTrip is the durability golden test: for each
// configuration class, Save → Load → Fork → RunAll is bit-identical —
// report, records, event counts — to the uninterrupted run.
func TestSaveLoadRoundTrip(t *testing.T) {
	swf := writeTestTrace(t, 500, 7)
	cases := []struct {
		name string
		t0   int64
		opts func() dismem.Options
	}{
		{"slice_scenario_failures", 30000, func() dismem.Options {
			return forkOpts(dismem.SyntheticWorkload(800, 1))
		}},
		{"gen_source_bounded", 25000, func() dismem.Options {
			src, err := dismem.GenSource(dismem.DefaultGen(600, 3, dismem.DefaultMachine()), 600, 0)
			if err != nil {
				t.Fatal(err)
			}
			return dismem.Options{
				Policy: "memaware", Model: "bandwidth:1,1",
				Source: src, RecordSink: dismem.DiscardRecords,
			}
		}},
		{"lublin_source", 25000, func() dismem.Options {
			src, err := dismem.LublinSource(
				workloadLublinCfg(400, 4), 400, 0)
			if err != nil {
				t.Fatal(err)
			}
			return dismem.Options{Policy: "easy-local", Source: src}
		}},
		{"swf_file_source", 20000, func() dismem.Options {
			return dismem.Options{
				Policy: "memaware",
				Source: dismem.SWFFileSource(swf, dismem.SWFReadOptions{DefaultMemPerNode: 2048}),
			}
		}},
		{"modulated_source", 20000, func() dismem.Options {
			sc, err := dismem.ParseScenario("from=10000 until=60000 rate=2 surge; at=40000 down rack=1; at=70000 up rack=1")
			if err != nil {
				t.Fatal(err)
			}
			src, err := dismem.GenSource(dismem.DefaultGen(500, 5, dismem.DefaultMachine()), 500, 0)
			if err != nil {
				t.Fatal(err)
			}
			return dismem.Options{Policy: "memaware", Source: src, Scenario: sc}
		}},
		{"spec_policy", 25000, func() dismem.Options {
			return dismem.Options{
				Policy:   "order=sjf backfill=conservative placer=memaware cap=3 patience=1800",
				Workload: dismem.SyntheticWorkload(600, 2),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := mustRun(t, mustNew(t, tc.opts()))
			cp := checkpointAt(t, tc.opts(), tc.t0)

			// In-memory fork: the PR 5 baseline this PR must preserve.
			sameResults(t, "memory fork vs fresh", fresh,
				mustRun(t, mustFork(t, cp, dismem.ForkOptions{})))
			// Durable round trip: the new contract.
			sameResults(t, "loaded fork vs fresh", fresh,
				mustRun(t, mustFork(t, saveLoad(t, cp), dismem.ForkOptions{})))
		})
	}
}

// TestSaveDeterministic: encoding one checkpoint twice yields identical
// bytes (sorted maps, canonical field order), so checkpoint files can
// be compared and content-addressed.
func TestSaveDeterministic(t *testing.T) {
	cp := checkpointAt(t, forkOpts(dismem.SyntheticWorkload(400, 2)), 20000)
	var a, b bytes.Buffer
	if err := dismem.SaveCheckpoint(&a, cp); err != nil {
		t.Fatal(err)
	}
	if err := dismem.SaveCheckpoint(&b, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one checkpoint differ")
	}
}

// TestSecondGeneration: a loaded checkpoint's fork can itself be
// checkpointed, saved and loaded, and the grandchild still matches the
// uninterrupted run.
func TestSecondGeneration(t *testing.T) {
	opts := func() dismem.Options { return forkOpts(dismem.SyntheticWorkload(600, 9)) }
	fresh := mustRun(t, mustNew(t, opts()))

	child := mustFork(t, saveLoad(t, checkpointAt(t, opts(), 20000)), dismem.ForkOptions{})
	child.RunUntil(40000)
	cp2, err := child.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "second generation vs fresh", fresh,
		mustRun(t, mustFork(t, saveLoad(t, cp2), dismem.ForkOptions{})))
}

// TestCheckpointRecordsResolvedOptions: a checkpoint reports the
// options its run was built with after defaults were filled, so a run
// that left Model empty reports the same model in memory as after a
// save/load round trip.
func TestCheckpointRecordsResolvedOptions(t *testing.T) {
	cp := checkpointAt(t, dismem.Options{
		Policy:      "order=sjf placer=memaware",
		Workload:    dismem.SyntheticWorkload(300, 4),
		SeriesSink:  dismem.DiscardSeries,
		SampleEvery: 1800,
	}, 15000)
	loaded := saveLoad(t, cp)
	if cp.Model() != "linear:0.5" {
		t.Errorf("in-memory Model() = %q, want the resolved default linear:0.5", cp.Model())
	}
	for _, c := range []struct {
		name     string
		mem, got any
	}{
		{"Policy", cp.Policy(), loaded.Policy()},
		{"Model", cp.Model(), loaded.Model()},
		{"SampleEvery", cp.SampleEvery(), loaded.SampleEvery()},
	} {
		if c.mem != c.got {
			t.Errorf("%s() = %v in memory, %v after save/load", c.name, c.mem, c.got)
		}
	}
}

// TestSaveRejectsLiveCode: runs built from live implementations have no
// serialized form and must fail pointedly at save time.
func TestSaveRejectsLiveCode(t *testing.T) {
	wl := dismem.SyntheticWorkload(100, 1)

	sch, err := dismem.NewScheduler("order=fcfs backfill=easy placer=local")
	if err != nil {
		t.Fatal(err)
	}
	cp := checkpointAt(t, dismem.Options{SchedulerImpl: sch, Workload: wl}, 5000)
	if err := dismem.SaveCheckpoint(&bytes.Buffer{}, cp); err == nil || !strings.Contains(err.Error(), "SchedulerImpl") {
		t.Fatalf("SchedulerImpl save error = %v", err)
	}

	model, err := dismem.ParseModel("linear:0.5")
	if err != nil {
		t.Fatal(err)
	}
	cp = checkpointAt(t, dismem.Options{Policy: "memaware", ModelImpl: model, Workload: wl}, 5000)
	if err := dismem.SaveCheckpoint(&bytes.Buffer{}, cp); err == nil || !strings.Contains(err.Error(), "ModelImpl") {
		t.Fatalf("ModelImpl save error = %v", err)
	}
}

// TestSaveRejectsNonDurableSource: a reader-backed SWF stream forks
// (PR 5) but has no durable cursor; saving its checkpoint must error,
// pointing at the file-backed alternative.
func TestSaveRejectsNonDurableSource(t *testing.T) {
	path := writeTestTrace(t, 300, 11)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := mustNew(t, dismem.Options{
		Policy: "memaware",
		Source: dismem.SWFSource(f, dismem.SWFReadOptions{DefaultMemPerNode: 2048}),
	})
	s.RunUntil(10000)
	cp, err := s.Checkpoint()
	if err != nil {
		// Reader-backed SWF sources may reject checkpointing outright;
		// that is an acceptable (earlier) failure point.
		t.Skipf("reader-backed source rejected checkpoint: %v", err)
	}
	if err := dismem.SaveCheckpoint(&bytes.Buffer{}, cp); err == nil || !strings.Contains(err.Error(), "durable") {
		t.Fatalf("non-durable source save error = %v", err)
	}
}

// TestWriteCheckpointFile covers the atomic file path: write, read
// back, fork to completion, and no temp litter left in the directory.
func TestWriteCheckpointFile(t *testing.T) {
	opts := func() dismem.Options { return forkOpts(dismem.SyntheticWorkload(400, 6)) }
	fresh := mustRun(t, mustNew(t, opts()))

	dir := t.TempDir()
	path := filepath.Join(dir, "run.dmckpt")
	if err := dismem.WriteCheckpointFile(path, checkpointAt(t, opts(), 20000)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.dmckpt" {
		t.Fatalf("directory holds %v, want only run.dmckpt", entries)
	}
	cp, err := dismem.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "file round trip vs fresh", fresh,
		mustRun(t, mustFork(t, cp, dismem.ForkOptions{})))

	if _, err := dismem.ReadCheckpointFile(filepath.Join(dir, "absent.dmckpt")); err == nil {
		t.Fatal("reading a missing checkpoint file succeeded")
	}
}

// writeTestTrace generates a synthetic workload and writes it as an SWF
// file, returning the path.
func writeTestTrace(t *testing.T, jobs int, seed uint64) string {
	t.Helper()
	wl := dismem.SyntheticWorkload(jobs, seed)
	path := filepath.Join(t.TempDir(), "trace.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := workload.WriteSWF(f, wl); err != nil {
		t.Fatal(err)
	}
	return path
}

// workloadLublinCfg builds a small Lublin configuration for tests.
func workloadLublinCfg(jobs int, seed uint64) dismem.LublinConfig {
	return workload.DefaultLublinConfig(jobs, seed, dismem.DefaultMachine().TotalNodes())
}
