package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dismem"
	"dismem/internal/metrics"
	"dismem/internal/runstore"
)

// TestCellArchivesToStore: a sweep with a store attached archives one
// record per (cell, seed), in seed order, and the archived content is
// identical whether the sweep ran serially or on four workers.
func TestCellArchivesToStore(t *testing.T) {
	cell := Cell{Policy: "memaware"}
	runWith := func(workers int) []runstore.Run {
		t.Helper()
		store, err := runstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if _, err := cell.Run(Options{Jobs: 150, Seeds: 3, Workers: workers, Store: store}); err != nil {
			t.Fatal(err)
		}
		return store.Runs()
	}

	serial := runWith(1)
	parallel := runWith(4)
	if len(serial) != 3 {
		t.Fatalf("archived %d runs for 3 seeds, want 3", len(serial))
	}
	if len(parallel) != len(serial) {
		t.Fatalf("worker count changed the archive: %d vs %d runs", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("record %d: id %s serial, %s with 4 workers", i, serial[i].ID, parallel[i].ID)
		}
		if serial[i].Seed != i || serial[i].Kind != "sweep-unit" {
			t.Fatalf("record %d malformed: %+v", i, serial[i])
		}
		if *serial[i].Report != *parallel[i].Report {
			t.Fatalf("record %d: report differs across worker counts", i)
		}
	}
}

// TestCellStoreIdempotentAcrossResume: re-running the same sweep over
// the same store (the resume path) leaves the archive unchanged.
func TestCellStoreIdempotentAcrossResume(t *testing.T) {
	dir := t.TempDir()
	cell := Cell{Policy: "memaware"}
	for i := 0; i < 2; i++ {
		store, err := runstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cell.Run(Options{Jobs: 120, Seeds: 2, Store: store}); err != nil {
			t.Fatal(err)
		}
		store.Close()
	}
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 2 {
		t.Fatalf("archive holds %d runs after two identical sweeps, want 2", store.Len())
	}
}

// TestCellSeriesUncacheable: a Series sink factory is live code — the
// cell's units have no identity and are never archived.
func TestCellSeriesUncacheable(t *testing.T) {
	cell := Cell{Policy: "memaware", Series: func(int) metrics.SeriesSink { return dismem.DiscardSeries }}
	if _, err := cell.unitSpecJSON(Options{}.withDefaults(), dismem.DefaultMachine(), 0); err == nil {
		t.Fatal("unitSpecJSON described a cell holding a live series sink")
	}
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := cell.Run(Options{Jobs: 120, Seeds: 1, Store: store, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("live-code cell archived %d runs, want 0", store.Len())
	}
}

// TestCellSeriesAcrossWorkers: per-seed series files are bit-identical
// between a serial sweep and a 4-worker one — the worker pool cannot
// leak into a seed's sampled timeline.
func TestCellSeriesAcrossWorkers(t *testing.T) {
	write := func(workers int) map[int][]byte {
		t.Helper()
		dir := t.TempDir()
		cell := Cell{
			Policy:      "memaware",
			SampleEvery: 1800,
			Series: func(seed int) metrics.SeriesSink {
				f, err := os.Create(filepath.Join(dir, fmt.Sprintf("seed-%d.jsonl", seed)))
				if err != nil {
					t.Fatal(err)
				}
				return &closingSink{SeriesSink: metrics.NewJSONLSeriesSink(f), f: f}
			},
		}
		if _, err := cell.Run(Options{Jobs: 200, Seeds: 3, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		out := make(map[int][]byte)
		for seed := 0; seed < 3; seed++ {
			b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seed-%d.jsonl", seed)))
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatalf("seed %d wrote an empty series", seed)
			}
			out[seed] = b
		}
		return out
	}

	serial := write(1)
	parallel := write(4)
	for seed := 0; seed < 3; seed++ {
		if !bytes.Equal(serial[seed], parallel[seed]) {
			t.Fatalf("seed %d series differs between serial and 4-worker sweeps", seed)
		}
	}
}

// closingSink closes its file once the engine closes the sink, so the
// bytes are on disk when the sweep returns.
type closingSink struct {
	metrics.SeriesSink
	f *os.File
}

func (c *closingSink) Close() error {
	err := c.SeriesSink.Close()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}
