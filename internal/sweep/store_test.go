package sweep

import (
	"testing"

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
