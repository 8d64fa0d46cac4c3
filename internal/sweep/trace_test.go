package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dismem"
	"dismem/internal/runstore"
	"dismem/internal/trace"
)

// TestCellTraceUncacheable: a Trace sink factory is live code — the
// cell's units have no identity and are never archived.
func TestCellTraceUncacheable(t *testing.T) {
	cell := Cell{Policy: "memaware", Trace: func(int) trace.TraceSink { return dismem.DiscardTrace }}
	if _, err := cell.unitSpecJSON(Options{}.withDefaults(), dismem.DefaultMachine(), 0); err == nil {
		t.Fatal("unitSpecJSON described a cell holding a live trace sink")
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

// closingTraceSink closes its file once the engine closes the sink, so
// the bytes are on disk when the sweep returns.
type closingTraceSink struct {
	trace.TraceSink
	f *os.File
}

func (c *closingTraceSink) Close() error {
	err := c.TraceSink.Close()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TestCellTraceAcrossWorkers: per-seed trace files are bit-identical
// between a serial sweep and a 4-worker one, with no SampleEvery set —
// tracing is event-driven and must not depend on the sampling tick
// chain or the worker pool.
func TestCellTraceAcrossWorkers(t *testing.T) {
	write := func(workers int) map[int][]byte {
		t.Helper()
		dir := t.TempDir()
		cell := Cell{
			Policy: "memaware",
			Trace: func(seed int) trace.TraceSink {
				f, err := os.Create(filepath.Join(dir, fmt.Sprintf("seed-%d.jsonl", seed)))
				if err != nil {
					t.Fatal(err)
				}
				return &closingTraceSink{TraceSink: trace.NewJSONLSink(f), f: f}
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
				t.Fatalf("seed %d wrote an empty trace", seed)
			}
			out[seed] = b
		}
		return out
	}

	serial := write(1)
	parallel := write(4)
	for seed := 0; seed < 3; seed++ {
		if !bytes.Equal(serial[seed], parallel[seed]) {
			t.Fatalf("seed %d trace differs between serial and 4-worker sweeps", seed)
		}
	}
}
