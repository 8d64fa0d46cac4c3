package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dismem/internal/metrics"
)

func testRun(kind, label string, seed int, wait float64) Run {
	spec := json.RawMessage(`{"policy":"memaware","jobs":100}`)
	rep := &metrics.Report{Completed: 100, P95Wait: wait}
	return Run{
		ID:     KeyOf(kind, spec, seed),
		Kind:   kind,
		Label:  label,
		Seed:   seed,
		Spec:   spec,
		Report: rep,
		Events: 12345,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testRun("sweep-unit", "memaware", 0, 10)
	b := testRun("sweep-unit", "memaware", 1, 20)
	for _, r := range []Run{a, b} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	runs := s2.Runs()
	if len(runs) != 2 {
		t.Fatalf("reopened store holds %d runs, want 2", len(runs))
	}
	if runs[0].ID != a.ID || runs[1].ID != b.ID {
		t.Fatalf("append order not preserved: %s, %s", runs[0].ID, runs[1].ID)
	}
	got, err := s2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.P95Wait != 10 || got.Label != "memaware" || got.Events != 12345 {
		t.Fatalf("record mangled on round trip: %+v", got)
	}
	// Prefix lookup: unambiguous prefix resolves, short shared prefix
	// does not.
	if _, err := s2.Get(a.ID[:8]); err != nil && strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("unexpected ambiguity for %s: %v", a.ID[:8], err)
	}
	if _, err := s2.Get("zzzz"); err == nil {
		t.Fatal("Get of an absent id succeeded")
	}
}

// TestStoreIdempotentAppend: re-appending an identical record — the
// resumed-sweep path — neither grows the store nor its segment file.
func TestStoreIdempotentAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := testRun("sweep-unit", "memaware", 0, 10)
	for i := 0; i < 3; i++ {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d runs after idempotent appends, want 1", s.Len())
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(seg), "\n"); n != 1 {
		t.Fatalf("segment holds %d lines after idempotent appends, want 1", n)
	}

	// Same ID, different content: appended, later record wins on read.
	r2 := r
	r2.Label = "relabelled"
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d runs after overwrite, want 1", s.Len())
	}
	got, err := s.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "relabelled" {
		t.Fatalf("last append did not win: label %q", got.Label)
	}
}

// TestStoreSegmentsAcrossReopens: each appending session gets its own
// segment; a reopened store merges all of them.
func TestStoreSegmentsAcrossReopens(t *testing.T) {
	dir := t.TempDir()
	for seed := 0; seed < 3; seed++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("session %d: %v", seed, err)
		}
		if err := s.Append(testRun("sweep-unit", "m", seed, float64(seed))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 {
		t.Fatalf("store holds %d runs across 3 sessions, want 3", s.Len())
	}
	var idx storeIndex
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) != 3 {
		t.Fatalf("index lists %d segments, want 3: %v", len(idx.Segments), idx.Segments)
	}
}

// TestStoreTornTrailingLine: a crash-torn trailing append in the
// newest segment is dropped; the intact prefix loads.
func TestStoreTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 1, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn trailing line must be tolerated: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("store holds %d runs after torn tail, want 1", s2.Len())
	}
}

// TestStoreTornTailInOlderSegment: a session that crashed mid-append
// leaves a torn line at the end of its segment; the next session
// appends to a fresh segment, after which the torn one is no longer
// the newest. The store must keep loading — the resume-journal case.
func TestStoreTornTailInOlderSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 2; seed++ {
		if err := s.Append(testRun("sweep-unit", "m", seed, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 1, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = Open(dir)
	if err != nil {
		t.Fatalf("torn tail of an older segment failed the reopen: %v", err)
	}
	defer s.Close()
	runs := s.Runs()
	if len(runs) != 2 || runs[0].Seed != 0 || runs[1].Seed != 1 {
		t.Fatalf("reopened store holds %+v, want seeds 0 and 1 in order", runs)
	}
}

// TestStoreSeedZeroFields: the seed-0 records and fairness a sweep
// archives for resume round-trip exactly, and are omitted when unset.
func TestStoreSeedZeroFields(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := testRun("sweep-unit", "m", 0, 1)
	r.JainWait = 0.8125
	r.Records = []metrics.JobRecord{{ID: 7, Nodes: 4, Submit: 10, Start: 100, End: 400, Dilation: 1.25}}
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	plain := testRun("sweep-unit", "m", 1, 1)
	if err := s.Append(plain); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if b, _ := json.Marshal(plain); strings.Contains(string(b), "records") || strings.Contains(string(b), "jain_wait") {
		t.Fatalf("unset seed-0 fields encoded: %s", b)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.JainWait != r.JainWait || len(got.Records) != 1 || got.Records[0] != r.Records[0] {
		t.Fatalf("seed-0 fields mangled on round trip: %+v", got)
	}
}

// TestStoreInteriorCorruptionIsLoud: flipping bytes inside a
// non-trailing record fails Open with the segment and line named.
func TestStoreInteriorCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 1, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := len(data) / 4
	data[i] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted interior corruption")
	} else if !strings.Contains(err.Error(), "seg-000001.jsonl") {
		t.Fatalf("corruption error does not name the segment: %v", err)
	}
}

// TestStoreRejectsForeignIndex: a schema or format mismatch in the
// index is an error, not a silent misread.
func TestStoreRejectsForeignIndex(t *testing.T) {
	dir := t.TempDir()
	idx := storeIndex{Format: storeFormat, Schema: "0000000000000000"}
	b, _ := json.Marshal(idx)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an index with a foreign record schema")
	}

	idx = storeIndex{Format: "dmstore/99", Schema: recordSchema}
	b, _ = json.Marshal(idx)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an index with a foreign format")
	}
}

// TestStoreMissingSegmentIsLoud: an index listing a segment that is
// gone is corruption, not an empty store.
func TestStoreMissingSegmentIsLoud(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRun("sweep-unit", "m", 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, "seg-000001.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a missing segment")
	}
}

// TestKeyOf: identity depends on kind, spec and seed — not on label,
// report or series file.
func TestKeyOf(t *testing.T) {
	spec := []byte(`{"a":1}`)
	base := KeyOf("sweep-unit", spec, 0)
	if KeyOf("sweep-unit", spec, 0) != base {
		t.Fatal("KeyOf not deterministic")
	}
	if KeyOf("sweep-unit", spec, 1) == base {
		t.Fatal("seed does not change the key")
	}
	if KeyOf("sched", spec, 0) == base {
		t.Fatal("kind does not change the key")
	}
	if KeyOf("sweep-unit", []byte(`{"a":2}`), 0) == base {
		t.Fatal("spec does not change the key")
	}
	a := testRun("sweep-unit", "label-one", 0, 1)
	b := testRun("sweep-unit", "label-two", 0, 99)
	if a.ID != b.ID {
		t.Fatal("label or report leaked into identity")
	}
}
