package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestAppendEventMatchesMarshal pins the contract appendEvent's doc
// comment promises: the hand-rolled encoder is byte-identical to
// json.Marshal of the same event (which routes through jsonEvent via
// Event.MarshalJSON) — same field order, omitempty semantics, string
// escaping and float formatting.
func TestAppendEventMatchesMarshal(t *testing.T) {
	cases := []Event{
		{},
		{Now: 42, Type: Submit, Job: 7, User: 3, Nodes: 16, Submit: 42},
		{
			Now: 90061, Type: Dispatch, Job: 1234, User: 9, Nodes: 128,
			Submit: 90000, Racks: []int{0, 2, 7}, Pools: []int{2},
			LocalMiB: 1 << 20, RemoteMiB: 4096, Dilation: 1.0417,
		},
		{Now: 100, Type: Dispatch, Dilation: 1},
		{Now: 100, Type: Dispatch, Dilation: 0.3333333333333333},
		{Now: 100, Type: Dispatch, Dilation: 1e-7},  // 'e' format, small
		{Now: 100, Type: Dispatch, Dilation: 5e21},  // 'e' format, large
		{Now: 100, Type: Dispatch, Dilation: -5e21}, // negative exponent form
		{Now: 100, Type: Dispatch, Dilation: 1e-21},
		{Now: 100, Type: Dispatch, Dilation: math.MaxFloat64},
		{Now: 100, Type: Dispatch, Dilation: math.SmallestNonzeroFloat64},
		{Now: -5, Type: Terminate, Job: 1, Submit: -1, Start: -2, Reason: "done"},
		{Now: 7, Type: Terminate, Job: 2, Reason: "killed", Restarts: 3},
		{Now: 7, Type: Restart, Job: 2, Restarts: 1, Start: 5},
		{Now: 21600, Type: ScenarioEvent, Detail: "at=21600 down rack=2"},
		{Now: 1, Type: CheckpointMark, Detail: `ring checkpoint "odd name".dmckpt`},
		{Now: 1, Type: ForkMark, Detail: "path\\with\\backslashes"},
		{Now: 1, Type: ScenarioEvent, Detail: "html-escaped <tags> & ampersands"},
		{Now: 1, Type: ScenarioEvent, Detail: "control\tchars\nand unicode: λ→µ"},
		{Now: 1, Type: Type("weird \"type\""), Reason: "non-ascii é"},
		{Now: 1, Type: Submit, Racks: []int{5}, Pools: []int{0, 1, 2, 3}},
	}
	for i, ev := range cases {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := appendEvent(nil, ev)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("case %d: appendEvent diverges from json.Marshal\n got %s (%v)\nwant %s", i, got, err, want)
		}
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ budget int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errors.New("disk full")
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestJSONLSinkErrorLatch: the first write error latches — later Adds
// are no-ops and Close keeps reporting the original error.
func TestJSONLSinkErrorLatch(t *testing.T) {
	s := NewJSONLSink(&errWriter{budget: 16})
	big := Event{Now: 1, Type: ScenarioEvent, Detail: strings.Repeat("x", 64<<10)}
	for i := 0; i < 4; i++ {
		s.Add(big) // oversized lines bypass the bufio buffer and hit the writer
	}
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close() = %v, want the latched write error", err)
	}
	if again := s.Close(); again != err {
		t.Fatalf("second Close() = %v, want the same latched error", again)
	}
}

// TestJSONLSinkDoesNotCloseWriter: Close flushes but never closes the
// underlying writer — a bytes.Buffer stays usable and holds one JSON
// line per event.
func TestJSONLSinkDoesNotCloseWriter(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Add(Event{Now: 1, Type: Submit, Job: 1})
	s.Add(Event{Now: 2, Type: Terminate, Job: 1, Reason: "done"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
	}
}

func ringEvents(n, from int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Now: int64(from + i), Type: Submit, Job: from + i}
	}
	return evs
}

// TestRingWraparound: the ring keeps exactly the newest Cap events in
// order and counts evictions.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for _, ev := range ringEvents(10, 0) { // Now = 0..9
		r.Add(ev)
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
	got := r.Query(0, 0)
	if len(got) != 4 {
		t.Fatalf("Query returned %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := int64(6 + i); ev.Now != want {
			t.Fatalf("event %d has Now=%d, want %d (oldest-first newest tail)", i, ev.Now, want)
		}
	}
}

// TestRingQueryWindows: from is inclusive, to exclusive, to <= 0 means
// unbounded, and an empty window yields an empty (possibly nil) slice.
func TestRingQueryWindows(t *testing.T) {
	r := NewRing(16)
	for _, ev := range ringEvents(10, 0) {
		r.Add(ev)
	}
	for _, tc := range []struct {
		from, to int64
		want     int
	}{
		{0, 0, 10}, {0, -1, 10}, {3, 7, 4}, {3, 4, 1}, {7, 3, 0}, {10, 0, 0}, {9, 0, 1},
	} {
		if got := len(r.Query(tc.from, tc.to)); got != tc.want {
			t.Errorf("Query(%d, %d) returned %d events, want %d", tc.from, tc.to, got, tc.want)
		}
	}
}

// TestRingQueryCopies: Query returns a copy — mutating the result must
// not corrupt the retained events.
func TestRingQueryCopies(t *testing.T) {
	r := NewRing(4)
	r.Add(Event{Now: 1, Type: Submit, Job: 1})
	got := r.Query(0, 0)
	got[0].Job = 999
	if again := r.Query(0, 0); again[0].Job != 1 {
		t.Fatalf("Query result aliases ring storage: job mutated to %d", again[0].Job)
	}
}

// TestRingCloseKeepsServing: Close is a no-op — the ring stays
// queryable after the traced run drains.
func TestRingCloseKeepsServing(t *testing.T) {
	r := NewRing(4)
	r.Add(Event{Now: 5, Type: Submit, Job: 1})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r.Query(0, 0); len(got) != 1 {
		t.Fatalf("ring lost its events after Close: %d retained", len(got))
	}
	r.Add(Event{Now: 6, Type: Terminate, Job: 1, Reason: "done"})
	if got := r.Query(0, 0); len(got) != 2 {
		t.Fatalf("ring rejected an Add after Close: %d retained", len(got))
	}
}

// TestPerfettoDocumentShape: a minimal lifecycle renders as balanced
// async spans on the rack and pool tracks, and Close yields one valid
// JSON document.
func TestPerfettoDocumentShape(t *testing.T) {
	var buf bytes.Buffer
	s := NewPerfettoSink(&buf)
	s.Add(Event{Now: 10, Type: Submit, Job: 1, User: 1, Nodes: 2})
	s.Add(Event{
		Now: 20, Type: Dispatch, Job: 1, User: 1, Nodes: 2, Submit: 10,
		Racks: []int{0, 1}, Pools: []int{3}, LocalMiB: 100, RemoteMiB: 50, Dilation: 1.2,
	})
	s.Add(Event{Now: 25, Type: ScenarioEvent, Detail: "at=25 down rack=2"})
	s.Add(Event{Now: 30, Type: Terminate, Job: 1, Submit: 10, Start: 20, Reason: "done"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  int64  `json:"ts"`
			Pid int    `json:"pid"`
			ID  string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON document: %v", err)
	}
	phases := map[string]int{}
	openIDs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		switch ev.Ph {
		case "b":
			openIDs[ev.ID]++
			if ev.Ts != 20*1_000_000 {
				t.Fatalf("span %q opens at ts=%d, want dispatch time in µs", ev.ID, ev.Ts)
			}
		case "e":
			openIDs[ev.ID]--
		}
	}
	// Two rack tracks + one pool track = three spans, opened and closed.
	if phases["b"] != 3 || phases["e"] != 3 || phases["i"] != 1 {
		t.Fatalf("phase counts = %v, want 3 b / 3 e / 1 i", phases)
	}
	for id, n := range openIDs {
		if n != 0 {
			t.Fatalf("span %q unbalanced by %d", id, n)
		}
	}
	for _, id := range []string{"j1.r0", "j1.r1", "j1.p3"} {
		if _, ok := openIDs[id]; !ok {
			t.Fatalf("expected span id %q missing (got %v)", id, openIDs)
		}
	}
}

// TestPerfettoStoppedRunLeavesSpansOpen: terminating the sink with a
// span still open keeps the document valid and the span unclosed —
// the truthful rendering of an interrupted run.
func TestPerfettoStoppedRunLeavesSpansOpen(t *testing.T) {
	var buf bytes.Buffer
	s := NewPerfettoSink(&buf)
	s.Add(Event{Now: 20, Type: Dispatch, Job: 1, Racks: []int{0}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON document: %v", err)
	}
	b, e := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			b++
		case "e":
			e++
		}
	}
	if b != 1 || e != 0 {
		t.Fatalf("got %d opens / %d closes, want the span left open", b, e)
	}
}

// TestJSONLSinkGrowthIsBounded sanity-checks the scratch-buffer reuse:
// a long stream of events should not allocate per event beyond the
// bufio flushes.
func TestJSONLSinkGrowthIsBounded(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	ev := Event{Now: 1, Type: Dispatch, Job: 1, Racks: []int{0, 1}, Dilation: 1.25}
	allocs := testing.AllocsPerRun(1000, func() { s.Add(ev) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// bufio flushes amortize to well under one allocation per Add.
	if allocs > 0.5 {
		t.Fatalf("JSONLSink.Add allocates %.2f times per event, want ~0", allocs)
	}
	if testing.Verbose() {
		fmt.Println("allocs/add:", allocs)
	}
}

// TestJSONLSinkRejectsNonFinite: an event json.Marshal rejects (a NaN
// or infinite dilation) latches Marshal's error instead of writing a
// line Event.MarshalJSON — the /v1/trace form — could not produce.
func TestJSONLSinkRejectsNonFinite(t *testing.T) {
	for _, dil := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ev := Event{Now: 5, Type: Dispatch, Job: 1, Dilation: dil}
		_, want := ev.MarshalJSON()
		if want == nil {
			t.Fatalf("MarshalJSON accepted dilation %g", dil)
		}
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		s.Add(Event{Now: 1, Type: Submit, Job: 1})
		s.Add(ev)
		s.Add(Event{Now: 9, Type: Terminate, Job: 1, Reason: "done"})
		if err := s.Close(); err == nil || err.Error() != want.Error() {
			t.Errorf("dilation %g: Close() = %v, want %v", dil, err, want)
		}
		if got := buf.String(); got != "" {
			t.Errorf("dilation %g: sink flushed %q after failing", dil, got)
		}
	}
}

// fuzzInts widens fuzzer bytes to signed ints (nil when empty, like an
// event without placement).
func fuzzInts(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	v := make([]int, len(b))
	for i, x := range b {
		v[i] = int(int8(x))
	}
	return v
}

// FuzzAppendEvent: appendEvent's line equals json.Marshal of the
// jsonEvent schema struct (Event.MarshalJSON) for every event, or fails
// where Marshal fails, with Marshal's error; the JSONL sink writes
// exactly that line or latches exactly that error. The committed
// corpus covers -0, both float-format boundaries (1e-6 and 1e21), NaN,
// ±Inf and strings that need escaping.
func FuzzAppendEvent(f *testing.F) {
	f.Add(int64(90061), "dispatch", 1234, 9, 128, int64(90000), []byte{0, 2, 7}, []byte{2},
		int64(1<<20), int64(4096), 1.0417, int64(0), "", 0, "")
	f.Add(int64(7), "terminate", 2, 0, 0, int64(0), []byte(nil), []byte(nil),
		int64(0), int64(0), 0.0, int64(5), "killed", 3, "")
	f.Fuzz(func(t *testing.T, now int64, typ string, job, user, nodes int, submit int64,
		racks, pools []byte, local, remote int64, dil float64, start int64,
		reason string, restarts int, detail string) {
		ev := Event{
			Now: now, Type: Type(typ), Job: job, User: user, Nodes: nodes, Submit: submit,
			Racks: fuzzInts(racks), Pools: fuzzInts(pools),
			LocalMiB: local, RemoteMiB: remote, Dilation: dil,
			Start: start, Reason: reason, Restarts: restarts, Detail: detail,
		}
		want, wantErr := ev.MarshalJSON()
		got, err := appendEvent(nil, ev)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendEvent error = %v, json.Marshal error = %v", err, wantErr)
			}
		} else if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendEvent diverges from json.Marshal\n got %s (%v)\nwant %s", got, err, want)
		}
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		s.Add(ev)
		err = s.Close()
		switch {
		case wantErr != nil && (err == nil || err.Error() != wantErr.Error() || buf.Len() != 0):
			t.Fatalf("sink: Close() = %v with %q written, want latched %v", err, buf.Bytes(), wantErr)
		case wantErr == nil && (err != nil || buf.String() != string(want)+"\n"):
			t.Fatalf("sink: Close() = %v, wrote %q, want %s", err, buf.Bytes(), want)
		}
	})
}
