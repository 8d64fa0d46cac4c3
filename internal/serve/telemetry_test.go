package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"dismem/internal/runstore"
	"dismem/internal/telemetry"
)

// TestServeMetricsEndpoint: GET /metrics passes the exposition-format
// validator mid-run and after the drain, carries the live baseline
// gauges, and bridges the service counters.
func TestServeMetricsEndpoint(t *testing.T) {
	s := testServer(t, 0)
	h := s.Handler()

	// One chunk in: the scrape must already be well-formed.
	if _, err := s.advance(); err != nil {
		t.Fatal(err)
	}
	rec := do(h, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics mid-run: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type %q", ct)
	}
	if _, err := telemetry.Validate(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatalf("mid-run scrape fails validation: %v\n%s", err, rec.Body.String())
	}

	driveToDone(t, s)
	do(h, http.MethodPost, "/v1/whatif", `{"at": 7200}`)

	rec = do(h, http.MethodGet, "/metrics", "")
	body := rec.Body.String()
	if _, err := telemetry.Validate(strings.NewReader(body)); err != nil {
		t.Fatalf("drained scrape fails validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"dismem_baseline_done 1\n",
		"# HELP dismem_queue_depth jobs waiting in the queue\n", // MirrorSample's wording, shared with dmsched
		"dismem_queue_depth 0\n",
		`dismem_pool_used_bytes{pool="0"} `,
		`dismem_pool_capacity_bytes{pool="0"} `,
		`dismem_rack_free_nodes{rack="0"} `,
		s.VarsName() + "_queries_served 1\n",
		s.VarsName() + "_checkpoints_written ",
		s.VarsName() + "_checkpoint_load_errors 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
}

// TestServeTwoServersShareProcess: each server gets a process-unique
// expvar name, and each /debug/vars body is valid JSON holding both
// servers' maps under distinct keys — the collision the namespacing
// exists to prevent.
func TestServeTwoServersShareProcess(t *testing.T) {
	a := testServer(t, 0)
	b := testServer(t, 0)
	if a.VarsName() == b.VarsName() {
		t.Fatalf("two servers share expvar name %q", a.VarsName())
	}
	for _, s := range []*Server{a, b} {
		rec := do(s.Handler(), http.MethodGet, "/debug/vars", "")
		var got map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("server %s /debug/vars is not valid JSON: %v", s.VarsName(), err)
		}
		for _, name := range []string{a.VarsName(), b.VarsName()} {
			if _, ok := got[name]; !ok {
				t.Errorf("server %s /debug/vars missing map %q", s.VarsName(), name)
			}
		}
	}
}

// TestServeCorruptRingCounter: a query that picks a corrupt ring file
// fails with a sticky error, and every such query increments the
// load-error counter — the condition is visible on /metrics before
// anyone reads the logs.
func TestServeCorruptRingCounter(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Options: testOptions(t), CkptDir: dir, CkptEvery: 7200, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, a)
	entries := a.ring.snapshot()
	if len(entries) < 2 {
		t.Fatalf("degenerate fixture: ring holds %d checkpoints, need 2+", len(entries))
	}

	// Corrupt everything except the newest file, then boot a second
	// server over the directory: it resumes from the intact newest and
	// scans the rest lazily, so the first disk read of a corrupt entry
	// happens on the query path.
	for _, e := range entries[:len(entries)-1] {
		corruptFile(t, e.path)
	}
	b, err := New(Config{Options: testOptions(t), CkptDir: dir, CkptEvery: 7200, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := b.Handler()
	target := entries[0].at
	for i := 0; i < 2; i++ {
		rec := do(h, http.MethodPost, "/v1/whatif", fmt.Sprintf(`{"at": %d}`, target))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("query %d against a corrupt ring file: %d, want 500", i, rec.Code)
		}
	}
	if got := b.ckptLoadErrors.Value(); got != 2 {
		t.Fatalf("checkpoint_load_errors = %d after 2 failing queries, want 2", got)
	}
	rec := do(h, http.MethodGet, "/metrics", "")
	if want := b.VarsName() + "_checkpoint_load_errors 2\n"; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("scrape missing %q", want)
	}
}

// corruptFile flips a byte in the middle of path.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeArchivesBaseline: with a run store configured, the drained
// baseline is archived exactly once, and a second server over the same
// configuration re-archives idempotently.
func TestServeArchivesBaseline(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cfg := Config{
		Options:   testOptions(t),
		CkptDir:   t.TempDir(),
		CkptEvery: 7200,
		Workers:   2,
		Store:     store,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, s)
	driveToDone(t, s) // advancing a drained baseline must not re-archive
	if store.Len() != 1 {
		t.Fatalf("store holds %d runs after one baseline, want 1", store.Len())
	}
	runs := store.Runs()
	if runs[0].Kind != "serve-baseline" || runs[0].Report == nil || runs[0].Report.Completed == 0 {
		t.Fatalf("baseline record malformed: %+v", runs[0])
	}

	cfg.CkptDir = t.TempDir()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, s2)
	if store.Len() != 1 {
		t.Fatalf("identical baseline archived twice: %d runs", store.Len())
	}
}
