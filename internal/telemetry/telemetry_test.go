package telemetry

import (
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func sampleMetrics() []Metric {
	return []Metric{
		{Name: "dismem_queue_depth", Help: "jobs waiting", Type: Gauge, Value: 12},
		{Name: "dismem_pool_used_mib", Help: "pool usage", Type: Gauge,
			Labels: map[string]string{"pool": "0"}, Value: 4096},
		{Name: "dismem_pool_used_mib", Help: "pool usage", Type: Gauge,
			Labels: map[string]string{"pool": "1"}, Value: 512.5},
		{Name: "dismem_events_total", Help: "DES events fired", Type: Counter, Value: 1e6},
	}
}

// TestWriteExpositionRoundTrip: everything the writer emits must pass
// the validator, and two renders of equal input are byte-identical.
func TestWriteExpositionRoundTrip(t *testing.T) {
	var a, b strings.Builder
	if err := WriteExposition(&a, sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	if err := WriteExposition(&b, sampleMetrics()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
	n, err := Validate(strings.NewReader(a.String()))
	if err != nil {
		t.Fatalf("writer output fails validation: %v\n%s", err, a.String())
	}
	if n != 4 {
		t.Fatalf("validated %d samples, want 4", n)
	}
	if !strings.Contains(a.String(), `dismem_pool_used_mib{pool="0"} 4096`) {
		t.Fatalf("missing labelled sample:\n%s", a.String())
	}
	if !strings.Contains(a.String(), "# TYPE dismem_events_total counter\n") {
		t.Fatalf("missing TYPE line:\n%s", a.String())
	}
}

// TestWriteExpositionEscaping: label values and help text with quotes,
// backslashes and newlines survive a write+validate cycle.
func TestWriteExpositionEscaping(t *testing.T) {
	ms := []Metric{{
		Name: "weird", Help: "line1\nline2 \\ backslash", Type: Gauge,
		Labels: map[string]string{"path": `C:\dir "quoted"` + "\nnl"}, Value: 1,
	}}
	var b strings.Builder
	if err := WriteExposition(&b, ms); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(strings.NewReader(b.String())); err != nil {
		t.Fatalf("escaped output fails validation: %v\n%q", err, b.String())
	}
	if !strings.Contains(b.String(), `\n`) || strings.Count(b.String(), "\n") != 3 {
		t.Fatalf("newlines not escaped:\n%q", b.String())
	}
}

// TestWriteExpositionRejects: the writer refuses documents a scraper
// would choke on.
func TestWriteExpositionRejects(t *testing.T) {
	cases := map[string][]Metric{
		"bad name":     {{Name: "1bad", Type: Gauge}},
		"bad type":     {{Name: "ok", Type: "sommaire"}},
		"bad label":    {{Name: "ok", Type: Gauge, Labels: map[string]string{"0bad": "x"}}},
		"metadata war": {{Name: "ok", Type: Gauge}, {Name: "ok", Type: Counter}},
		"dup sample":   {{Name: "ok", Type: Gauge, Value: 1}, {Name: "ok", Type: Gauge, Value: 2}},
	}
	for label, ms := range cases {
		var b strings.Builder
		if err := WriteExposition(&b, ms); err == nil {
			t.Errorf("%s: accepted\n%s", label, b.String())
		}
	}
}

// TestValidateRejects: hand-broken documents each produce an error.
func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad name":         "1bad 1\n",
		"bad value":        "ok one\n",
		"unclosed labels":  "ok{a=\"x\" 1\n",
		"bad escape":       "ok{a=\"\\x\"} 1\n",
		"dup sample":       "ok 1\nok 1\n",
		"type after":       "ok 1\n# TYPE ok gauge\n",
		"dup type":         "# TYPE ok gauge\n# TYPE ok gauge\nok 1\n",
		"unknown type":     "# TYPE ok banana\nok 1\n",
		"split family":     "a 1\nb 1\na{l=\"x\"} 1\n",
		"dup label":        "ok{a=\"x\",a=\"y\"} 1\n",
		"trailing garbage": "ok 1 2 3\n",
	}
	for label, doc := range cases {
		if _, err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %q", label, doc)
		}
	}
}

// TestValidateAcceptsForeign: documents other exporters emit —
// untyped samples, timestamps, histograms — pass.
func TestValidateAcceptsForeign(t *testing.T) {
	doc := `# A free comment.
untyped_metric 3.14 1712345678901
# HELP rq request duration
# TYPE rq histogram
rq_bucket{le="0.1"} 1
rq_bucket{le="+Inf"} 2
rq_sum 0.15
rq_count 2
nan_gauge NaN
`
	n, err := Validate(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("validated %d samples, want 6", n)
	}
}

// TestGaugeSetAndHandler: gauges set from a driving loop surface
// through the HTTP handler, updates overwrite in place, and non-GET is
// rejected.
func TestGaugeSetAndHandler(t *testing.T) {
	g := NewGaugeSet()
	g.Set("dismem_now_seconds", "virtual clock", nil, 100)
	g.Set("dismem_pool_used_mib", "pool usage", map[string]string{"pool": "0"}, 1)
	g.Set("dismem_now_seconds", "virtual clock", nil, 200) // overwrite

	h := Handler(g)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	if _, err := Validate(strings.NewReader(body)); err != nil {
		t.Fatalf("scrape fails validation: %v\n%s", err, body)
	}
	if !strings.Contains(body, "dismem_now_seconds 200\n") {
		t.Fatalf("gauge not updated in place:\n%s", body)
	}
	if strings.Contains(body, "dismem_now_seconds 100") {
		t.Fatalf("stale gauge value retained:\n%s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", rec.Code)
	}
}

// TestListenAndServe: the listener binds before returning (":0"
// reports its real port), serves /metrics over the sources and nothing
// else, and a bad address is an error.
func TestListenAndServe(t *testing.T) {
	g := NewGaugeSet()
	g.Set("dismem_now_seconds", "virtual clock", nil, 7)
	addr, err := ListenAndServe("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "dismem_now_seconds 7\n") {
		t.Fatalf("GET /metrics: %d\n%s", code, body)
	}
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/vars: %d, want 404", code)
	}
	if _, err := ListenAndServe("127.0.0.1:-1"); err == nil {
		t.Fatal("a bad address was accepted")
	}
}

// TestExpvarSource: expvar Ints surface as counters with sanitized
// names; non-Int vars are skipped.
func TestExpvarSource(t *testing.T) {
	m := new(expvar.Map).Init()
	m.Add("queries_served", 7)
	m.Add("fork-ns.max", 123)
	m.Set("not_an_int", new(expvar.Float))

	var b strings.Builder
	if err := WriteExposition(&b, ExpvarSource("dmserve", m).Metrics()); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if _, err := Validate(strings.NewReader(body)); err != nil {
		t.Fatalf("expvar bridge output fails validation: %v\n%s", err, body)
	}
	if !strings.Contains(body, "dmserve_queries_served 7\n") {
		t.Fatalf("missing bridged counter:\n%s", body)
	}
	if !strings.Contains(body, "dmserve_fork_ns_max 123\n") {
		t.Fatalf("key not sanitized:\n%s", body)
	}
	if strings.Contains(body, "not_an_int") {
		t.Fatalf("non-Int var bridged:\n%s", body)
	}
}

// TestSanitizeName pins the sanitizer's mapping.
func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":  "ok_name",
		"9lives":   "_9lives",
		"a.b-c/d":  "a_b_c_d",
		"":         "_",
		"ünïcode!": "_n_code_",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
