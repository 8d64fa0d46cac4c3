// Package telemetry is a dependency-free Prometheus-text-exposition
// layer: a Metric model, a deterministic writer for the text format
// (version 0.0.4), an HTTP handler that serves it and the one /metrics
// listener the command-line tools start (ListenAndServe), a mutex-guarded
// GaugeSet for live simulation gauges, and an expvar bridge so the
// counters long-running daemons already publish scrape without new
// bookkeeping. A hand-written format validator (validate.go) backs the
// tests and the CI metrics smoke; nothing here imports anything beyond
// the standard library.
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Type is a metric's exposition type.
type Type string

// The exposition types this layer emits.
const (
	Gauge   Type = "gauge"
	Counter Type = "counter"
)

// Metric is one sample: a name, its metadata and an optional label
// set. Metrics sharing a name must share Type and Help (the writer
// emits the first occurrence's metadata and rejects disagreement).
type Metric struct {
	Name   string
	Help   string
	Type   Type
	Labels map[string]string
	Value  float64
}

// Source supplies a snapshot of metrics per scrape.
type Source interface {
	Metrics() []Metric
}

// SourceFunc adapts a function to Source.
type SourceFunc func() []Metric

// Metrics implements Source.
func (f SourceFunc) Metrics() []Metric { return f() }

// validName reports whether s matches the exposition-format name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* (':' is reserved for recording
// rules by convention, but legal).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName is validName without ':'.
func validLabelName(s string) bool {
	return validName(s) && !strings.ContainsRune(s, ':')
}

// SanitizeName maps an arbitrary string onto the name grammar:
// every illegal rune becomes '_', and a leading digit gets a '_'
// prefix. Used by the expvar bridge, whose keys are free-form.
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelSignature renders a metric's label set canonically (sorted by
// label name); empty for an unlabelled metric.
func labelSignature(labels map[string]string) (string, error) {
	if len(labels) == 0 {
		return "", nil
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		if !validLabelName(n) {
			return "", fmt.Errorf("telemetry: invalid label name %q", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(labels[n]))
	}
	b.WriteByte('}')
	return b.String(), nil
}

// formatValue renders a sample value the way the exposition format
// expects: Go 'g' shortest form, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	switch s {
	case "+Inf", "-Inf", "NaN":
		return s
	}
	return s
}

// WriteExposition renders metrics in the text exposition format,
// deterministically: families sorted by name, samples within a family
// sorted by label signature, HELP/TYPE emitted once per family. Two
// scrapes over equal inputs are byte-identical — the property the CI
// smoke diffs. Metrics with invalid names, conflicting metadata within
// a family, or duplicate (name, labels) pairs are errors.
func WriteExposition(w io.Writer, metrics []Metric) error {
	byName := make(map[string][]Metric)
	names := make([]string, 0, len(metrics))
	for _, m := range metrics {
		if !validName(m.Name) {
			return fmt.Errorf("telemetry: invalid metric name %q", m.Name)
		}
		if m.Type != Gauge && m.Type != Counter {
			return fmt.Errorf("telemetry: metric %s has unknown type %q", m.Name, m.Type)
		}
		if _, seen := byName[m.Name]; !seen {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := byName[name]
		for _, m := range fam[1:] {
			if m.Type != fam[0].Type || m.Help != fam[0].Help {
				return fmt.Errorf("telemetry: metric family %s has conflicting metadata", name)
			}
		}
		if fam[0].Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(fam[0].Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].Type); err != nil {
			return err
		}
		type row struct{ sig, line string }
		rows := make([]row, 0, len(fam))
		seen := make(map[string]bool, len(fam))
		for _, m := range fam {
			sig, err := labelSignature(m.Labels)
			if err != nil {
				return err
			}
			if seen[sig] {
				return fmt.Errorf("telemetry: duplicate sample %s%s", name, sig)
			}
			seen[sig] = true
			rows = append(rows, row{sig, fmt.Sprintf("%s%s %s\n", name, sig, formatValue(m.Value))})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].sig < rows[j].sig })
		for _, r := range rows {
			if _, err := io.WriteString(w, r.line); err != nil {
				return err
			}
		}
	}
	return nil
}

// ContentType is the exposition-format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves GET /metrics over the given sources: each scrape
// snapshots every source in order and renders one exposition document.
// A source error is a 500 with the error text — a scrape must never
// silently serve a partial document.
func Handler(sources ...Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var all []Metric
		for _, s := range sources {
			all = append(all, s.Metrics()...)
		}
		var b strings.Builder
		if err := WriteExposition(&b, all); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		io.WriteString(w, b.String())
	})
}

// ListenAndServe serves GET /metrics over sources on addr, from a
// background goroutine, for the lifetime of the process, and returns
// the bound address (so ":0" is usable in scripts and tests).
func ListenAndServe(addr string, sources ...Source) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(sources...))
	// Serve returns only when its listener fails or is closed; it
	// retries temporary accept errors, and nothing closes this one.
	go func() { _ = (&http.Server{Handler: mux}).Serve(ln) }()
	return ln.Addr(), nil
}

// GaugeSet is a concurrency-safe collection of gauges keyed by (name,
// label signature): the bridge between a single-goroutine simulation
// loop publishing live Sample values and concurrent scrapes reading
// them. The zero value is not usable; call NewGaugeSet.
type GaugeSet struct {
	mu     sync.Mutex
	order  []string
	gauges map[string]Metric
}

// NewGaugeSet returns an empty gauge set.
func NewGaugeSet() *GaugeSet {
	return &GaugeSet{gauges: make(map[string]Metric)}
}

// Set records the current value of the gauge (name, labels), creating
// it on first use. Labels are copied.
func (g *GaugeSet) Set(name, help string, labels map[string]string, v float64) {
	sig, err := labelSignature(labels)
	if err != nil {
		sig = fmt.Sprintf("!%v", labels) // invalid labels still key uniquely; WriteExposition rejects them loudly
	}
	var lcopy map[string]string
	if len(labels) > 0 {
		lcopy = make(map[string]string, len(labels))
		for k, val := range labels {
			lcopy[k] = val
		}
	}
	key := name + sig
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.gauges[key]; !ok {
		g.order = append(g.order, key)
	}
	g.gauges[key] = Metric{Name: name, Help: help, Type: Gauge, Labels: lcopy, Value: v}
}

// Metrics implements Source: a consistent snapshot of every gauge.
func (g *GaugeSet) Metrics() []Metric {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Metric, 0, len(g.order))
	for _, key := range g.order {
		out = append(out, g.gauges[key])
	}
	return out
}

// ExpvarSource bridges an expvar.Map into the exposition document:
// every expvar.Int in the map becomes a counter named
// <prefix>_<sanitized key>. Non-Int vars are skipped (the maps the
// daemons publish hold only Ints; a histogram would need its own
// Source). Values are read per scrape, so the bridge needs no
// registration hooks.
func ExpvarSource(prefix string, m *expvar.Map) Source {
	return SourceFunc(func() []Metric {
		var out []Metric
		m.Do(func(kv expvar.KeyValue) {
			iv, ok := kv.Value.(*expvar.Int)
			if !ok {
				return
			}
			out = append(out, Metric{
				Name:  SanitizeName(prefix + "_" + kv.Key),
				Help:  "expvar counter " + kv.Key,
				Type:  Counter,
				Value: float64(iv.Value()),
			})
		})
		return out
	})
}
