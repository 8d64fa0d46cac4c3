package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestBaselineCacheBounded fills the baseline cache past its cap: it
// must never hold more than baselineCacheCap windows, and a query whose
// baseline the cap evicted must compute it again to the same bytes.
func TestBaselineCacheBounded(t *testing.T) {
	s := testServer(t, 0)
	driveToDone(t, s)
	h := s.Handler()
	const body = `{"at": 21600, "horizon": 30000}`
	first := do(h, http.MethodPost, "/v1/whatif", body)
	if first.Code != http.StatusOK {
		t.Fatalf("what-if = %d: %s", first.Code, first.Body)
	}
	cached := func() int {
		s.base.mu.Lock()
		defer s.base.mu.Unlock()
		return len(s.base.m)
	}
	for i := int64(0); i < 2*baselineCacheCap; i++ {
		s.base.baseline(baseKey{at: -1, horizon: i}, func() (RunSummary, error) { return RunSummary{}, nil })
		if n := cached(); n > baselineCacheCap {
			t.Fatalf("after %d windows the cache holds %d, cap %d", i+1, n, baselineCacheCap)
		}
	}
	hits := s.baselineHits.Value()
	again := do(h, http.MethodPost, "/v1/whatif", body)
	if again.Code != http.StatusOK {
		t.Fatalf("repeated what-if = %d: %s", again.Code, again.Body)
	}
	if s.baselineHits.Value() != hits {
		t.Fatal("the repeated query hit a baseline the cap should have evicted")
	}
	if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
		t.Fatalf("a recomputed baseline changed the response:\n%s\nwant\n%s", again.Body, first.Body)
	}
}

// whatIfFields are the JSON names of WhatIfRequest's fields.
var whatIfFields = func() []string {
	var names []string
	rt := reflect.TypeOf(WhatIfRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	return names
}()

// referenceDecode decodes body the simple way: json.Unmarshal, which
// refuses anything but whitespace after one value, into the request,
// and again into a key map whose keys must each name a field, matched
// case-insensitively as encoding/json matches them.
func referenceDecode(body []byte) (WhatIfRequest, bool) {
	var req WhatIfRequest
	if json.Unmarshal(body, &req) != nil {
		return req, false
	}
	var keys map[string]json.RawMessage
	if json.Unmarshal(body, &keys) != nil {
		return req, false
	}
	for k := range keys {
		known := false
		for _, name := range whatIfFields {
			known = known || strings.EqualFold(k, name)
		}
		if !known {
			return req, false
		}
	}
	return req, true
}

// FuzzDecodeWhatIf requires decodeWhatIf to accept a body exactly when
// the reference decode finds one WhatIfRequest with no unknown field
// and only whitespace after it, and to decode it to the same request.
// It must never panic or answer 5xx, and it answers 413 only for a
// body over maxWhatIfBody.
func FuzzDecodeWhatIf(f *testing.F) {
	f.Add([]byte(`{"at": 21600, "scenario": "at=50000 down rack=2; at=86400 up rack=2"}`))
	f.Add([]byte(`{"At": 7200, "HORIZON": 9000, "Reseed_Failures": true, "failure_SEED": 3, "No_Baseline": true}`))
	f.Add([]byte(`{"at": 0} {"at": 5}`))
	f.Add([]byte(`{"policy": {"nested": [1, {"junk": null}]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body))
		got, err := decodeWhatIf(w, r)
		want, ok := referenceDecode(body)
		if ok && len(body) <= maxWhatIfBody {
			if err != nil {
				t.Fatalf("decodeWhatIf(%q) refused a body the reference accepts: %v", body, err)
			}
			if *got != want {
				t.Fatalf("decodeWhatIf(%q) = %+v, reference %+v", body, *got, want)
			}
			return
		}
		if err == nil {
			t.Fatalf("decodeWhatIf(%q) accepted %+v; the reference refuses it", body, *got)
		}
		var he *httpError
		if !asHTTPError(err, &he) {
			t.Fatalf("decodeWhatIf(%q): error %v carries no HTTP status", body, err)
		}
		switch {
		case he.status >= 500:
			t.Fatalf("decodeWhatIf(%q) answered %d: %v", body, he.status, he)
		case he.status == http.StatusRequestEntityTooLarge && len(body) <= maxWhatIfBody:
			t.Fatalf("decodeWhatIf answered 413 to a %d-byte body", len(body))
		}
	})
}
