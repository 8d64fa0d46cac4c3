package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/stats"
)

// fakeRecords builds a deterministic mixed stream of job outcomes.
func fakeRecords(n int) []JobRecord {
	rng := stats.NewRNG(17)
	out := make([]JobRecord, 0, n)
	for i := 1; i <= n; i++ {
		r := JobRecord{
			ID: i, User: i % 7, Nodes: 1 + rng.Intn(16),
			Submit: int64(i * 10), MemPerNode: 1024,
		}
		switch {
		case i%23 == 0:
			r.Rejected = true
			r.Dilation = 1
		default:
			r.Start = r.Submit + int64(rng.Intn(5000))
			r.End = r.Start + 60 + int64(rng.ExpFloat64()*3000)
			r.BaseRuntime = r.End - r.Start
			r.Estimate = r.BaseRuntime * 2
			r.Limit = r.Estimate
			r.Dilation = 1
			if i%3 == 0 {
				r.RemoteMiB = 512
				r.RemoteFrac = 0.5
				r.Dilation = 1 + rng.Float64()
			}
			if i%17 == 0 {
				r.Killed = true
			}
		}
		out = append(out, r)
	}
	return out
}

func TestBoundedRecorderMatchesExactReport(t *testing.T) {
	// Every non-percentile report field must be bit-identical between
	// the retain-all and bounded recorders; the four percentile fields
	// must agree within P² tolerance.
	exact, bounded := NewRecorder(), NewBoundedRecorder()
	for _, r := range fakeRecords(5000) {
		exact.Add(r)
		bounded.Add(r)
	}
	cfg := cluster.DefaultConfig()
	re, rb := exact.Report(cfg), bounded.Report(cfg)

	if re.Completed != rb.Completed || re.Killed != rb.Killed || re.Rejected != rb.Rejected ||
		re.RemoteJobs != rb.RemoteJobs || re.NodeHours != rb.NodeHours ||
		re.RemoteJobFraction != rb.RemoteJobFraction {
		t.Fatalf("counts differ: exact %+v bounded %+v", re, rb)
	}
	if re.Wait != rb.Wait || re.Response != rb.Response || re.BSld != rb.BSld ||
		re.DilationAll != rb.DilationAll || re.DilationRemote != rb.DilationRemote {
		t.Fatal("online accumulators differ between modes")
	}
	approx := func(name string, a, b float64) {
		if b == 0 && a == 0 {
			return
		}
		if rel := math.Abs(a-b) / math.Max(math.Abs(b), 1); rel > 0.05 {
			t.Errorf("%s: bounded %g vs exact %g (rel err %.3f)", name, a, b, rel)
		}
	}
	approx("P95Wait", rb.P95Wait, re.P95Wait)
	approx("P99Wait", rb.P99Wait, re.P99Wait)
	approx("P95BSld", rb.P95BSld, re.P95BSld)
	approx("P95DilationRemote", rb.P95DilationRemote, re.P95DilationRemote)

	if rb.Jobs() != re.Jobs() {
		t.Fatalf("jobs: %d vs %d", rb.Jobs(), re.Jobs())
	}
	if bounded.Records() != nil {
		t.Fatal("bounded recorder must retain no records")
	}
}

func TestBoundedRecorderFairnessMatchesExact(t *testing.T) {
	exact, bounded := NewRecorder(), NewBoundedRecorder()
	for _, r := range fakeRecords(2000) {
		exact.Add(r)
		bounded.Add(r)
	}
	fe, fb := exact.Fairness(), bounded.Fairness()
	if fe.JainWait != fb.JainWait || fe.GiniNodeHours != fb.GiniNodeHours ||
		len(fe.Users) != len(fb.Users) {
		t.Fatalf("fairness differs: exact %+v bounded %+v", fe, fb)
	}
	for i := range fe.Users {
		if fe.Users[i] != fb.Users[i] {
			t.Fatalf("user %d stats differ: %+v vs %+v", i, fe.Users[i], fb.Users[i])
		}
	}
}

func TestRecordsReturnsACopy(t *testing.T) {
	rec := NewRecorder()
	rec.Add(JobRecord{ID: 1, User: 2, Nodes: 1, Submit: 0, Start: 5, End: 10, BaseRuntime: 5, Estimate: 10})
	got := rec.Records()
	got[0].ID = 999
	if rec.Records()[0].ID != 1 {
		t.Fatal("mutating the returned slice corrupted recorder state")
	}
}

func TestObserveIsConstantMemory(t *testing.T) {
	// Usage observation integrates; it must never retain samples, so
	// feeding a million ticks allocates nothing per call.
	rec := NewRecorder()
	u := cluster.Usage{BusyNodes: 3, UsedLocal: 1024, UsedPool: 512, PoolDemand: 1.5}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Observe(rec.lastT+1, u)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", allocs)
	}
}

func TestJSONLSinkStreamsRecords(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	recs := fakeRecords(50)
	for _, r := range recs {
		s.Add(r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	n := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if int(m["id"].(float64)) != recs[n].ID {
			t.Fatalf("line %d: id %v, want %d", n+1, m["id"], recs[n].ID)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("wrote %d lines, want %d", n, len(recs))
	}
}

func TestCSVSinkStreamsRecords(t *testing.T) {
	var sb strings.Builder
	s := NewCSVSink(&sb)
	recs := fakeRecords(10)
	for _, r := range recs {
		s.Add(r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(recs)+1 {
		t.Fatalf("wrote %d lines, want header+%d", len(lines), len(recs))
	}
	if lines[0] != csvHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestDiscardSink(t *testing.T) {
	Discard.Add(JobRecord{ID: 1})
	if err := Discard.Close(); err != nil {
		t.Fatal(err)
	}
}

// marshalRecord is the encoding/json oracle for appendRecord:
// json.Marshal of the jsonRecord schema struct.
func marshalRecord(r JobRecord) ([]byte, error) {
	return json.Marshal(jsonRecord{
		ID: r.ID, User: r.User, Nodes: r.Nodes, Submit: r.Submit,
		Start: r.Start, End: r.End, Wait: r.Wait(), BSld: r.BoundedSlowdown(),
		Estimate: r.Estimate, Limit: r.Limit, BaseRuntime: r.BaseRuntime,
		MemPerNode: r.MemPerNode, RemoteMiB: r.RemoteMiB, RemoteFrac: r.RemoteFrac,
		Dilation: r.Dilation, Killed: r.Killed, Rejected: r.Rejected, Restarts: r.Restarts,
	})
}

// TestAppendRecordMatchesMarshal: the hand-rolled record encoder is
// byte-identical to json.Marshal(jsonRecord) over a mixed record
// stream and the float-format edge cases.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	recs := fakeRecords(500)
	for _, f := range []float64{math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 1e-7, 5e21, math.MaxFloat64} {
		recs = append(recs, JobRecord{ID: 1, RemoteFrac: f, Dilation: -f, Restarts: 2})
	}
	for i, r := range recs {
		want, err := marshalRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, err := appendRecord(nil, &r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d: appendRecord diverges from json.Marshal\n got %s (%v)\nwant %s", i, got, err, want)
		}
	}
}

// FuzzAppendRecord: appendRecord's line equals json.Marshal(jsonRecord)
// for every record, or fails where Marshal fails, with Marshal's
// error; the JSONL sink writes exactly that line or latches exactly
// that error. The committed corpus covers -0, both float-format
// boundaries (1e-6 and 1e21), NaN and ±Inf.
func FuzzAppendRecord(f *testing.F) {
	f.Add(17, 3, 16, int64(100), int64(160), int64(3760), int64(7200), int64(7200), int64(3600),
		int64(32768), int64(8192), 0.25, 1.125, false, false, 0)
	f.Add(23, 0, 4, int64(230), int64(0), int64(0), int64(0), int64(0), int64(0),
		int64(0), int64(0), 0.0, 1.0, false, true, 0)
	f.Fuzz(func(t *testing.T, id, user, nodes int, submit, start, end, estimate, limit, base,
		mem, remote int64, frac, dil float64, killed, rejected bool, restarts int) {
		r := JobRecord{
			ID: id, User: user, Nodes: nodes, Submit: submit, Start: start, End: end,
			Estimate: estimate, Limit: limit, BaseRuntime: base, MemPerNode: mem,
			RemoteMiB: remote, RemoteFrac: frac, Dilation: dil,
			Killed: killed, Rejected: rejected, Restarts: restarts,
		}
		want, wantErr := marshalRecord(r)
		got, err := appendRecord(nil, &r)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendRecord error = %v, json.Marshal error = %v", err, wantErr)
			}
		} else if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendRecord diverges from json.Marshal\n got %s (%v)\nwant %s", got, err, want)
		}
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		s.Add(r)
		err = s.Close()
		switch {
		case wantErr != nil && (err == nil || err.Error() != wantErr.Error() || buf.Len() != 0):
			t.Fatalf("sink: Close() = %v with %q written, want latched %v", err, buf.Bytes(), wantErr)
		case wantErr == nil && (err != nil || buf.String() != string(want)+"\n"):
			t.Fatalf("sink: Close() = %v, wrote %q, want %s", err, buf.Bytes(), want)
		}
	})
}
