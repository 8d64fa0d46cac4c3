package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"dismem/internal/stats"
)

func TestSWFRoundTrip(t *testing.T) {
	orig := MustGenerate(DefaultGenConfig(200, 5, 64))
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadSWF(&buf, SWFReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("round-trip skipped %d records", skipped)
	}
	if len(got.Jobs) != len(orig.Jobs) {
		t.Fatalf("round-trip: %d jobs, want %d", len(got.Jobs), len(orig.Jobs))
	}
	for i, want := range orig.Jobs {
		g := got.Jobs[i]
		if g.ID != want.ID || g.Submit != want.Submit || g.Nodes != want.Nodes ||
			g.BaseRuntime != want.BaseRuntime || g.Estimate != want.Estimate ||
			g.User != want.User || g.Group != want.Group {
			t.Fatalf("job %d mismatch:\n got %+v\nwant %+v", i, g, want)
		}
		if g.MemPerNode != want.MemPerNode {
			t.Fatalf("job %d memory: got %d, want %d", i, g.MemPerNode, want.MemPerNode)
		}
	}
}

// TestSWFRoundTripProperty: arbitrary valid jobs survive write→read.
func TestSWFRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(1)
	check := func(n uint8) bool {
		jobs := int(n%40) + 1
		w := &Workload{Name: "prop"}
		submit := int64(0)
		for i := 1; i <= jobs; i++ {
			submit += rng.Int63n(1000)
			rt := rng.Int63n(10000) + 1
			w.Jobs = append(w.Jobs, &Job{
				ID: i, User: int(rng.Intn(50)), Group: int(rng.Intn(8)),
				Submit: submit, Nodes: int(rng.Intn(128)) + 1,
				MemPerNode:  rng.Int63n(1 << 18),
				BaseRuntime: rt,
				Estimate:    rt + rng.Int63n(100000),
			})
		}
		var buf bytes.Buffer
		if err := WriteSWF(&buf, w); err != nil {
			return false
		}
		got, skipped, err := ReadSWF(&buf, SWFReadOptions{})
		if err != nil || skipped != 0 || len(got.Jobs) != jobs {
			return false
		}
		for i, want := range w.Jobs {
			g := got.Jobs[i]
			if g.ID != want.ID || g.Submit != want.Submit ||
				g.Nodes != want.Nodes || g.BaseRuntime != want.BaseRuntime ||
				g.Estimate != want.Estimate {
				return false
			}
			// Memory tolerates MiB quantisation of the KB field only for
			// the zero case (0 MiB becomes the reader default).
			if want.MemPerNode > 0 && g.MemPerNode != want.MemPerNode {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSWFWriteJobLineFormat pins WriteJob's append encoder to the
// fmt format it replaced, over random jobs with and without a
// per-node core count.
func TestSWFWriteJobLineFormat(t *testing.T) {
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		j := &Job{
			ID: rng.Intn(1 << 30), User: rng.Intn(1000) - 5, Group: rng.Intn(64) - 1,
			Submit: rng.Int63n(1<<40) - 10, Nodes: rng.Intn(4096),
			MemPerNode: rng.Int63n(1 << 20), Estimate: rng.Int63n(1<<24) - 1,
			BaseRuntime: rng.Int63n(1 << 24),
		}
		if i%2 == 1 {
			j.CoresPerNode = 1 + rng.Intn(128)
		}
		procs, memKBPerProc := j.Nodes, j.MemPerNode*1024
		if j.CoresPerNode > 0 {
			procs = j.Nodes * j.CoresPerNode
			memKBPerProc = j.MemPerNode * 1024 / int64(j.CoresPerNode)
		}
		want := fmt.Sprintf("%d %d -1 %d %d -1 -1 %d %d %d 1 %d %d -1 -1 -1 -1 -1\n",
			j.ID, j.Submit, j.BaseRuntime, procs,
			procs, j.Estimate, memKBPerProc, j.User, j.Group)
		var buf bytes.Buffer
		sw := NewSWFWriter(&buf)
		if err := sw.WriteJob(j); err != nil {
			t.Fatal(err)
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Fatalf("job %+v:\n got %q\nwant %q", j, got, want)
		}
	}
}

func TestReadSWFSkipsCommentsAndBlank(t *testing.T) {
	in := `; comment header
; another

1 0 -1 100 4 -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1
`
	w, skipped, err := ReadSWF(strings.NewReader(in), SWFReadOptions{DefaultMemPerNode: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(w.Jobs) != 1 {
		t.Fatalf("jobs=%d skipped=%d, want 1/0", len(w.Jobs), skipped)
	}
	j := w.Jobs[0]
	if j.ID != 1 || j.Nodes != 4 || j.BaseRuntime != 100 || j.Estimate != 200 ||
		j.User != 7 || j.MemPerNode != 1024 {
		t.Fatalf("parsed job = %+v", j)
	}
}

func TestReadSWFSkipsUnusableRecords(t *testing.T) {
	in := `1 0 -1 100 4 -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1
2 5 -1 0 4 -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1
3 6 -1 100 0 -1 -1 0 200 -1 1 7 0 -1 -1 -1 -1 -1
`
	w, skipped, err := ReadSWF(strings.NewReader(in), SWFReadOptions{DefaultMemPerNode: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || skipped != 2 {
		t.Fatalf("jobs=%d skipped=%d, want 1/2 (zero runtime and zero size dropped)", len(w.Jobs), skipped)
	}
}

func TestReadSWFErrors(t *testing.T) {
	// Too few fields.
	if _, _, err := ReadSWF(strings.NewReader("1 2 3\n"), SWFReadOptions{}); err == nil {
		t.Fatal("short record accepted")
	}
	// Non-integer field.
	bad := "1 0 -1 100 x -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1\n"
	if _, _, err := ReadSWF(strings.NewReader(bad), SWFReadOptions{}); err == nil {
		t.Fatal("non-integer field accepted")
	}
}

func TestReadSWFNodeCoresConversion(t *testing.T) {
	// 70 processors at 32 cores/node → ceil(70/32) = 3 nodes.
	in := "1 0 -1 100 70 -1 -1 70 200 32768 1 7 0 -1 -1 -1 -1 -1\n"
	w, _, err := ReadSWF(strings.NewReader(in), SWFReadOptions{NodeCores: 32})
	if err != nil {
		t.Fatal(err)
	}
	j := w.Jobs[0]
	if j.Nodes != 3 || j.CoresPerNode != 32 {
		t.Fatalf("nodes=%d cores=%d, want 3/32", j.Nodes, j.CoresPerNode)
	}
	// 32768 KB/proc = 32 MiB/proc × 32 procs/node = 1024 MiB/node.
	if j.MemPerNode != 1024 {
		t.Fatalf("mem/node = %d, want 1024", j.MemPerNode)
	}
}

func TestReadSWFMaxJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSWF(&buf, MustGenerate(DefaultGenConfig(50, 2, 16))); err != nil {
		t.Fatal(err)
	}
	w, _, err := ReadSWF(&buf, SWFReadOptions{MaxJobs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 10 {
		t.Fatalf("MaxJobs: got %d jobs, want 10", len(w.Jobs))
	}
}

func TestReadSWFRuntimePastEstimate(t *testing.T) {
	// Runtime 300 > request 200: estimate must be lifted to the runtime
	// so the record stays self-consistent.
	in := "1 0 -1 300 4 -1 -1 4 200 -1 1 7 0 -1 -1 -1 -1 -1\n"
	w, _, err := ReadSWF(strings.NewReader(in), SWFReadOptions{DefaultMemPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Jobs[0].Estimate != 300 {
		t.Fatalf("estimate = %d, want lifted to 300", w.Jobs[0].Estimate)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}
