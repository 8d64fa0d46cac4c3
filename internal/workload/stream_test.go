package workload

import (
	"bytes"
	"strings"
	"testing"
)

func sameJob(a, b *Job) bool { return *a == *b }

func TestGenStreamMatchesGenerate(t *testing.T) {
	// Pulling a fresh stream N times must yield exactly the N-job
	// materialised workload (the sort in Generate is a stable no-op:
	// streams produce nondecreasing submits with ascending IDs).
	cfg := DefaultGenConfig(500, 9, 256)
	w := MustGenerate(cfg)
	st, err := NewGenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range w.Jobs {
		got, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended at %d, want %d jobs", i, len(w.Jobs))
		}
		if !sameJob(got, want) {
			t.Fatalf("job %d: stream %+v != generate %+v", i, got, want)
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream produced more than cfg.Jobs jobs")
	}
}

func TestLublinStreamMatchesGenerate(t *testing.T) {
	cfg := DefaultLublinConfig(500, 4, 256)
	w := MustGenerateLublin(cfg)
	st, err := NewLublinStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range w.Jobs {
		got, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended at %d, want %d jobs", i, len(w.Jobs))
		}
		if !sameJob(got, want) {
			t.Fatalf("job %d: stream %+v != generate %+v", i, got, want)
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream produced more than cfg.Jobs jobs")
	}
}

func TestUnboundedStreamExtendsBoundedPrefix(t *testing.T) {
	// Jobs=0 produces forever; its prefix must equal any bounded run
	// with the same seed (the cap must not perturb the sample streams).
	bounded := DefaultGenConfig(50, 2, 64)
	unbounded := bounded
	unbounded.Jobs = 0
	bs, err := NewGenStream(bounded)
	if err != nil {
		t.Fatal(err)
	}
	us, err := NewGenStream(unbounded)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, okA := bs.Next()
		b, okB := us.Next()
		if !okA || !okB || !sameJob(a, b) {
			t.Fatalf("job %d diverges: %+v vs %+v", i, a, b)
		}
	}
	if _, ok := bs.Next(); ok {
		t.Fatal("bounded stream did not stop at its cap")
	}
	if j, ok := us.Next(); !ok || j.ID != 51 {
		t.Fatalf("unbounded stream should continue past the cap, got %v %v", j, ok)
	}
}

func TestSWFDecoderMatchesReadSWF(t *testing.T) {
	wl := MustGenerate(DefaultGenConfig(200, 5, 128))
	var buf bytes.Buffer
	if err := WriteSWF(&buf, wl); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	batch, skipped, err := ReadSWF(bytes.NewReader(data), SWFReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewSWFDecoder(bytes.NewReader(data), SWFReadOptions{})
	for i, want := range batch.Jobs {
		got, ok := d.Next()
		if !ok {
			t.Fatalf("decoder ended at %d, want %d jobs (err %v)", i, len(batch.Jobs), d.Err())
		}
		if !sameJob(got, want) {
			t.Fatalf("job %d: decoder %+v != ReadSWF %+v", i, got, want)
		}
	}
	if _, ok := d.Next(); ok {
		t.Fatal("decoder produced extra jobs")
	}
	if d.Err() != nil || d.Skipped() != skipped {
		t.Fatalf("decoder err=%v skipped=%d, want nil and %d", d.Err(), d.Skipped(), skipped)
	}
}

// TestSWFDecoderJobsAreOwned: the decoder carves jobs from chunks, so
// every job it hands out, across several chunks, must be its own
// memory: writing through one pointer changes no other job, and what
// the caller keeps stays what was decoded.
func TestSWFDecoderJobsAreOwned(t *testing.T) {
	wl := MustGenerate(DefaultGenConfig(3*swfJobChunk+5, 5, 128))
	var buf bytes.Buffer
	if err := WriteSWF(&buf, wl); err != nil {
		t.Fatal(err)
	}
	batch, _, err := ReadSWF(bytes.NewReader(buf.Bytes()), SWFReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewSWFDecoder(bytes.NewReader(buf.Bytes()), SWFReadOptions{})
	var kept []*Job
	for {
		j, ok := d.Next()
		if !ok {
			break
		}
		kept = append(kept, j)
		j.User = -j.ID // scribble on the job just handed out
	}
	if len(kept) != len(batch.Jobs) {
		t.Fatalf("decoded %d jobs, want %d (err %v)", len(kept), len(batch.Jobs), d.Err())
	}
	for i, j := range kept {
		want := *batch.Jobs[i]
		want.User = -want.ID
		if !sameJob(j, &want) {
			t.Fatalf("job %d: kept %+v, want %+v", i, j, want)
		}
	}
}

func TestSWFDecoderMaxJobsAndErrors(t *testing.T) {
	trace := "; header\n" +
		"1 0 -1 100 4 -1 -1 4 200 1024 1 7 0 -1 -1 -1 -1 -1\n" +
		"2 10 -1 100 4 -1 -1 4 200 1024 1 7 0 -1 -1 -1 -1 -1\n" +
		"3 20 -1 100 4 -1 -1 4 200 1024 1 7 0 -1 -1 -1 -1 -1\n"
	d := NewSWFDecoder(strings.NewReader(trace), SWFReadOptions{MaxJobs: 2})
	n := 0
	for {
		_, ok := d.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 || d.Err() != nil {
		t.Fatalf("MaxJobs=2 yielded %d jobs, err %v", n, d.Err())
	}

	bad := NewSWFDecoder(strings.NewReader("1 2 3\n"), SWFReadOptions{})
	if _, ok := bad.Next(); ok || bad.Err() == nil {
		t.Fatalf("short line should end the stream with an error, got err %v", bad.Err())
	}
	if _, ok := bad.Next(); ok {
		t.Fatal("decoder must stay ended after an error")
	}
}

func TestSWFWriterMatchesWriteSWF(t *testing.T) {
	wl := MustGenerate(DefaultGenConfig(50, 8, 64))
	var batch bytes.Buffer
	if err := WriteSWF(&batch, wl); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sw := NewSWFWriter(&stream)
	sw.Comment("streamed header differs; records must not")
	for _, j := range wl.Jobs {
		if err := sw.WriteJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	stripHeader := func(s string) string {
		lines := strings.SplitN(s, "\n", 2)
		return lines[1]
	}
	if stripHeader(batch.String()) != stripHeader(stream.String()) {
		t.Fatal("streamed records differ from batch WriteSWF records")
	}
}
