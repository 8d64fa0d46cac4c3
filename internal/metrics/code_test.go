package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unsafe"

	"dismem/internal/stats"
)

// recordsJSON joins rec's RecordsJSON pieces.
func recordsJSON(t *testing.T, rec *Recorder) ([]byte, error) {
	t.Helper()
	pieces, err := rec.RecordsJSON()
	return bytes.Join(pieces, nil), err
}

// checkRecordsJSON requires rec's joined pieces to be
// json.Marshal(rec.Records())'s bytes, or its error where it fails,
// and no pieces at all for a recorder that retains no records.
func checkRecordsJSON(t *testing.T, name string, rec *Recorder) {
	t.Helper()
	got, err := recordsJSON(t, rec)
	recs := rec.Records()
	if len(recs) == 0 {
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: no records, pieces %q (%v), want none", name, got, err)
		}
		return
	}
	want, wantErr := json.Marshal(recs)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, json.Marshal's %v", name, err, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: pieces diverge from json.Marshal (%v)\n got %.300s\nwant %.300s", name, err, got, want)
	}
}

// TestChunkCodesShared: two checkpoints of one recorder share the code
// of every chunk both hold full, so a later encode writes only the
// records past the last full chunk. Encode a clone, then a later
// clone: the shared chunks' pieces must be the same bytes in the same
// memory. A fork that copies its clipped last chunk gets a slot of its
// own when it fills that chunk, and RecorderFromState builds fresh
// slots that re-encode to equal bytes.
func TestChunkCodesShared(t *testing.T) {
	rng := stats.NewRNG(5)
	id := 0
	add := func(rec *Recorder, n int) {
		for range n {
			id++
			rec.Add(synthRecord(rng, id))
		}
	}
	base := NewRecorder()
	add(base, 3*recordChunk+40)
	early := base.Clone()
	earlyPieces, err := early.RecordsJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkRecordsJSON(t, "early", early)
	if early.chunks[3].code != nil {
		t.Fatalf("a part-full chunk has a code slot")
	}
	add(base, recordChunk)
	late := base.Clone()
	latePieces, err := late.RecordsJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkRecordsJSON(t, "late", late)

	// Pieces: "[", one code per full chunk, then the tail.
	if len(earlyPieces) != 5 || len(latePieces) != 6 {
		t.Fatalf("%d and %d pieces, want 5 and 6", len(earlyPieces), len(latePieces))
	}
	for i := 1; i <= 3; i++ {
		e, l := earlyPieces[i], latePieces[i]
		if !bytes.Equal(e, l) || unsafe.SliceData(e) != unsafe.SliceData(l) {
			t.Fatalf("chunk %d: the later encode did not reuse the earlier code", i-1)
		}
		if early.chunks[i-1].code != late.chunks[i-1].code {
			t.Fatalf("chunk %d: clones hold different slots", i-1)
		}
	}
	// The chunk that was early's tail is full in late: it has a code
	// now, and early still encodes its part of the chunk afresh.
	if code := late.chunks[3].code; code == nil || code.b == nil {
		t.Fatalf("the chunk filled since has no code after an encode")
	}
	checkRecordsJSON(t, "early again", early)

	// A fork of early copies the clipped chunk on its first append, and
	// fills its copy with records of its own.
	fork := early.Clone()
	add(fork, recordChunk-40)
	code := fork.chunks[3].code
	if code == nil || code == late.chunks[3].code {
		t.Fatalf("a fork that filled its copy of a clipped chunk has no slot of its own")
	}
	checkRecordsJSON(t, "fork", fork)
	if code.b == nil || bytes.Equal(code.b, late.chunks[3].code.b) {
		t.Fatalf("the fork's filled chunk has no code of its own")
	}
	checkRecordsJSON(t, "late after the fork", late)

	restored, err := RecorderFromState(late.State())
	if err != nil {
		t.Fatal(err)
	}
	for i := range restored.chunks[:4] {
		if c := restored.chunks[i].code; c == nil || c == late.chunks[i].code {
			t.Fatalf("restored chunk %d shares its slot with the recorder it was captured from", i)
		}
	}
	got, err := recordsJSON(t, restored)
	want, _ := recordsJSON(t, late)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored recorder re-encodes differently (%v)", err)
	}
}

// TestChunkCodeKeepsMarshalError: a full chunk json.Marshal rejects
// fails every encode of every recorder holding it, with Marshal's
// error, and its slot caches no partial code.
func TestChunkCodeKeepsMarshalError(t *testing.T) {
	rng := stats.NewRNG(9)
	rec := NewRecorder()
	for id := 1; id <= recordChunk+10; id++ {
		r := synthRecord(rng, id)
		if id == 17 {
			r.Dilation = math.NaN()
		}
		rec.Add(r)
	}
	_, want := json.Marshal(rec.Records())
	if want == nil {
		t.Fatal("json.Marshal accepted a NaN")
	}
	cp := rec.Clone()
	for i, r := range []*Recorder{cp, cp, rec, rec.Clone()} {
		pieces, err := r.RecordsJSON()
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("encode %d: error %v, want %v", i, err, want)
		}
		if pieces != nil {
			t.Fatalf("encode %d: a failed encode returned %d pieces", i, len(pieces))
		}
		if r.chunks[0].code.b != nil {
			t.Fatalf("encode %d: the failed chunk cached a code", i)
		}
	}
}

// FuzzRecordsJSON: for a recorder, a clone of it and their divergent
// extensions, the joined RecordsJSON pieces equal
// json.Marshal(Records()), or fail where Marshal fails, with its
// error, whatever the chunk boundaries, encode order and float values
// (NaN, ±Inf, -0 and both float-format boundaries included). Each
// recorder is encoded twice, so a second encode reads codes the first
// built. The committed corpus holds 255, 256 and 257 records, and a
// NaN.
func FuzzRecordsJSON(f *testing.F) {
	f.Add(uint64(1), uint16(255), uint16(100), uint16(0), 1.5, uint16(3))
	f.Add(uint64(2), uint16(256), uint16(256), uint16(256), math.Copysign(0, -1), uint16(255))
	f.Add(uint64(3), uint16(257), uint16(0), uint16(300), 1e21, uint16(256))
	f.Fuzz(func(t *testing.T, seed uint64, n, cut, extra uint16, special float64, at uint16) {
		total := int(n) % (4*recordChunk + 2)
		rng := stats.NewRNG(seed)
		recs := make([]JobRecord, total)
		for i := range recs {
			recs[i] = synthRecord(rng, i+1)
			recs[i].Killed = i%5 == 1
			recs[i].Rejected = i%13 == 7
			recs[i].Restarts = i % 3
		}
		if total > 0 {
			recs[int(at)%total].Dilation = special
			recs[int(at)*7%total].RemoteFrac = -special
		}
		split := int(cut) % (total + 1)
		rec := NewRecorder()
		for i := range recs[:split] {
			rec.Add(recs[i])
		}
		clone := rec.Clone()
		checkRecordsJSON(t, "clone", clone)
		for i := range recs[split:] {
			rec.Add(recs[split+i])
		}
		for i := range int(extra) % (2*recordChunk + 1) {
			clone.Add(synthRecord(rng, total+i+1))
		}
		for _, r := range []struct {
			name string
			rec  *Recorder
		}{{"recorder", rec}, {"extended clone", clone}, {"clone of the recorder", rec.Clone()}} {
			checkRecordsJSON(t, r.name, r.rec)
			checkRecordsJSON(t, r.name+" again", r.rec)
		}
	})
}
