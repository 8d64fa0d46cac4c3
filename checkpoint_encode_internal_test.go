package dismem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

// marshalCheckpoint is the reference encoder encodeCheckpoint must
// match byte for byte: json.Marshal of the full payload, records and
// all.
func marshalCheckpoint(cp *Checkpoint) ([]byte, error) {
	st, err := cp.cp.State()
	if err != nil {
		return nil, err
	}
	return json.Marshal(newPayload(cp.opts, st))
}

// checkEncodeMatchesMarshal requires cp's payload pieces to join to
// the reference encoding.
func checkEncodeMatchesMarshal(t *testing.T, name string, cp *Checkpoint) {
	t.Helper()
	want, err := marshalCheckpoint(cp)
	if err != nil {
		t.Fatalf("%s: reference encoder: %v", name, err)
	}
	pieces, err := encodeCheckpoint(cp)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := bytes.Join(pieces, nil); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s (t=%d): payload diverges from json.Marshal at byte %d of %d (want %d)\n got …%.160s\nwant …%.160s",
			name, cp.At(), i, len(got), len(want), got[lo:], want[lo:])
	}
}

// checkEveryInterval advances s to its end, checkpointing every
// interval simulated seconds, and checks each checkpoint's encoding.
// It returns the number of checkpoints checked.
func checkEveryInterval(t *testing.T, name string, s *Simulation, interval int64) int {
	t.Helper()
	n := 0
	for at := (s.Now()/interval + 1) * interval; !s.Done(); at += interval {
		s.RunUntil(at)
		if s.Done() {
			break
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		checkEncodeMatchesMarshal(t, name, cp)
		n++
	}
	return n
}

func mustNewSim(t *testing.T, o Options) *Simulation {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEncodeCheckpointMatchesMarshal: encodeCheckpoint, which splices
// the retained records' shared chunk codes into a payload marshalled
// without them, writes exactly json.Marshal's bytes for a checkpoint
// every 1,800 s of a retaining run under each policy family, with a
// scenario, with failures, of a bounded run and of diverging forks,
// and for a checkpoint loaded from its envelope and the checkpoints of
// that one's fork.
func TestEncodeCheckpointMatchesMarshal(t *testing.T) {
	if raceDetector {
		t.Skip("a single-goroutine byte oracle, 17 times slower under -race; TestConcurrentSaveCheckpointsShareCodes covers the shared codes there")
	}
	scen, err := ParseScenario("at=21600 down rack=2; at=64800 up rack=2; from=0 period=86400 amp=0.4 diurnal")
	if err != nil {
		t.Fatal(err)
	}
	failures := &FailureConfig{MTBFPerNodeSec: 2_000_000, RepairSec: 7200, Seed: 5}
	cases := []struct {
		name string
		opts Options
	}{
		{"memaware", Options{Policy: "memaware", Workload: SyntheticWorkload(2000, 1)}},
		{"easy-local+scenario", Options{Policy: "easy-local", Model: "bandwidth:1,1", Workload: SyntheticWorkload(1000, 2), Scenario: scen}},
		{"memaware-cons+failures", Options{Policy: "memaware-cons", Workload: SyntheticWorkload(1000, 3), Failures: failures}},
		{"bounded", Options{Policy: "memaware", Workload: SyntheticWorkload(1000, 4), RecordSink: DiscardRecords}},
	}
	for _, c := range cases {
		if n := checkEveryInterval(t, c.name, mustNewSim(t, c.opts), 1800); n < 100 {
			t.Fatalf("%s: only %d checkpoints", c.name, n)
		}
	}

	// Forks of a mid-run checkpoint share its chunks, its clipped last
	// one included, which holds one record: each fork fills the other
	// 255 slots with records of its own. One future is the baseline's,
	// one has an outage, and one switches to a local-only policy.
	base := mustNewSim(t, cases[0].opts)
	for base.Sample().Done < 2*256+1 && base.Step() {
	}
	mid, err := base.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	outage, err := ParseScenario(fmt.Sprintf("at=%d down rack=1; at=%d up rack=1", mid.At()+60, mid.At()+30000))
	if err != nil {
		t.Fatal(err)
	}
	for _, fo := range []ForkOptions{{}, {Scenario: outage}, {Policy: "easy-local"}} {
		f, err := Fork(mid, fo)
		if err != nil {
			t.Fatal(err)
		}
		checkEveryInterval(t, "fork", f, 1800)
	}

	// A loaded checkpoint holds fresh chunks, and so does its fork.
	var env bytes.Buffer
	if err := SaveCheckpoint(&env, mid); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&env)
	if err != nil {
		t.Fatal(err)
	}
	checkEncodeMatchesMarshal(t, "loaded", loaded)
	f, err := Fork(loaded, ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkEveryInterval(t, "fork of a loaded checkpoint", f, 7200)
}

// TestEncodeCheckpointAtChunkBoundaries checks checkpoints holding
// exactly 0, 1, 255, 256, 257 and 512 records: none, a part-full
// chunk, a full one with nothing after it, and a full one followed by
// one record.
func TestEncodeCheckpointAtChunkBoundaries(t *testing.T) {
	s := mustNewSim(t, Options{Policy: "memaware", Workload: SyntheticWorkload(1000, 1)})
	for _, n := range []int{0, 1, 255, 256, 257, 512} {
		for s.Sample().Done < n && s.Step() {
		}
		if done := s.Sample().Done; done != n {
			t.Fatalf("run stepped from %d records to %d", n-1, done)
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		checkEncodeMatchesMarshal(t, fmt.Sprintf("%d records", n), cp)
	}
}

// TestConcurrentSaveCheckpointsShareCodes: checkpoints of one run
// share their full chunks, and with them the chunks' code slots.
// Saving them all at once, several times each, while forks of them
// run, must give every save the reference bytes, whichever save
// builds a shared code first.
func TestConcurrentSaveCheckpointsShareCodes(t *testing.T) {
	s := mustNewSim(t, Options{Policy: "memaware", Workload: SyntheticWorkload(1200, 6)})
	var cps []*Checkpoint
	var want [][]byte
	for at := int64(86400); ; at += 86400 {
		s.RunUntil(at)
		if s.Done() {
			break
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := marshalCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		var env bytes.Buffer
		if err := writeEnvelope(&env, [][]byte{payload}); err != nil {
			t.Fatal(err)
		}
		cps, want = append(cps, cp), append(want, env.Bytes())
	}
	if len(cps) < 3 {
		t.Fatalf("only %d checkpoints", len(cps))
	}
	const saves = 3
	got := make([][][]byte, len(cps))
	var wg sync.WaitGroup
	errs := make(chan error, len(cps)*(saves+1))
	for i, cp := range cps {
		got[i] = make([][]byte, saves)
		for k := range saves {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				if err := SaveCheckpoint(&buf, cp); err != nil {
					errs <- err
				}
				got[i][k] = buf.Bytes()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := Fork(cp, ForkOptions{Horizon: cp.At() + 43200})
			if err == nil {
				_, err = f.Run()
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range cps {
		for k := range saves {
			if !bytes.Equal(got[i][k], want[i]) {
				t.Fatalf("checkpoint %d (t=%d), save %d: bytes differ from the reference", i, cps[i].At(), k)
			}
		}
	}
}

// TestEncodeFailsOnNaNRecord: a full chunk holding a NaN dilation
// fails every encode with json.Marshal's error, and SaveCheckpoint
// then writes nothing.
func TestEncodeFailsOnNaNRecord(t *testing.T) {
	s := mustNewSim(t, Options{Policy: "memaware", Workload: SyntheticWorkload(1000, 1)})
	for s.Sample().Done < 300 && s.Step() {
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := cp.cp.State()
	if err != nil {
		t.Fatal(err)
	}
	st.Recorder.Records[17].Dilation = math.NaN()
	p := newPayload(cp.opts, st)
	_, want := json.Marshal(p)
	if want == nil {
		t.Fatal("json.Marshal accepted a NaN")
	}
	bad, err := rebuildCheckpoint(p)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Fork(bad, ForkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fork.RunUntil(bad.At() + 86400)
	later, err := fork.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []*Checkpoint{bad, bad, later} {
		var buf bytes.Buffer
		err := SaveCheckpoint(&buf, c)
		if err == nil || err.Error() != "dismem: encoding checkpoint: "+want.Error() {
			t.Fatalf("encode %d: error %v, want json.Marshal's %v", i, err, want)
		}
		if buf.Len() != 0 {
			t.Fatalf("encode %d: a failed save wrote %d bytes", i, buf.Len())
		}
	}
}
