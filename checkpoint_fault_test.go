package dismem_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"dismem"
)

// Fault-injection suite for the checkpoint envelope: a corrupted file
// must never load. Every truncation point and every bit flip is an
// error — zero silent successes — because a checkpoint that loads
// wrong produces a silently wrong simulation, the one failure mode a
// determinism-first simulator cannot tolerate.

// envelopeBytes returns one valid saved checkpoint to mutate.
func envelopeBytes(t *testing.T) []byte {
	t.Helper()
	cp := checkpointAt(t, forkOpts(dismem.SyntheticWorkload(300, 8)), 15000)
	var buf bytes.Buffer
	if err := dismem.SaveCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsTruncation cuts the envelope at every structural
// boundary and at a stride through the payload; every prefix must fail
// to load. (The empty prefix fails too: no magic.)
func TestLoadRejectsTruncation(t *testing.T) {
	env := envelopeBytes(t)
	cuts := map[int]bool{
		0:            true,
		4:            true, // mid-magic
		8:            true, // after magic
		10:           true, // mid-version
		12:           true, // after version
		28:           true, // mid-fingerprint
		44:           true, // after fingerprint
		48:           true, // mid-length
		52:           true, // after length (zero payload bytes)
		len(env) - 1: true, // one digest byte short
	}
	for cut := 53; cut < len(env); cut += 61 { // prime stride through payload+digest
		cuts[cut] = true
	}
	for cut := range cuts {
		if cut < 0 || cut >= len(env) {
			continue
		}
		if _, err := dismem.LoadCheckpoint(bytes.NewReader(env[:cut])); err == nil {
			t.Errorf("truncation at byte %d of %d loaded successfully", cut, len(env))
		}
	}
	// The untouched envelope still loads: the suite is mutating a valid
	// baseline, not a broken one.
	if _, err := dismem.LoadCheckpoint(bytes.NewReader(env)); err != nil {
		t.Fatalf("baseline envelope failed to load: %v", err)
	}
}

// TestLoadRejectsBitFlips flips one byte per 64-byte window across the
// whole envelope — header, payload and digest — and requires every
// mutant to fail.
func TestLoadRejectsBitFlips(t *testing.T) {
	env := envelopeBytes(t)
	mutant := make([]byte, len(env))
	for off := 0; off < len(env); off += 64 {
		i := off + (off/64)%64 // walk the flip position through the window
		if i >= len(env) {
			i = len(env) - 1
		}
		copy(mutant, env)
		mutant[i] ^= 1 << (uint(off/64) % 8)
		if _, err := dismem.LoadCheckpoint(bytes.NewReader(mutant)); err == nil {
			t.Errorf("bit flip at byte %d (window %d) loaded successfully", i, off/64)
		}
	}
}

// TestLoadRejectsVersionSkew rewrites each header field with plausible
// but wrong values: future/zero format versions and a drifted schema
// fingerprint.
func TestLoadRejectsVersionSkew(t *testing.T) {
	env := envelopeBytes(t)
	patch := func(off int, b []byte) []byte {
		m := append([]byte(nil), env...)
		copy(m[off:], b)
		return m
	}
	cases := map[string][]byte{
		"future version":      patch(8, []byte{0, 0, 0, 99}),
		"zero version":        patch(8, []byte{0, 0, 0, 0}),
		"drifted fingerprint": patch(12, bytes.Repeat([]byte{0xAB}, 32)),
		"wrong magic":         patch(0, []byte("DMCKPT9\n")),
		"oversized length":    patch(44, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
	}
	for name, m := range cases {
		if _, err := dismem.LoadCheckpoint(bytes.NewReader(m)); err == nil {
			t.Errorf("%s loaded successfully", name)
		}
	}
}

// TestLoadRejectsPayloadForgery re-frames a structurally broken payload
// behind a VALID digest, proving validation does not stop at the
// checksum: the decoder and the state validators must still reject it.
func TestLoadRejectsPayloadForgery(t *testing.T) {
	env := envelopeBytes(t)
	header := env[:44] // magic + version + fingerprint from a real save
	for name, payload := range map[string]string{
		"not json":       "this is not a checkpoint",
		"empty object":   "{}",
		"null state":     `{"machine":{},"model":"linear:0.5","state":null}`,
		"unknown field":  `{"bogusField":1}`,
		"negative now":   `{"machine":{"Racks":1,"NodesPerRack":1,"CoresPerNode":1,"LocalMemMiB":1024},"model":"linear:0.5","state":{"now":-5,"fired":0,"events":[],"machine":{},"recorder":{}}}`,
		"bad event kind": `{"machine":{"Racks":1,"NodesPerRack":1,"CoresPerNode":1,"LocalMemMiB":1024},"model":"linear:0.5","state":{"now":0,"fired":0,"events":[{"t":1,"kind":"warp-core-breach"}],"machine":{},"recorder":{}}}`,
	} {
		if _, err := dismem.LoadCheckpoint(bytes.NewReader(forgeEnvelope(header, []byte(payload)))); err == nil {
			t.Errorf("forged payload %q loaded successfully", name)
		}
	}

	// One forged field over an otherwise valid payload (real machine,
	// model and state): each check must fire on its own and name its
	// field. A zero machine or an empty model is a forgery, not a
	// default to fill — a saved run records both resolved.
	valid := env[52 : len(env)-32]
	if _, err := dismem.LoadCheckpoint(bytes.NewReader(forgeEnvelope(header, valid))); err != nil {
		t.Fatalf("unforged payload failed to load: %v", err)
	}
	for _, tc := range []struct{ name, field, value, want string }{
		{"zero machine", "machine", `{}`, "checkpoint machine config"},
		{"empty model", "model", `""`, "checkpoint memory model"},
		{"unknown model", "model", `"antigravity:9"`, "checkpoint memory model"},
		{"unknown policy", "policy", `"no-such-policy="`, "checkpoint policy"},
		{"bad scenario", "scenario", `"at=banana explode"`, "checkpoint scenario"},
		{"invalid failures", "failures", `{"MTBFPerNodeSec":-1,"RepairSec":0}`, "checkpoint failure config"},
	} {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(valid, &fields); err != nil {
			t.Fatal(err)
		}
		fields[tc.field] = json.RawMessage(tc.value)
		payload, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		_, err = dismem.LoadCheckpoint(bytes.NewReader(forgeEnvelope(header, payload)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("forged %s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to the loader. The
// invariant: LoadCheckpoint never panics, and anything it accepts is a
// usable checkpoint — forking and running it must not panic either.
// The committed corpus (testdata/fuzz/FuzzLoadCheckpoint) seeds the
// interesting header shapes; a full valid envelope is added here so
// mutation starts from the deep decode paths too.
func FuzzLoadCheckpoint(f *testing.F) {
	cp := checkpointAtTB(f, dismem.Options{
		Policy:   "memaware",
		Workload: dismem.SyntheticWorkload(120, 3),
	}, 8000)
	var valid bytes.Buffer
	if err := dismem.SaveCheckpoint(&valid, cp); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:52])
	f.Add([]byte{})
	f.Add([]byte("DMCKPT1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := dismem.LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the common, correct outcome
		}
		s, err := dismem.Fork(loaded, dismem.ForkOptions{})
		if err != nil {
			return
		}
		_, _ = s.Run()
	})
}

// checkpointAtTB is checkpointAt for either tests or fuzz targets.
func checkpointAtTB(tb testing.TB, opts dismem.Options, t0 int64) *dismem.Checkpoint {
	tb.Helper()
	s, err := dismem.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	s.RunUntil(t0)
	cp, err := s.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return cp
}

// forgeEnvelope frames arbitrary payload bytes behind a correct header
// and digest, mirroring the writer's layout.
func forgeEnvelope(header, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(header)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(payload)))
	buf.Write(n[:])
	buf.Write(payload)
	d := sha256.Sum256(payload)
	buf.Write(d[:])
	return buf.Bytes()
}
