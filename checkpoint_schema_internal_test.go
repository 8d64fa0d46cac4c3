package dismem

import (
	"encoding/hex"
	"testing"
)

// TestCheckpointSchemaFingerprintPinned pins the checkpoint envelope's
// schema fingerprint, so every .dmckpt file already on disk — dmserve
// ring entries and dmsched -ckpt-save files — stays loadable across
// refactors of the fingerprint code. The constant changes only
// together with a deliberate change to the payload schema (the
// ckptPayload type graph), which makes existing checkpoints unreadable
// by design.
func TestCheckpointSchemaFingerprintPinned(t *testing.T) {
	const want = "f6416b311ea54c9d223173db7c33771f621dfdb7d2b19f762c5f5105e4297e7d"
	if got := hex.EncodeToString(ckptSchemaFingerprint[:]); got != want {
		t.Fatalf("checkpoint schema fingerprint = %s, want %s", got, want)
	}
}
