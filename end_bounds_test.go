package dismem_test

import (
	"testing"

	"dismem"
)

// TestHugeDilationLimitsDoNotWrap: under linear:1e300 every pool-using
// job dilates by about 1e300, so its extended limit ⌈Estimate ×
// dilation⌉ and its finish are far beyond int64. They used to wrap:
// the limit read -2^63 and each such job "completed" the second it
// started. The limit now clamps to workload.MaxSeconds and the finish
// past it becomes a kill at the deadline, so no record has a limit
// below its estimate or ends before start + min(limit, base runtime).
func TestHugeDilationLimitsDoNotWrap(t *testing.T) {
	mc := dismem.DefaultMachine()
	mc.LocalMemMiB = 16 * 1024
	wl, err := dismem.GenerateWorkload(dismem.DefaultGen(200, 1, mc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dismem.Simulate(dismem.Options{Machine: mc, Policy: "easy-oblivious", Model: "linear:1e300", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	remote := 0
	for _, r := range res.Recorder.Records() {
		if r.Rejected {
			continue
		}
		if r.RemoteMiB > 0 {
			remote++
		}
		if r.Limit < r.Estimate {
			t.Errorf("job %d: limit %d below its estimate %d", r.ID, r.Limit, r.Estimate)
		}
		if earliest := r.Start + min(r.Limit, r.BaseRuntime); r.End < earliest {
			t.Errorf("job %d: ends at %d, before start %d + min(limit %d, runtime %d)", r.ID, r.End, r.Start, r.Limit, r.BaseRuntime)
		}
	}
	if remote == 0 {
		t.Fatal("no job used the pool: the huge dilation was never exercised")
	}
}
