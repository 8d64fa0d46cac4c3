// Package report renders one simulation Result as the canonical
// plain-text report. It exists so every surface that prints a report —
// cmd/dmsched, cmd/dmserve's text-format what-if responses, the serve
// smoke in CI — emits byte-identical text for identical results: the
// CI equivalence checks literally diff the output of the online
// service against the offline CLI.
package report

import (
	"fmt"
	"strings"

	"dismem"
)

// Format renders res under the given policy label. The layout is the
// historical dmsched report; changing it invalidates the CI smoke
// diffs, so treat it as a wire format.
func Format(label string, res *dismem.Result) string {
	var b strings.Builder
	r := res.Report
	fmt.Fprintf(&b, "policy            %s\n", label)
	fmt.Fprintf(&b, "jobs              %d completed, %d killed, %d rejected\n", r.Completed, r.Killed, r.Rejected)
	fmt.Fprintf(&b, "makespan          %.1f h (%d DES events)\n", float64(r.MakespanSec)/3600, res.Events)
	fmt.Fprintf(&b, "wait              mean %.0f s, p95 %.0f s, p99 %.0f s\n", r.Wait.Mean(), r.P95Wait, r.P99Wait)
	fmt.Fprintf(&b, "bounded slowdown  mean %.1f, p95 %.1f\n", r.BSld.Mean(), r.P95BSld)
	fmt.Fprintf(&b, "node utilization  %.1f%%\n", 100*r.NodeUtil)
	fmt.Fprintf(&b, "local mem util    %.1f%%\n", 100*r.LocalMemUtil)
	fmt.Fprintf(&b, "pool util         %.1f%% (mean fabric demand %.1f GiB/s)\n", 100*r.PoolUtil, r.MeanFabricDemand)
	fmt.Fprintf(&b, "throughput        %.1f jobs/h (%.0f node-hours delivered)\n", r.ThroughputPerHour, r.NodeHours)
	fmt.Fprintf(&b, "pool-using jobs   %.1f%% (mean dilation %s, p95 %s)\n",
		100*r.RemoteJobFraction, dilation(r.DilationRemote.Mean()), dilation(r.P95DilationRemote))
	if r.NodeFailures > 0 {
		fmt.Fprintf(&b, "failures          %d node failures, %d jobs killed by them\n",
			r.NodeFailures, r.FailureKills)
	}
	if res.ScenarioEvents > 0 {
		fmt.Fprintf(&b, "scenario          %d interventions applied\n", res.ScenarioEvents)
	}
	fair := res.Recorder.Fairness()
	fmt.Fprintf(&b, "fairness          Jain(wait) %.3f over %d users\n", fair.JainWait, len(fair.Users))
	return b.String()
}

// dilation formats a runtime multiplier: two decimals, as every
// realistic model dilates by well under 1e6, and three significant
// digits from 1e6 up, so a huge dilation cannot print hundreds of
// digits.
func dilation(x float64) string {
	if x < 1e6 {
		return fmt.Sprintf("%.2f", x)
	}
	return fmt.Sprintf("%.3g", x)
}
