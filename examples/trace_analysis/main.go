// Trace analysis: generate a synthetic trace, write it in the Standard
// Workload Format, read it back (the same path used for real Parallel
// Workloads Archive traces), summarise it, and replay it under two
// policies.
//
//	go run ./examples/trace_analysis
package main

import (
	"bytes"
	"fmt"
	"log"

	"dismem"
	"dismem/internal/workload"
)

func main() {
	// 1. Generate a trace with tighter-than-default user estimates.
	gen := dismem.DefaultGen(1000, 11, dismem.DefaultMachine())
	gen.EstimateAccuracy = 0.6
	wl, err := dismem.GenerateWorkload(gen)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Round-trip through SWF — drop in a real archive trace here.
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, wl); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWF trace: %d bytes\n\n", buf.Len())
	back, skipped, err := workload.ReadSWF(&buf, workload.SWFReadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if skipped > 0 {
		fmt.Printf("(skipped %d unusable records)\n", skipped)
	}

	// 3. Summarise: the workload-characteristics table.
	fmt.Print(workload.Summarize(back, 64*1024))
	fmt.Println()

	// 4. Replay under a local-only baseline and the memory-aware policy.
	// Policies are specs; name= labels the row (the legacy aliases
	// "easy-local" and "memaware" would resolve identically).
	for _, policy := range []string{
		"order=fcfs backfill=easy placer=local name=easy-local",
		"order=fcfs backfill=easy placer=memaware name=memaware",
	} {
		s, err := dismem.NewScheduler(policy)
		if err != nil {
			log.Fatal(err)
		}
		res, err := dismem.Simulate(dismem.Options{
			SchedulerImpl: s,
			Model:         "linear:0.5",
			Workload:      back,
		})
		if err != nil {
			log.Fatal(err)
		}
		r := res.Report
		fmt.Printf("%-12s wait %6.0f s   bsld %5.1f   util %5.1f%%   rejected %d\n",
			s.Name(), r.Wait.Mean(), r.BSld.Mean(), 100*r.NodeUtil, r.Rejected)
	}
	fmt.Println("\n(easy-local rejects every job wider than local DRAM; the")
	fmt.Println(" memory-aware policy serves them from the rack pools)")
}
