// Command tracegen generates a synthetic workload in the Standard
// Workload Format (SWF) on stdout or into a file:
//
//	tracegen -jobs 10000 -seed 7 -o trace.swf
//	tracegen -jobs 2000 -accuracy 0.8 | head
//
// -n streams jobs straight from the lazy generator to the SWF encoder
// — no in-memory workload, flat memory at any size — so multi-million
// job traces cost nothing but disk:
//
//	tracegen -model lublin -n 5000000 -o big.swf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dismem"
	"dismem/internal/source"
	"dismem/internal/workload"
)

func main() {
	var (
		jobs     = flag.Int("jobs", 10000, "number of jobs (materialised generation)")
		stream   = flag.Int("n", 0, "stream this many jobs straight to SWF with flat memory (overrides -jobs; incompatible with -summary)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		maxNodes = flag.Int("max-nodes", 256, "largest job width (nodes)")
		arrival  = flag.Float64("interarrival", 90, "mean inter-arrival time (s)")
		accuracy = flag.Float64("accuracy", 0.4, "mean user estimate accuracy in (0,1]")
		largeMem = flag.Float64("large-mem", 0.18, "fraction of data-intensive (large-memory) jobs")
		model    = flag.String("model", "calibrated", "workload model: calibrated | lublin")
		out      = flag.String("o", "", "output file (default stdout)")
		summary  = flag.Bool("summary", false, "print a workload summary to stderr")
	)
	flag.Parse()
	if *stream < 0 {
		fatalf("-n is %d; want >= 0 (0 generates -jobs jobs in memory)", *stream)
	}

	// Validate the model and generator configuration — and materialise
	// the workload, on the batch path — before touching -o, so a bad
	// invocation cannot truncate an existing trace file.
	var wl *dismem.Workload
	var src *source.GenSource
	if *stream > 0 {
		if *summary {
			fatalf("-summary needs a materialised workload; use -jobs instead of -n")
		}
		src = buildStream(*model, *stream, *seed, *maxNodes, *arrival, *accuracy, *largeMem)
	} else {
		var err error
		switch *model {
		case "calibrated":
			cfg := workloadDefault(*jobs, *seed, *maxNodes)
			cfg.MeanInterarrival = *arrival
			cfg.EstimateAccuracy = *accuracy
			cfg.LargeMemFraction = *largeMem
			wl, err = dismem.GenerateWorkload(cfg)
		case "lublin":
			cfg := workload.DefaultLublinConfig(*jobs, *seed, *maxNodes)
			cfg.MeanInterarrival = *arrival
			cfg.EstimateAccuracy = *accuracy
			cfg.LargeMemFraction = *largeMem
			wl, err = workload.GenerateLublin(cfg)
		default:
			fatalf("unknown workload model %q", *model)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *out, err)
			}
		}()
		w = f
	}

	if src != nil {
		// Stream the lazy generator into the streaming SWF encoder: one
		// job in flight at a time. The emitted records are identical to
		// the materialised path's for the same parameters (only the
		// header comment differs, which readers skip).
		sw := workload.NewSWFWriter(w)
		sw.Comment(fmt.Sprintf("SWF trace %s(n=%d,seed=%d), streamed by dismem", *model, *stream, *seed))
		if err := sw.WriteAll(src.Next); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if err := workload.WriteSWF(w, wl); err != nil {
		fatalf("%v", err)
	}
	if *summary {
		fmt.Fprint(os.Stderr, workload.Summarize(wl, 64*1024))
	}
}

// buildStream constructs the capped lazy generator source, validating
// the model name and configuration.
func buildStream(model string, n int, seed uint64, maxNodes int, arrival, accuracy, largeMem float64) *source.GenSource {
	var stream source.JobStream
	var err error
	switch model {
	case "calibrated":
		cfg := workloadDefault(0, seed, maxNodes)
		cfg.MeanInterarrival = arrival
		cfg.EstimateAccuracy = accuracy
		cfg.LargeMemFraction = largeMem
		stream, err = workload.NewGenStream(cfg)
	case "lublin":
		cfg := workload.DefaultLublinConfig(0, seed, maxNodes)
		cfg.MeanInterarrival = arrival
		cfg.EstimateAccuracy = accuracy
		cfg.LargeMemFraction = largeMem
		stream, err = workload.NewLublinStream(cfg)
	default:
		fatalf("unknown workload model %q", model)
	}
	if err != nil {
		fatalf("%v", err)
	}
	return source.Gen(stream, n, 0)
}

func workloadDefault(jobs int, seed uint64, maxNodes int) dismem.GenConfig {
	return workload.DefaultGenConfig(jobs, seed, maxNodes)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
