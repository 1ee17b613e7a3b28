// Command bench-diff compares two BENCH_sim.json documents (schema
// plasticine-bench-sim/v1) and fails when any benchmark's simulated cycle
// count regressed beyond a threshold. It is the CI perf-regression gate:
// cycle counts are deterministic, so any drift is a real behaviour change.
// Wall-clock throughput (cycles_per_second, host-dependent) is reported as
// a delta column and, with -min-cps, gated against an absolute floor — a
// coarse bound that catches order-of-magnitude scheduling-core regressions
// without flaking on host noise.
//
//	go run ./tools/bench-diff [-threshold 0.0] [-min-cps 0] base.json new.json
//
// On success it also prints the slowest benchmark's throughput and its
// margin over the -min-cps floor. Exit status: 0 when every benchmark is
// within threshold (and above the throughput floor, when set), 1 on
// regression or schema mismatch, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"plasticine/internal/core"
)

func main() {
	fs := flag.NewFlagSet("bench-diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.0,
		"allowed fractional cycle-count regression per benchmark (0.02 = 2%)")
	minCPS := fs.Float64("min-cps", 0,
		"minimum simulated cycles per host second each new-document benchmark must sustain (0 = no throughput gate)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench-diff [-threshold frac] [-min-cps cps] <base.json> <new.json>")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	if *threshold < 0 {
		fmt.Fprintln(os.Stderr, "bench-diff: -threshold must be >= 0")
		os.Exit(2)
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff:", err)
		os.Exit(1)
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-diff:", err)
		os.Exit(1)
	}

	baseBy := map[string]core.BenchSim{}
	for _, r := range base.Results {
		baseBy[r.Benchmark] = r
	}
	regressions := 0
	var slowest *core.BenchSim
	fmt.Printf("%-14s %12s %12s %9s %11s %9s\n",
		"benchmark", "base cycles", "new cycles", "delta", "Mcyc/s", "cps delta")
	for i, r := range cur.Results {
		if slowest == nil || r.CyclesPerSec < slowest.CyclesPerSec {
			slowest = &cur.Results[i]
		}
		cps := fmt.Sprintf("%11.2f", r.CyclesPerSec/1e6)
		slow := ""
		if *minCPS > 0 && r.CyclesPerSec < *minCPS {
			slow = "  TOO SLOW"
			regressions++
		}
		b, ok := baseBy[r.Benchmark]
		if !ok {
			fmt.Printf("%-14s %12s %12d %9s %s %9s  (new benchmark)%s\n",
				r.Benchmark, "-", r.Cycles, "-", cps, "-", slow)
			continue
		}
		delete(baseBy, r.Benchmark)
		delta := float64(r.Cycles-b.Cycles) / float64(b.Cycles)
		mark := ""
		if delta > *threshold {
			mark = "  REGRESSION"
			regressions++
		}
		cpsDelta := "        -"
		if b.CyclesPerSec > 0 {
			cpsDelta = fmt.Sprintf("%+8.1f%%", 100*(r.CyclesPerSec-b.CyclesPerSec)/b.CyclesPerSec)
		}
		fmt.Printf("%-14s %12d %12d %+8.2f%% %s %s%s%s\n",
			r.Benchmark, b.Cycles, r.Cycles, 100*delta, cps, cpsDelta, mark, slow)
	}
	for name := range baseBy {
		fmt.Printf("%-14s dropped from the new results  REGRESSION\n", name)
		regressions++
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: %d benchmark(s) regressed (cycle threshold %.2f%%, throughput floor %.0f cyc/s)\n",
			regressions, 100**threshold, *minCPS)
		os.Exit(1)
	}
	// Headroom: how much host noise the slowest benchmark can absorb before
	// the throughput floor trips.
	line := fmt.Sprintf("bench-diff: slowest %s at %.2f Mcyc/s", slowest.Benchmark, slowest.CyclesPerSec/1e6)
	if *minCPS > 0 {
		line += fmt.Sprintf(", %+.1f%% over the %.2f Mcyc/s floor", 100*(slowest.CyclesPerSec / *minCPS - 1), *minCPS/1e6)
	}
	fmt.Println(line)
	fmt.Println("bench-diff: ok")
}

func load(path string) (*core.BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f core.BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != core.BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, core.BenchSchema)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &f, nil
}
