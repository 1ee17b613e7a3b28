// Command perfbench is the repository's benchmark: it runs one workload
// against the public APIs of the reproduction's layers, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of its output.
//
// Run it from the root of a checkout through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload table7 --seed 1 --seconds 20 --trace 0
//
// README.md in this directory documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// A run sets the workload up setupReps times before its first pass, and
// again after each pass until its set-ups have taken setupShare of the time
// since the first pass began. setup_s is the median of all of them, so it
// samples the host over the same span as wall_s: the host's speed shifts
// within a second, and set-ups bunched at the start read those shifts.
const (
	setupReps  = 3
	setupShare = 0.05
)

// workload names and the benchmarks the serial ones evaluate.
var (
	table7Benches = []string{"InnerProduct", "OuterProduct", "BlackScholes", "TPCHQ6",
		"GEMM", "GDA", "LogReg", "SGD", "Kmeans", "CNN", "SMDV", "PageRank", "BFS"}
	memboundBenches = []string{"InnerProduct", "TPCHQ6", "SMDV", "PageRank"}
	workloadNames   = []string{"table7", "tune", "membound", "membound-spiked"}
)

// runner is one workload.
type runner interface {
	// workers is the number of goroutines a pass evaluates on.
	workers() int
	// setup prepares the workload; it is repeated before and between
	// passes, and a repetition keeps what earlier passes recorded.
	setup(ctx context.Context) error
	// pass runs the workload's work once; tr is nil on untraced passes. A
	// pass that runs on one goroutine samples hp between its units of work,
	// so the samples cover the run evenly, and leaves the samples' time out
	// of its wall time.
	pass(ctx context.Context, tr *tracer, hp *hostProbe, id int) passResult
	// finish runs once after the timed passes.
	finish(ctx context.Context, tr *tracer) (finishOut, error)
}

// passResult is one pass's outcome.
type passResult struct {
	wall              time.Duration
	cycles            int64
	attempted, failed int64
	errs              []string
	// layer holds the per-layer metrics of a traced pass.
	layer map[string]float64
}

// finishOut is what finish adds to the passes' figures.
type finishOut struct {
	cyclesPerPass int64 // simulated cycles per pass, when the passes cannot count them
	// Paper errors of the workload's Table 7 rows.
	speedupErr, perfwErr float64
}

func newRunner(name, refPath string, seed int64) (runner, error) {
	switch name {
	case "table7":
		return newSerialRunner(table7Benches, refPath, seed, false), nil
	case "membound":
		return newSerialRunner(memboundBenches, refPath, seed, false), nil
	case "membound-spiked":
		return newSerialRunner(memboundBenches, refPath, seed, true), nil
	case "tune":
		return newTuneRunner(refPath), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: table7, tune, membound or membound-spiked")
	seed := fs.Int64("seed", 1, "seed of the DRAM fault draws on membound-spiked")
	seconds := fs.Float64("seconds", 10, "how long to run timed passes")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	ref := fs.String("ref", "BENCH_sim.json", "pinned nominal cycles")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	r, err := newRunner(*workload, *ref, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx := context.Background()
	traced := *traceFlag == 1
	o, err := measure(ctx, r, *seconds, traced, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range o.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	rep := report{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed}
	if traced {
		rep.Metrics = o.perLayer()
		o.printShares(stdout, *workload)
		path, err := o.tr.write(*spanDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans:", path)
	} else {
		rep.Metrics = o.endToEnd()
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured.
type outcome struct {
	workers           int
	setup             []float64
	plain, traced     []passResult
	fin               finishOut
	attempted, failed int64
	errs              []string
	maxRSSMB          float64
	tr                *tracer
	hp                *hostProbe
}

// measure sets the workload up, then runs passes until another pass of the
// median length would end after the deadline, setting up again between
// passes. A traced run alternates untraced and traced passes, so it can
// report the tracing overhead; it always runs at least one of each. Work
// outside a pass's wall time counts against the deadline too. The host
// probe is sampled before every set-up and pass, and by the passes between
// their units of work.
func measure(ctx context.Context, r runner, seconds float64, traced bool, log io.Writer) (*outcome, error) {
	hp, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	o := &outcome{workers: r.workers(), hp: hp}
	var setupTotal time.Duration
	setup := func() error {
		// Each repetition starts from a collected heap, so the collections
		// inside it do not depend on what ran before it.
		runtime.GC()
		hp.sample()
		t0 := time.Now()
		if err := r.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setupTotal += d
		o.setup = append(o.setup, d.Seconds())
		return nil
	}
	for i := 0; i < setupReps; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	if traced {
		// Heap deltas per span are exact only when one goroutine does all
		// the work.
		o.tr = newTracer(r.workers() == 1)
	}
	start := time.Now()
	var spent []float64 // per pass, including work outside its wall time
	for id := 0; ; id++ {
		passStart := time.Now()
		var tr *tracer
		if traced && id%2 == 1 {
			tr = o.tr
		}
		hp.sample()
		res := r.pass(ctx, tr, hp, id)
		o.attempted += res.attempted
		o.failed += res.failed
		o.errs = append(o.errs, res.errs...)
		if tr != nil {
			o.traced = append(o.traced, res)
		} else {
			o.plain = append(o.plain, res)
		}
		for setupTotal.Seconds() < setupShare*time.Since(start).Seconds() {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		spent = append(spent, time.Since(passStart).Seconds())
		fmt.Fprintf(log, "perfbench: pass %d (traced %v): %.4f s\n", id, tr != nil, res.wall.Seconds())
		if traced && (len(o.plain) == 0 || len(o.traced) == 0) {
			continue
		}
		if time.Since(start).Seconds()+median(spent) > seconds {
			break
		}
	}
	fmt.Fprintf(log, "perfbench: setup: median %.4f s of %d repetitions (%.4f to %.4f s)\n",
		median(o.setup), len(o.setup), slices.Min(o.setup), slices.Max(o.setup))
	fmt.Fprintf(log, "perfbench: host probe: %d samples, median %.5f s: the host ran %.3f times slower than the reference\n",
		len(hp.samples), median(hp.samples), hp.slowdown())
	fin, err := r.finish(ctx, o.tr)
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
	o.fin = fin
	if traced {
		o.checkRepeats()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	o.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return o, nil
}

// deterministic are the per-layer counters that must repeat exactly from
// pass to pass (and from run to run at one seed).
var deterministic = []string{"sim.cycles", "sim.activities", "sim.steps_per_cycle",
	"dhdl.leaf_execs", "dram.bursts", "dram.row_hit_ratio", "dram.avg_latency_cycles",
	"dram.retries", "dram.latency_spikes", "dram.stalls_queue_full",
	"tune.sampled", "tune.pruned_analytic", "tune.duplicates", "tune.evaluated",
	"tune.useful_ratio", "exec.cache_hits", "exec.cache_misses", "exec.hit_ratio"}

// checkRepeats flags a deterministic counter that differs between traced
// passes.
func (o *outcome) checkRepeats() {
	for _, name := range deterministic {
		for _, p := range o.traced[1:] {
			if a, b := o.traced[0].layer[name], p.layer[name]; a != b {
				o.errs = append(o.errs, fmt.Sprintf("%s differs between traced passes: %v vs %v", name, a, b))
				break
			}
		}
	}
}

func walls(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// cyclesPerPass is the simulated cycles one pass covers.
func (o *outcome) cyclesPerPass() int64 {
	if o.fin.cyclesPerPass > 0 {
		return o.fin.cyclesPerPass
	}
	for _, ps := range [][]passResult{o.plain, o.traced} {
		for _, p := range ps {
			if p.failed == 0 {
				return p.cycles
			}
		}
	}
	return 0
}

// endToEnd assembles the metrics of an untraced run. Its times are the
// run's host-time medians ÷ the run's host slowdown: reference seconds.
func (o *outcome) endToEnd() map[string]metric {
	slow := o.hp.slowdown()
	wall := median(walls(o.plain)) / slow
	cps := 0.0
	if wall > 0 {
		cps = float64(o.cyclesPerPass()) / wall
	}
	success := 0.0
	if o.attempted > 0 {
		success = 1 - float64(o.failed)/float64(o.attempted)
	}
	return map[string]metric{
		"wall_s":            {wall, "s"},
		"sim_cycles_per_s":  {cps, "cycles/s"},
		"setup_s":           {median(o.setup) / slow, "s"},
		"max_rss_mb":        {o.maxRSSMB, "MB"},
		"success_rate":      {success, "ratio"},
		"paper_speedup_err": {o.fin.speedupErr, "ln-ratio"},
		"paper_perfw_err":   {o.fin.perfwErr, "ln-ratio"},
	}
}

// perLayerUnits lists every per-layer metric with its unit; a traced run
// reports all of them on every workload, 0 where a layer is not measured
// on that workload (README.md says which).
var perLayerUnits = map[string]string{
	"workloads.build_s":       "s",
	"compiler.compile_s":      "s",
	"compiler.validate_s":     "s",
	"compiler.allocate_s":     "s",
	"compiler.partition_s":    "s",
	"compiler.fit-check_s":    "s",
	"compiler.netlist_s":      "s",
	"compiler.place_s":        "s",
	"compiler.route_s":        "s",
	"compiler.timing_s":       "s",
	"dhdl.trace_s":            "s",
	"dhdl.leaf_execs":         "count",
	"sim.simulate_s":          "s",
	"sim.prepare_s":           "s",
	"sim.graph_s":             "s",
	"sim.engine_s":            "s",
	"sim.engine_ns_per_cycle": "ns/cycle",
	"sim.steps_per_cycle":     "ratio",
	"sim.activities":          "count",
	"sim.cycles":              "count",
	"dram.bursts":             "count",
	"dram.row_hit_ratio":      "ratio",
	"dram.avg_latency_cycles": "cycles",
	"dram.retries":            "count",
	"dram.latency_spikes":     "count",
	"dram.stalls_queue_full":  "count",
	"core.check_s":            "s",
	"exec.cache_hits":         "count",
	"exec.cache_misses":       "count",
	"exec.hit_ratio":          "ratio",
	"exec.retries":            "count",
	"tune.sampled":            "count",
	"tune.pruned_analytic":    "count",
	"tune.duplicates":         "count",
	"tune.evaluated":          "count",
	"tune.useful_ratio":       "ratio",
	"tune.generation_s":       "s",
	"tune.coordinator_s":      "s",
	"perfbench.harness_s":     "s",
	"go.alloc_mb":             "MB",
	"go.mallocs":              "count",
	"go.gc_cycles":            "count",
	"workloads.share":         "ratio",
	"compiler.share":          "ratio",
	"dhdl.share":              "ratio",
	"sim.graph_share":         "ratio",
	"sim.prepare_share":       "ratio",
	"sim.engine_share":        "ratio",
	"sim.share":               "ratio",
	"core.share":              "ratio",
	"tune.share":              "ratio",
	"perfbench.share":         "ratio",
	"tracing.wall_s":          "s",
	"tracing.overhead_s":      "s",
	"tracing.overhead_share":  "ratio",
	"host.slowdown":           "ratio",
}

// shareOf maps each share metric to the time metric it divides by the
// pass's worker capacity (wall_s × workers).
var shareOf = map[string]string{
	"workloads.share":   "workloads.build_s",
	"compiler.share":    "compiler.compile_s",
	"dhdl.share":        "dhdl.trace_s",
	"sim.graph_share":   "sim.graph_s",
	"sim.prepare_share": "sim.prepare_s",
	"sim.engine_share":  "sim.engine_s",
	"sim.share":         "sim.simulate_s",
	"core.share":        "core.check_s",
	"tune.share":        "tune.coordinator_s",
	"perfbench.share":   "perfbench.harness_s",
}

// perLayer assembles the metrics of a traced run: the median over traced
// passes of each layer figure, the figures finish measured outside them,
// and the layer shares of the traced wall time.
func (o *outcome) perLayer() map[string]metric {
	v := map[string]float64{}
	for name := range perLayerUnits {
		var xs []float64
		for _, p := range o.traced {
			if x, ok := p.layer[name]; ok {
				xs = append(xs, x)
			}
		}
		if len(xs) > 0 {
			v[name] = median(xs)
		}
	}
	if v["sim.cycles"] == 0 {
		v["sim.cycles"] = float64(o.cyclesPerPass())
	}
	tw, pw := median(walls(o.traced)), median(walls(o.plain))
	v["tracing.wall_s"] = tw
	v["host.slowdown"] = o.hp.slowdown()
	v["tracing.overhead_s"] = tw - pw
	if pw > 0 {
		v["tracing.overhead_share"] = (tw - pw) / pw
	}
	if capacity := tw * float64(o.workers); capacity > 0 {
		for share, of := range shareOf {
			v[share] = v[of] / capacity
		}
	}
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}

// printShares prints the layer-share table of a traced run.
func (o *outcome) printShares(w io.Writer, workload string) {
	m := o.perLayer()
	tw, pw := m["tracing.wall_s"].Value, median(walls(o.plain))
	fmt.Fprintf(w, "layer shares, %s: traced wall_s %.3f s (median of %d), untraced %.3f s (median of %d), tracing overhead %+.3f s (%+.1f%%), %d worker(s)\n",
		workload, tw, len(o.traced), pw, len(o.plain), tw-pw, 100*m["tracing.overhead_share"].Value, o.workers)
	heap := map[string][2]uint64{}
	if o.tr != nil {
		heap = o.tr.heap()
	}
	npass := uint64(max(len(o.traced), 1))
	rows := []struct{ label, time, span string }{
		{"workloads (build)", "workloads.build_s", "workloads.build"},
		{"compiler (compile)", "compiler.compile_s", "compiler.compile"},
		{"sim (simulate)", "sim.simulate_s", "sim.simulate"},
		{"  dhdl trace (standalone probe)", "dhdl.trace_s", ""},
		{"  sim graph (prepare - trace)", "sim.graph_s", ""},
		{"  sim prepare (trace+graph)", "sim.prepare_s", ""},
		{"  sim engine", "sim.engine_s", ""},
		{"core (check)", "core.check_s", "core.check"},
		{"tune (coordinator, pool wait)", "tune.coordinator_s", "tune.generation"},
		{"perfbench (harness)", "perfbench.harness_s", ""},
	}
	fmt.Fprintf(w, "  %-32s %10s %8s %12s %12s\n", "layer", "self s", "share", "alloc MB", "mallocs")
	for _, r := range rows {
		t := m[r.time].Value
		if t == 0 {
			continue
		}
		alloc, mallocs := "-", "-"
		if h, ok := heap[r.span]; ok && h[1] > 0 {
			alloc = fmt.Sprintf("%.1f", float64(h[0]/npass)/1e6)
			mallocs = fmt.Sprint(h[1] / npass)
		}
		fmt.Fprintf(w, "  %-32s %10.4f %7.1f%% %12s %12s\n", r.label, t,
			100*t/(tw*float64(o.workers)), alloc, mallocs)
	}
}

// paperRow is one Table 7 row: simulated and published ratios.
type paperRow struct{ speedup, paperSpeedup, perfW, paperPerfW float64 }

// paperErr is the geometric mean over rows of |ln(simulated / paper)|, for
// speedup and for perf/W.
func paperErr(rows []paperRow) (spd, pw float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	var ls, lp float64
	for _, r := range rows {
		ls += math.Log(math.Abs(math.Log(r.speedup / r.paperSpeedup)))
		lp += math.Log(math.Abs(math.Log(r.perfW / r.paperPerfW)))
	}
	n := float64(len(rows))
	return math.Exp(ls / n), math.Exp(lp / n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
