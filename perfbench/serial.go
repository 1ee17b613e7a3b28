package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/core"
	"plasticine/internal/dhdl"
	"plasticine/internal/dram"
	"plasticine/internal/fpga"
	"plasticine/internal/metrics"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// serialRunner evaluates a fixed list of Table 4 benchmarks one after the
// other on one goroutine, calling each layer's public entry point in the
// order core.System.RunBenchmarkCtx does, so a span can sit around every
// layer call.
type serialRunner struct {
	benches []string
	// faults builds the DRAM fault mix for one evaluation (nil: nominal).
	faults func() *dram.Faults
	// pinned holds the reference cycles per benchmark; a benchmark without
	// one is pinned by the first pass that simulates it.
	pinned map[string]int64
	refSrc string // where the pinned cycles came from
	// rows are the Table 7 rows of the last pass in which every
	// evaluation succeeded.
	rows []paperRow

	refPath string
	seed    int64
	params  arch.Params
	fpga    fpga.Model
}

func newSerialRunner(benches []string, refPath string, seed int64, spiked bool) *serialRunner {
	r := &serialRunner{benches: benches, refPath: refPath, seed: seed,
		params: arch.Default(), fpga: core.New().FPGA}
	if spiked {
		r.faults = func() *dram.Faults {
			return &dram.Faults{Seed: seed, SpikeProb: 0.05, SpikeCycles: 2000,
				TransientProb: 0.02, MaxRetries: 3, RetryBackoff: 16}
		}
	}
	return r
}

func (r *serialRunner) workers() int { return 1 }

// setup loads the reference cycles and builds and compiles every benchmark
// once, so a workload that no longer fits the fabric fails before timing.
func (r *serialRunner) setup(ctx context.Context) error {
	var pinned map[string]int64
	var err error
	src := r.refPath
	if r.faults == nil {
		pinned, err = loadBenchSim(r.refPath)
	} else {
		pinned, err = spikedPins(r.seed)
		src = "perfbench/pins.json"
	}
	if err != nil {
		return err
	}
	// A repeated set-up keeps the pins earlier passes recorded.
	if r.pinned == nil {
		r.pinned, r.refSrc = pinned, src
	}
	for _, name := range r.benches {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		p, err := b.Build()
		if err != nil {
			return fmt.Errorf("%s: build: %w", name, err)
		}
		if _, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: r.params}); err != nil {
			return fmt.Errorf("%s: compile: %w", name, err)
		}
	}
	return nil
}

// loadBenchSim reads the nominal cycles pinned in BENCH_sim.json.
func loadBenchSim(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference cycles: %w", err)
	}
	var doc struct {
		Results []struct {
			Benchmark string `json:"benchmark"`
			Cycles    int64  `json:"cycles"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("reference cycles: %s: %w", path, err)
	}
	out := map[string]int64{}
	for _, row := range doc.Results {
		out[row.Benchmark] = row.Cycles
	}
	return out, nil
}

// evalOut is what one evaluation contributes to its pass.
type evalOut struct {
	cycles     int64
	speedup    float64
	perfW      float64
	paperSpd   float64
	paperPerfW float64
	res        *sim.Result
	passes     *compiler.PassTrace
	steps      int64 // event-loop steps (traced passes only)
}

// evaluate runs one benchmark through build → compile → simulate → check →
// FPGA model and reports its Table 7 ratios.
func (r *serialRunner) evaluate(ctx context.Context, tr *tracer, eval string, parent int, name string) (evalOut, error) {
	var out evalOut
	b, err := workloads.ByName(name)
	if err != nil {
		return out, err
	}
	sp := tr.begin("workloads.build", eval, parent)
	p, err := b.Build()
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	sp = tr.begin("compiler.compile", eval, parent)
	m, err := compiler.CompileOpts(ctx, p, compiler.Options{Params: r.params})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("compile: %w", err)
	}
	opts := sim.Options{Recovery: true}
	if r.faults != nil {
		opts.Faults = r.faults()
	}
	// The event core reports its steps per cycle through a metrics
	// registry; arm a fresh one per traced evaluation (runs are serial).
	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.NewRegistry()
		sim.UseMetrics(reg)
		defer sim.UseMetrics(nil)
	}
	sp = tr.begin("sim.simulate", eval, parent)
	res, st, err := sim.Simulate(ctx, m, opts)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("simulate: %w", err)
	}
	sp = tr.begin("core.check", eval, parent)
	err = b.Check(st)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("functional check: %w", err)
	}
	out.cycles, out.res, out.passes = res.Cycles, res, m.Passes
	if reg != nil {
		ratio := reg.Histogram("plasticine_sim_events_per_cycle", "").Sum()
		out.steps = int64(math.Round(ratio * float64(res.Cycles)))
	}
	// The FPGA side exactly as core.System.RunBenchmarkCtx models it.
	prof := b.Profile()
	w := fpga.Workload{
		Flops:           prof.Flops,
		DenseBytes:      prof.DenseBytes,
		SparseAccesses:  prof.SparseAccesses,
		OpsPerLane:      prof.OpsPerLane,
		HeavyOpsPerLane: prof.HeavyOpsPerLane,
		SeqIters:        prof.SeqIters,
		PipeDepth:       prof.PipeDepth,
		SeqChildren:     prof.SeqChildren,
		LogicUtil:       prof.FPGALogicUtil,
		MemUtil:         prof.FPGAMemUtil,
	}
	fpgaTime, fpgaPower := r.fpga.Runtime(w), r.fpga.Power(w)
	if res.Seconds > 0 {
		out.speedup = fpgaTime / res.Seconds
	}
	if res.PowerW > 0 && fpgaPower > 0 {
		out.perfW = out.speedup * fpgaPower / res.PowerW
	}
	out.paperSpd, out.paperPerfW = prof.PaperSpeedup, prof.PaperPerfWatt
	return out, nil
}

// pass evaluates every benchmark once. With a tracer it also records the
// per-layer figures of the pass.
func (r *serialRunner) pass(ctx context.Context, tr *tracer, hp *hostProbe, id int) passResult {
	res := passResult{layer: map[string]float64{}}
	first, probed := len(hp.samples), hp.spent
	var m0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	root := tr.begin("pass", fmt.Sprintf("p%d", id), -1)
	t0 := time.Now()
	var rows []paperRow
	var engine time.Duration
	var sum dram.Stats
	var steps int64
	passNS := map[string]int64{}
	for i, name := range r.benches {
		eval := fmt.Sprintf("p%d/%s", id, name)
		if i > 0 {
			// A span of its own keeps the sample out of the harness's self
			// time.
			sp := tr.begin("host.probe", eval, root)
			hp.sample()
			tr.end(sp)
		}
		sp := tr.begin("evaluate", eval, root)
		out, err := r.evaluate(ctx, tr, eval, sp, name)
		tr.end(sp)
		res.attempted++
		if err == nil {
			err = r.verify(name, out.cycles)
		}
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		res.cycles += out.cycles
		rows = append(rows, paperRow{out.speedup, out.paperSpd, out.perfW, out.paperPerfW})
		if tr == nil {
			continue
		}
		engine += out.res.WallTime
		steps += out.steps
		res.layer["sim.activities"] += float64(out.res.Activities)
		addDRAM(&sum, out.res.DRAM)
		for _, e := range out.passes.Entries {
			passNS[e.Name] += e.WallNS
		}
	}
	res.wall = time.Since(t0) - (hp.spent - probed)
	tr.end(root)
	if res.failed == 0 {
		r.rows = rows
	}
	if tr == nil {
		return res
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	self := tr.selfTimes(root)
	traceS, leafExecs, err := probe(tr, id, r.benches)
	if err != nil {
		res.errs = append(res.errs, err.Error())
	}
	var trace float64
	var leaves int64
	for _, name := range r.benches {
		trace += traceS[name]
		leaves += leafExecs[name]
	}
	// Leave out the allocations of the probe samples taken after m0.
	pb, pn := hp.allocs(len(hp.samples) - first)
	res.layer["go.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc-pb) / 1e6
	res.layer["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs - pn)
	res.layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)

	simulate := self["sim.simulate"]
	res.layer["workloads.build_s"] = self["workloads.build"].Seconds()
	res.layer["compiler.compile_s"] = self["compiler.compile"].Seconds()
	for _, name := range compilerPasses {
		res.layer["compiler."+name+"_s"] = float64(passNS[name]) / 1e9
	}
	res.layer["sim.simulate_s"] = simulate.Seconds()
	res.layer["sim.prepare_s"] = (simulate - engine).Seconds()
	res.layer["dhdl.trace_s"] = trace
	res.layer["dhdl.leaf_execs"] = float64(leaves)
	res.layer["sim.graph_s"] = (simulate - engine).Seconds() - trace
	res.layer["sim.engine_s"] = engine.Seconds()
	res.layer["core.check_s"] = self["core.check"].Seconds()
	res.layer["perfbench.harness_s"] = (self["pass"] + self["evaluate"]).Seconds()
	res.layer["sim.cycles"] = float64(res.cycles)
	if res.cycles > 0 {
		res.layer["sim.engine_ns_per_cycle"] = float64(engine.Nanoseconds()) / float64(res.cycles)
		res.layer["sim.steps_per_cycle"] = float64(steps) / float64(res.cycles)
	}
	setDRAM(res.layer, sum)
	return res
}

// verify checks simulated cycles against the pinned reference. Benchmarks
// without a recorded pin are pinned by the first pass.
func (r *serialRunner) verify(name string, cycles int64) error {
	want, ok := r.pinned[name]
	if !ok {
		r.pinned[name] = cycles
		return nil
	}
	if cycles != want {
		return fmt.Errorf("simulated %d cycles, %s pins %d", cycles, r.refSrc, want)
	}
	return nil
}

// probe times the functional interpreter alone: a standalone dhdl.Trace on
// a fresh instance of each benchmark, with a hook counting leaf executions.
// It runs right after a traced pass, outside its wall time, so estimates
// such as sim.graph_s = sim.prepare_s - dhdl.trace_s compare measurements
// taken close together. It returns the per-benchmark trace seconds and
// leaf executions.
func probe(tr *tracer, id int, benches []string) (traceS map[string]float64, leafExecs map[string]int64, err error) {
	root := tr.begin("probe", fmt.Sprintf("p%d/probe", id), -1)
	defer tr.end(root)
	traceS, leafExecs = map[string]float64{}, map[string]int64{}
	for _, name := range benches {
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		p, err := b.Build()
		if err != nil {
			return nil, nil, err
		}
		var n int64
		sp := tr.begin("dhdl.trace", fmt.Sprintf("p%d/probe/%s", id, name), root)
		st, err := dhdl.Trace(p, func(*dhdl.ExecEvent) { n++ })
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: trace: %w", name, err)
		}
		if err := b.Check(st); err != nil {
			return nil, nil, fmt.Errorf("%s: interpreter output: %w", name, err)
		}
		traceS[name] = tr.spans[sp].dur().Seconds()
		leafExecs[name] = n
	}
	return traceS, leafExecs, nil
}

// compilerPasses are the pass names compiler.PassTrace records.
var compilerPasses = []string{"validate", "allocate", "partition", "fit-check",
	"netlist", "place", "route", "timing"}

func addDRAM(dst *dram.Stats, s dram.Stats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.RowHits += s.RowHits
	dst.RowMisses += s.RowMisses
	dst.RowConflicts += s.RowConflicts
	dst.TotalLatency += s.TotalLatency
	dst.Retries += s.Retries
	dst.LatencySpikes += s.LatencySpikes
	dst.StallsQueueFull += s.StallsQueueFull
}

func setDRAM(layer map[string]float64, s dram.Stats) {
	bursts := s.Reads + s.Writes
	layer["dram.bursts"] = float64(bursts)
	if acts := s.RowHits + s.RowMisses + s.RowConflicts; acts > 0 {
		layer["dram.row_hit_ratio"] = float64(s.RowHits) / float64(acts)
	}
	if bursts > 0 {
		layer["dram.avg_latency_cycles"] = float64(s.TotalLatency) / float64(bursts)
	}
	layer["dram.retries"] = float64(s.Retries)
	layer["dram.latency_spikes"] = float64(s.LatencySpikes)
	layer["dram.stalls_queue_full"] = float64(s.StallsQueueFull)
}

func (r *serialRunner) finish(context.Context, *tracer) (finishOut, error) {
	var out finishOut
	out.speedupErr, out.perfwErr = paperErr(r.rows)
	return out, nil
}
