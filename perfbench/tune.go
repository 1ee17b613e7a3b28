package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/core"
	"plasticine/internal/dse"
	"plasticine/internal/exec"
	"plasticine/internal/metrics"
	"plasticine/internal/tune"
	"plasticine/internal/workloads"
)

// The tune workload's search. Population 1 makes every generation evaluate
// at most one candidate, so the search stops at exactly tuneBudget evaluated
// candidates. The search seed is fixed rather than taken from --seed: the
// designs a seed draws decide how many cycles the pass simulates (33k to
// 162k cycles per host second over seeds 1-5), so a seed-driven search would
// make sim_cycles_per_s a property of the seed, not of the code.
const (
	tuneMix        = "BlackScholes:1,CNN:1"
	tuneBudget     = 8
	tunePopulation = 1
	tuneSeed       = 1
)

// tuneRunner runs core.Session.Tune on a fresh session, and so a fresh
// in-memory design-point cache, every pass.
type tuneRunner struct {
	refPath string
	nwork   int

	spec   tune.Spec
	pinned []pinPoint // the recorded front
	ref    map[string]int64

	last *core.Session // session of the last successful pass
}

func newTuneRunner(refPath string) *tuneRunner {
	return &tuneRunner{refPath: refPath, nwork: runtime.NumCPU()}
}

func (r *tuneRunner) workers() int { return r.nwork }

// tuneSpec is the tune workload's search.
func tuneSpec() (tune.Spec, error) {
	mix, err := tune.ParseMix(tuneMix)
	if err != nil {
		return tune.Spec{}, err
	}
	return tune.Spec{Mix: mix, Budget: tuneBudget, Population: tunePopulation, Seed: tuneSeed}, nil
}

// setup parses the search spec, loads the pinned front and reference
// cycles, and loads the pruning units of every mix benchmark once.
func (r *tuneRunner) setup(ctx context.Context) error {
	var err error
	if r.spec, err = tuneSpec(); err != nil {
		return err
	}
	if r.pinned, err = tunePin(); err != nil {
		return err
	}
	if r.ref, err = loadBenchSim(r.refPath); err != nil {
		return err
	}
	for _, m := range r.spec.Mix {
		if _, err := dse.LoadBench(m.Bench); err != nil {
			return fmt.Errorf("tune mix %s: %w", m.Bench, err)
		}
	}
	return ctx.Err()
}

// pinPoint is the part of a front point the benchmark pins: its design and
// the cycles of each mix benchmark on it.
type pinPoint struct {
	Key    string           `json:"key"`
	Cycles map[string]int64 `json:"cycles"`
}

func frontOf(res *tune.Result) []pinPoint {
	out := make([]pinPoint, len(res.Front))
	for i, p := range res.Front {
		out[i] = pinPoint{Key: p.Key, Cycles: p.Cycles}
	}
	return out
}

// phaseNames maps core's per-request phase spans onto layer names. core's
// "compile" phase covers the workload build and the compile.
var phaseNames = map[string]string{
	"compile": "compiler.compile",
	"sim":     "sim.simulate",
	"check":   "core.check",
}

func (r *tuneRunner) pass(ctx context.Context, tr *tracer, _ *hostProbe, id int) passResult {
	out := passResult{layer: map[string]float64{}}
	sess := core.NewSession(core.WithWorkers(r.nwork))
	var m0 runtime.MemStats
	tctx := ctx
	var rt *metrics.ReqTrace
	if tr != nil {
		runtime.ReadMemStats(&m0)
		rt = metrics.NewReqTrace(fmt.Sprintf("p%d", id), "", "tune", time.Now())
		tctx = metrics.WithTrace(ctx, rt)
	}
	root := tr.begin("pass", fmt.Sprintf("p%d", id), -1)
	var gens [][2]time.Time
	t0 := time.Now()
	genStart := t0
	res, err := sess.Tune(tctx, r.spec, func(tune.Generation) {
		now := time.Now()
		gens = append(gens, [2]time.Time{genStart, now})
		genStart = now
	})
	out.wall = time.Since(t0)
	tr.end(root)
	if err != nil {
		out.attempted, out.failed = 1, 1
		out.errs = append(out.errs, err.Error())
		return out
	}
	out.attempted = res.Stats.Evaluated * int64(len(r.spec.Mix))
	if err := r.verify(frontOf(res)); err != nil {
		out.failed = out.attempted
		out.errs = append(out.errs, err.Error())
		return out
	}
	r.last = sess
	if tr == nil {
		return out
	}

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	out.layer["go.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	out.layer["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	out.layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)

	first := len(tr.spans)
	for i, g := range gens {
		tr.add("tune.generation", fmt.Sprintf("p%d/gen%d", id, i+1), root, g[0], g[1].Sub(g[0]))
	}
	phases := rt.Spans()
	if len(phases) >= maxReqTraceSpans {
		out.errs = append(out.errs, fmt.Sprintf("core recorded %d phase spans, its cap: per-layer times are incomplete", len(phases)))
	}
	for _, s := range phases {
		start := rt.Start().Add(time.Duration(s.StartUS) * time.Microsecond)
		parent, eval := root, fmt.Sprintf("p%d", id)
		for i, g := range gens {
			if !start.Before(g[0]) && start.Before(g[1]) {
				parent, eval = first+i, fmt.Sprintf("p%d/gen%d", id, i+1)
			}
		}
		name, ok := phaseNames[s.Name]
		if !ok {
			name = "core." + s.Name
		}
		tr.add(name, eval, parent, start, time.Duration(s.DurUS)*time.Microsecond)
	}
	self := tr.selfTimes(root)
	out.layer["compiler.compile_s"] = self["compiler.compile"].Seconds()
	out.layer["sim.simulate_s"] = self["sim.simulate"].Seconds()
	out.layer["core.check_s"] = self["core.check"].Seconds()
	out.layer["tune.coordinator_s"] = self["tune.generation"].Seconds()
	out.layer["perfbench.harness_s"] = self["pass"].Seconds()
	if len(gens) > 0 {
		out.layer["tune.generation_s"] = genStart.Sub(t0).Seconds() / float64(len(gens))
	}

	// Every feasible candidate traces each mix program once, and the trace
	// does not depend on the fabric, so the pass's interpreter time is
	// estimated from one standalone trace per program.
	st := res.Stats
	mix := make([]string, len(r.spec.Mix))
	for i, m := range r.spec.Mix {
		mix[i] = m.Bench
	}
	traceS, leafExecs, err := probe(tr, id, mix)
	if err != nil {
		out.errs = append(out.errs, err.Error())
	}
	traced := float64(st.Evaluated - st.InfeasibleSim)
	for _, name := range mix {
		out.layer["dhdl.trace_s"] += traced * traceS[name]
		out.layer["dhdl.leaf_execs"] += traced * float64(leafExecs[name])
	}

	out.layer["tune.sampled"] = float64(st.Sampled)
	out.layer["tune.pruned_analytic"] = float64(st.PrunedAnalytic)
	out.layer["tune.duplicates"] = float64(st.Duplicates)
	out.layer["tune.evaluated"] = float64(st.Evaluated)
	if st.Sampled > 0 {
		out.layer["tune.useful_ratio"] = float64(st.Evaluated) / float64(st.Sampled)
	}
	cs := sess.CacheStats()
	out.layer["exec.cache_hits"] = float64(cs.Hits)
	out.layer["exec.cache_misses"] = float64(cs.Misses)
	if n := cs.Hits + cs.Misses; n > 0 {
		out.layer["exec.hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	out.layer["exec.retries"] = float64(sess.Retries())
	return out
}

// maxReqTraceSpans is the cap metrics.ReqTrace puts on one trace's spans.
const maxReqTraceSpans = 64

// verify checks a pass's front against the recorded front.
func (r *tuneRunner) verify(front []pinPoint) error {
	if !reflect.DeepEqual(front, r.pinned) {
		got, _ := json.Marshal(front)
		return fmt.Errorf("tune front %s differs from perfbench/pins.json", got)
	}
	return nil
}

// finish computes what the timed passes do not report themselves: the
// simulated cycles a pass covers, and the paper error of the mix
// benchmarks at the paper's architecture.
func (r *tuneRunner) finish(ctx context.Context, _ *tracer) (finishOut, error) {
	var out finishOut
	if r.last == nil {
		return out, errors.New("no tune pass succeeded")
	}
	cycles, front, err := r.replay(ctx, r.last.Engine().Cache())
	if err != nil {
		return out, err
	}
	if err := r.verify(front); err != nil {
		return out, fmt.Errorf("replayed search: %w", err)
	}
	out.cyclesPerPass = cycles

	sess := core.NewSession()
	var rows []paperRow
	for _, m := range r.spec.Mix {
		b, err := workloads.ByName(m.Bench)
		if err != nil {
			return out, err
		}
		res, err := sess.RunBenchmark(ctx, b)
		if err != nil {
			return out, err
		}
		if want := r.ref[m.Bench]; res.Cycles != want {
			return out, fmt.Errorf("%s: simulated %d cycles, %s pins %d", m.Bench, res.Cycles, r.refPath, want)
		}
		rows = append(rows, paperRow{res.Speedup, res.PaperSpeedup, res.PerfPerWatt, res.PaperPerfW})
	}
	out.speedupErr, out.perfwErr = paperErr(rows)
	return out, nil
}

// replay reruns the pass's search with an evaluator that reads each
// candidate's outcome from the finished pass's design-point cache, so it
// learns the cycles of every evaluated candidate (core.Session.Tune
// reports only the front's) without simulating again. A candidate missing
// from the cache means the replay's key no longer matches the one
// core.Session.Tune stores under, and fails the replay.
func (r *tuneRunner) replay(ctx context.Context, warm *exec.Cache) (int64, []pinPoint, error) {
	var total int64
	env := tune.Env{
		Engine: exec.NewEngine(1),
		Bench:  dse.LoadBench,
		Evaluate: func(ctx context.Context, p arch.Params, bench string) (tune.EvalOutcome, error) {
			pb, err := json.Marshal(p)
			if err != nil {
				return tune.EvalOutcome{}, err
			}
			out, err := exec.CachedJSON(warm, exec.NewKey("tune/eval", bench, string(pb)),
				func() (tune.EvalOutcome, error) {
					return tune.EvalOutcome{}, fmt.Errorf("%s on %s: candidate missing from the pass's design-point cache", bench, pb)
				})
			total += out.Cycles
			return out, err
		},
	}
	res, err := tune.Search(ctx, r.spec, env)
	if err != nil {
		return 0, nil, fmt.Errorf("replay tune search: %w", err)
	}
	return total, frontOf(res), nil
}
