package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"plasticine/internal/core"
	"plasticine/internal/workloads"
)

const refPath = "../BENCH_sim.json"

// runJSON runs the benchmark in-process and decodes its result line.
func runJSON(t *testing.T, args ...string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--ref", refPath, "--spans", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d: %s",
			args, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	return rep
}

// TestDeterministicCountersRepeat checks that two traced runs at one seed
// agree exactly on every deterministic counter.
func TestDeterministicCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tune search four times")
	}
	for _, w := range []string{"membound-spiked", "tune"} {
		args := []string{"--workload", w, "--seed", "3", "--seconds", "0", "--trace", "1"}
		a, b := runJSON(t, args...), runJSON(t, args...)
		for _, name := range deterministic {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s differs between traced runs: %v vs %v", w, name, a.Metrics[name], b.Metrics[name])
			}
		}
		if a.Metrics["sim.cycles"].Value == 0 {
			t.Errorf("%s: no simulated cycles recorded", w)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric checks that BENCHMARK.json names exactly
// the metrics the benchmark prints, with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	o := &outcome{workers: 1, setup: []float64{1}, attempted: 1, hp: &hostProbe{samples: []float64{probeRef}},
		plain:  []passResult{{wall: 1, cycles: 1}},
		traced: []passResult{{wall: 1, layer: map[string]float64{}}}}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("%s: %s [%s] listed, printed as %+v", kind, m.Name, m.Unit, p)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, o.endToEnd())
	check("per_layer", doc.PerLayer, o.perLayer())
	if len(doc.Workload) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workload), len(workloadNames))
	}
	for i, w := range doc.Workload {
		if workloadNames[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestRatiosMatchCore checks that the benchmark's own composition of the
// layers reports the Table 7 ratios core computes.
func TestRatiosMatchCore(t *testing.T) {
	r := newSerialRunner([]string{"SMDV"}, refPath, 1, false)
	if err := r.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := r.evaluate(context.Background(), nil, "", -1, "SMDV")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("SMDV")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.New().RunBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.cycles != want.Cycles || out.speedup != want.Speedup || out.perfW != want.PerfPerWatt {
		t.Errorf("benchmark: %d cycles, %vx, %vx perf/W; core: %d cycles, %vx, %vx perf/W",
			out.cycles, out.speedup, out.perfW, want.Cycles, want.Speedup, want.PerfPerWatt)
	}
}

var record = flag.Bool("record", false, "rewrite pins.json from the current code")

// TestRecordPins rewrites pins.json: the membound-spiked cycles of seeds
// 1-10 and the tune workload's front. It runs only with -record.
func TestRecordPins(t *testing.T) {
	if !*record {
		t.Skip("pass -record to rewrite pins.json")
	}
	ctx := context.Background()
	pins := pinFile{Spiked: map[string]map[string]int64{}}
	for seed := int64(1); seed <= 10; seed++ {
		r := newSerialRunner(memboundBenches, refPath, seed, true)
		cycles := map[string]int64{}
		for _, name := range memboundBenches {
			out, err := r.evaluate(ctx, nil, "", -1, name)
			if err != nil {
				t.Fatal(err)
			}
			cycles[name] = out.cycles
		}
		pins.Spiked[strconv.FormatInt(seed, 10)] = cycles
	}
	spec, err := tuneSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewSession(core.WithWorkers(newTuneRunner(refPath).workers())).Tune(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pins.Tune = frontOf(res)
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
