package sim

import (
	"context"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/compiler"
	"plasticine/internal/metrics"
	"plasticine/internal/workloads"
)

// TestEventsPerCycleObservedOncePerRun checks the value observeRun records:
// one finished run adds exactly one events-per-cycle sample, and the event
// core never takes more steps than it simulates cycles. The instruments are
// process-wide, so this test must not run in parallel with other runs.
func TestEventsPerCycleObservedOncePerRun(t *testing.T) {
	reg := metrics.NewRegistry()
	UseMetrics(reg)
	t.Cleanup(func() { UseMetrics(nil) })

	b, err := workloads.ByName("InnerProduct")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := compiler.CompileOpts(context.Background(), prog, compiler.Options{Params: arch.Default()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Simulate(context.Background(), m, Options{}); err != nil {
		t.Fatal(err)
	}

	h := reg.Histogram("plasticine_sim_events_per_cycle", "")
	if n := h.Count(); n != 1 {
		t.Fatalf("events-per-cycle samples = %d, want 1", n)
	}
	if v := h.Sum(); v <= 0 || v > 1 {
		t.Errorf("events per cycle = %g, want in (0, 1]", v)
	}
}
