package dse

// Parallel sweeps must render byte-identical artefacts at any worker count,
// and a sweep's area cache must make repeated panels free.

import (
	"context"
	"reflect"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
)

func TestFigure7PanelDeterministicAcrossWorkers(t *testing.T) {
	benches, err := LoadBenches()
	if err != nil {
		t.Fatal(err)
	}
	chip := arch.Default().Chip
	ctx := context.Background()
	seq, err := NewSweep(benches, chip, exec.NewEngine(1)).Figure7(ctx, "f")
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	par, err := NewSweep(benches, chip, exec.NewEngine(8)).Figure7(ctx, "f")
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if seq.Format() != par.Format() {
		t.Errorf("panel f differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s",
			seq.Format(), par.Format())
	}
}

// TestRatioAndTable6DeterministicAcrossWorkers: the sequential, uncached
// sweep (nil engine) and an 8-worker cached sweep must return identical
// ratio-study rows and Table 6 ladders.
func TestRatioAndTable6DeterministicAcrossWorkers(t *testing.T) {
	benches, err := LoadBenches()
	if err != nil {
		t.Fatal(err)
	}
	params := arch.Default()
	ctx := context.Background()
	seq := NewSweep(benches, params.Chip, nil)
	par := NewSweep(benches, params.Chip, exec.NewEngine(8))

	seqRatios, err := seq.RatioStudy(ctx, params)
	if err != nil {
		t.Fatalf("sequential ratio study: %v", err)
	}
	parRatios, err := par.RatioStudy(ctx, params)
	if err != nil {
		t.Fatalf("workers=8 ratio study: %v", err)
	}
	if !reflect.DeepEqual(seqRatios, parRatios) {
		t.Errorf("ratio rows differ:\nsequential %+v\nworkers=8  %+v", seqRatios, parRatios)
	}

	seqT6, err := seq.Table6(ctx, params)
	if err != nil {
		t.Fatalf("sequential Table 6: %v", err)
	}
	parT6, err := par.Table6(ctx, params)
	if err != nil {
		t.Fatalf("workers=8 Table 6: %v", err)
	}
	if !reflect.DeepEqual(seqT6, parT6) {
		t.Errorf("Table 6 ladders differ:\nsequential %+v\nworkers=8  %+v", seqT6, parT6)
	}
}

func TestSweepCacheMakesRepeatedPanelsFree(t *testing.T) {
	benches, err := LoadBenches()
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewEngine(4)
	s := NewSweep(benches, arch.Default().Chip, eng)
	ctx := context.Background()
	if _, err := s.Figure7(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	first := eng.CacheStats()
	if first.Misses == 0 {
		t.Fatal("first panel evaluated nothing")
	}
	if _, err := s.Figure7(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	second := eng.CacheStats()
	if second.Misses != first.Misses {
		t.Errorf("repeated panel recompiled design points: misses %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Errorf("repeated panel recorded no cache hits: %d -> %d", first.Hits, second.Hits)
	}
}
