package tune

// Unit tests over the search with a fake evaluator: cycles are a pure
// function of the candidate, so determinism, resume and sharding can be
// pinned byte-for-byte without paying for compilation or simulation.

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plasticine/internal/arch"
	"plasticine/internal/exec"
)

// fakeCycles is a deterministic stand-in for simulation: any pure function
// of the tuned genes works, as long as distinct designs usually score
// differently (so fronts are non-trivial).
func fakeCycles(p arch.Params, bench string) int64 {
	c := int64(100000)
	c -= int64(p.Chip.Rows*p.Chip.Cols) * 300
	c -= int64(p.PCU.Stages) * 700
	c -= int64(p.PMU.BankKB) * 50
	c += int64(p.PCU.Registers) * 11
	if bench != "" {
		c += int64(len(bench))
	}
	if c < 1 {
		c = 1
	}
	return c
}

// fakeEnv builds an Env over a fresh engine. calls counts raw (uncached)
// evaluations.
func fakeEnv(workers int, calls *atomic.Int64) Env {
	return Env{
		Engine: exec.NewEngine(workers),
		Evaluate: func(ctx context.Context, p arch.Params, bench string) (EvalOutcome, error) {
			if calls != nil {
				calls.Add(1)
			}
			return EvalOutcome{Cycles: fakeCycles(p, bench)}, nil
		},
	}
}

func testSpec() Spec {
	return Spec{
		Mix:         []MixEntry{{Bench: "A", Weight: 2}, {Bench: "B", Weight: 1}},
		Constraints: Constraints{MaxAreaMM2: 150},
		Budget:      12,
		Population:  8,
		Seed:        42,
	}
}

// perCandidate is len(testSpec().Mix): each evaluated candidate costs one
// raw evaluation (or one cache lookup) per mix benchmark.
const perCandidate = 2

func searchJSON(t *testing.T, spec Spec, env Env) []byte {
	t.Helper()
	res, err := Search(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeterminismAcrossWorkers is the headline contract: same spec, same
// seed — byte-identical plasticine-tune/v1 document at any worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	spec := testSpec()
	one := searchJSON(t, spec, fakeEnv(1, nil))
	eight := searchJSON(t, spec, fakeEnv(8, nil))
	if !bytes.Equal(one, eight) {
		t.Fatalf("front differs across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", one, eight)
	}
	if !bytes.Contains(one, []byte(`"plasticine-tune/v1"`)) {
		t.Fatalf("document is missing its schema tag:\n%s", one)
	}
}

// TestSeedChangesTrajectory guards against the RNG being ignored.
func TestSeedChangesTrajectory(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.Seed = 43
	if bytes.Equal(searchJSON(t, a, fakeEnv(2, nil)), searchJSON(t, b, fakeEnv(2, nil))) {
		t.Fatal("different seeds produced identical documents")
	}
}

// diskEnv is fakeEnv plus a persistent tier rooted at dir.
func diskEnv(t *testing.T, workers int, dir string, calls *atomic.Int64) Env {
	t.Helper()
	env := fakeEnv(workers, calls)
	d, err := exec.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	env.Engine.AttachDisk(d)
	t.Cleanup(func() { d.Flush() })
	return env
}

// TestKillAndResume is the durability contract: a search killed after its
// first generation, rerun against the same cache directory, replays its
// trajectory from disk hits and finishes byte-identical to an uninterrupted
// run — and a third run over the complete cache recomputes and rewrites
// nothing.
func TestKillAndResume(t *testing.T) {
	spec := testSpec()

	// Uninterrupted reference run in its own directory.
	want := searchJSON(t, spec, diskEnv(t, 4, t.TempDir(), nil))

	dir := t.TempDir()
	// Run 1: die (via context cancellation — as abrupt as SIGKILL from the
	// search's point of view, since only completed evaluations persist)
	// after the first completed generation.
	ctx, cancel := context.WithCancel(context.Background())
	var calls1 atomic.Int64
	env := diskEnv(t, 4, dir, &calls1)
	env.OnGeneration = func(g Generation) {
		if g.Gen >= 1 {
			cancel()
		}
	}
	if _, err := Search(ctx, spec, env); err == nil {
		t.Fatal("canceled search reported success")
	}
	if calls1.Load() == 0 {
		t.Fatal("run 1 evaluated nothing before it was killed")
	}

	// Run 2: same directory, fresh engine — every evaluation run 1 paid
	// for comes back from disk, and only the rest is simulated.
	var calls atomic.Int64
	env2 := diskEnv(t, 4, dir, &calls)
	res, err := Search(context.Background(), spec, env2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed document differs from uninterrupted run:\n-- resumed --\n%s\n-- clean --\n%s", got, want)
	}
	s2 := env2.Engine.CacheStats()
	if s2.DiskHits != calls1.Load() {
		t.Fatalf("run 2 served %d evaluations from disk, want the %d run 1 paid for", s2.DiskHits, calls1.Load())
	}
	if total := perCandidate * res.Stats.Evaluated; calls.Load()+s2.DiskHits != total {
		t.Fatalf("run 2: %d raw + %d disk hits, want %d evaluations in all", calls.Load(), s2.DiskHits, total)
	}

	// Run 3: everything is already evaluated. No raw evaluations, no disk
	// writes: the whole search is served from the tier.
	calls.Store(0)
	env3 := diskEnv(t, 4, dir, &calls)
	res3, err := Search(context.Background(), spec, env3)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := ResultJSON(spec, res3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got3, want) {
		t.Fatalf("third run diverged:\n%s", got3)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("third run recomputed %d evaluations; the cache covers them all", n)
	}
	s3 := env3.Engine.CacheStats()
	if s3.DiskWrites != 0 {
		t.Fatalf("third run rewrote %d cache entries", s3.DiskWrites)
	}
	if s3.DiskHits != perCandidate*res3.Stats.Evaluated {
		t.Fatalf("third run: %d disk hits, want %d", s3.DiskHits, perCandidate*res3.Stats.Evaluated)
	}
}

// TestPruneAllNeverSimulates: with an impossible area ceiling every candidate
// dies in the analytic screen, the budget is never spent, and the loop is
// bounded by MaxGenerations.
func TestPruneAllNeverSimulates(t *testing.T) {
	var calls atomic.Int64
	spec := testSpec()
	spec.Constraints.MaxAreaMM2 = 0.001
	spec.MaxGenerations = 3
	res, err := Search(context.Background(), spec, fakeEnv(2, &calls))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if calls.Load() != 0 || st.Evaluated != 0 {
		t.Fatalf("impossible constraint still simulated: %+v", st)
	}
	if st.Generations != 3 || st.PrunedAnalytic+st.Duplicates != st.Sampled {
		t.Fatalf("accounting: %+v", st)
	}
	if len(res.Front) != 0 {
		t.Fatalf("empty search grew a front: %v", res.Front)
	}
}

// TestInfeasibleConsumesBudgetButNotFront: simulation-detected infeasibility
// (no-route, deadlock) must burn budget — the trajectory cannot depend on
// outcomes — while never surfacing in the front.
func TestInfeasibleConsumesBudgetButNotFront(t *testing.T) {
	spec := testSpec()
	env := fakeEnv(2, nil)
	env.Evaluate = func(ctx context.Context, p arch.Params, bench string) (EvalOutcome, error) {
		return EvalOutcome{Infeasible: true}, nil
	}
	res, err := Search(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated < int64(spec.Budget) {
		t.Fatalf("infeasible outcomes must consume budget: %+v", res.Stats)
	}
	if len(res.Front) != 0 {
		t.Fatalf("infeasible points joined the front: %v", res.Front)
	}
	if res.Stats.InfeasibleSim != res.Stats.Evaluated {
		t.Fatalf("infeasible accounting: %+v", res.Stats)
	}
}

// TestShardedMatchesUnsharded: two cooperating shards over one cache
// directory produce the same document as the unsharded search.
func TestShardedMatchesUnsharded(t *testing.T) {
	spec := testSpec()
	want := searchJSON(t, spec, diskEnv(t, 4, t.TempDir(), nil))

	dir := t.TempDir()
	specs := [2]Spec{spec, spec}
	docs := [2][]byte{}
	var wg sync.WaitGroup
	errs := [2]error{}
	for i := range specs {
		specs[i].Shard, specs[i].Shards = i, 2
		// Short patience: the test must not hinge on cross-shard timing —
		// work stealing yields the same bytes either way.
		specs[i].ShardWait = 200 * time.Millisecond
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := diskEnv(t, 4, dir, nil)
			res, err := Search(context.Background(), specs[i], env)
			if err != nil {
				errs[i] = err
				return
			}
			docs[i], errs[i] = ResultJSON(spec, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if !bytes.Equal(docs[0], want) || !bytes.Equal(docs[1], want) {
		t.Fatalf("sharded fronts diverge from unsharded:\n-- shard 0 --\n%s\n-- shard 1 --\n%s\n-- unsharded --\n%s",
			docs[0], docs[1], want)
	}
}

// TestBudgetExtensionResumes: raising the budget on a finished search's
// directory continues it instead of restarting — the extended run replays
// the finished prefix from disk, pays only for the new candidates, and ends
// byte-identical to a search run at the larger budget from scratch.
func TestBudgetExtensionResumes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	var calls atomic.Int64
	small, err := Search(context.Background(), spec, diskEnv(t, 2, dir, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != perCandidate*small.Stats.Evaluated {
		t.Fatalf("first run: %d raw calls for %d candidates", calls.Load(), small.Stats.Evaluated)
	}

	spec.Budget *= 2
	want := searchJSON(t, spec, diskEnv(t, 2, t.TempDir(), nil))
	calls.Store(0)
	env := diskEnv(t, 2, dir, &calls)
	res, err := Search(context.Background(), spec, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated <= small.Stats.Evaluated {
		t.Fatalf("extension evaluated nothing new: %+v", res.Stats)
	}
	if res.Stats.Evaluated < int64(spec.Budget) && res.Stats.Generations < spec.MaxGenerations {
		t.Fatalf("extension did not spend the new budget: %+v", res.Stats)
	}
	if hits := env.Engine.CacheStats().DiskHits; hits != perCandidate*small.Stats.Evaluated {
		t.Fatalf("extension served %d evaluations from disk, want the first run's %d",
			hits, perCandidate*small.Stats.Evaluated)
	}
	newCandidates := res.Stats.Evaluated - small.Stats.Evaluated
	if calls.Load() != perCandidate*newCandidates {
		t.Fatalf("extension recomputed the prefix: %d new calls for %d new candidates",
			calls.Load(), newCandidates)
	}
	got, err := ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("extended document differs from a fresh run at the larger budget:\n%s\nvs\n%s", got, want)
	}
}

// TestParseMix covers the CLI/HTTP mix grammar.
func TestParseMix(t *testing.T) {
	got, err := ParseMix("GEMM:2, FFT ,GEMM:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Weight != 2 || got[1].Bench != "FFT" || got[1].Weight != 1 {
		t.Fatalf("ParseMix = %+v", got)
	}
	for _, bad := range []string{"", ",", "GEMM:x", "GEMM:-1", ":2"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestSpecNormalizeMergesAndLeavesCallerAlone: the mix is merged and sorted
// into a fresh slice; the caller's backing array must stay untouched.
func TestSpecNormalizeMergesAndLeavesCallerAlone(t *testing.T) {
	mine := []MixEntry{{Bench: "Z", Weight: 1}, {Bench: "A"}, {Bench: "Z", Weight: 2}}
	s := Spec{Mix: mine}
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Mix) != 2 || s.Mix[0].Bench != "A" || s.Mix[0].Weight != 1 || s.Mix[1].Weight != 3 {
		t.Fatalf("normalized mix = %+v", s.Mix)
	}
	if mine[0].Bench != "Z" || mine[1].Bench != "A" {
		t.Fatalf("normalize scribbled on the caller's slice: %+v", mine)
	}
	if s.Budget == 0 || s.Population == 0 || s.MaxGenerations == 0 || s.Shards != 1 {
		t.Fatalf("defaults not filled: %+v", s)
	}
}

// TestGenomeStaysOnGrid: ten thousand mutations of a default-derived design
// must stay on the gene grids and validate.
func TestGenomeStaysOnGrid(t *testing.T) {
	r := rng{state: 7}
	p := randomParams(&r)
	for i := 0; i < 10000; i++ {
		p = mutate(&r, p)
		if err := p.Validate(); err != nil {
			t.Fatalf("mutation %d left the valid grid: %v\n%+v", i, err, p)
		}
	}
}
