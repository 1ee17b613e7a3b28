package main

// The tune subcommand: ROADMAP item 4 — "give me the best chip for this
// workload mix under 100 mm²" as one invocation. Front table (or -json
// document) on stdout, byte-identical at any -workers count; progress,
// prune accounting and the cache summary on stderr. With -cache-dir the
// search is killable: every evaluation persists in the design-point cache,
// so rerunning the same command replays the search from cache hits and
// finishes byte-identically (the summary's "disk: N hits" shows the
// resume), and -shard i/N splits one search across cooperating processes
// sharing the directory.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"plasticine/internal/tune"
)

func cmdTune(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	mix := fs.String("mix", "InnerProduct:1,TPCHQ6:1", "workload mix as benchmark:weight pairs, comma-separated")
	budget := fs.Int("budget", 48, "simulated-candidate budget; the search stops at the first generation boundary at or past it")
	pop := fs.Int("pop", 24, "candidates sampled per generation")
	seed := fs.Int64("seed", 1, "search seed (same seed, same front at any -workers)")
	maxArea := fs.Float64("max-area", 0, "chip area ceiling in mm^2, enforced analytically before simulation (0 = unconstrained)")
	maxPower := fs.Float64("max-power", 0, "chip power ceiling in W, enforced analytically before simulation (0 = unconstrained)")
	maxGen := fs.Int("max-generations", 0, "generation cap when pruning starves the budget (0 = derived from -budget)")
	shard := fs.String("shard", "", "run shard i of N of one search over a shared -cache-dir, e.g. 0/4")
	shardWait := fs.Duration("shard-wait", 15*time.Second, "patience for another shard's result before computing it locally")
	asJSON := fs.Bool("json", false, "emit the plasticine-tune/v1 JSON document (schema in EXPERIMENTS.md) instead of the table")
	suite := addSuiteFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: plasticine tune [flags]; the workload mix goes in -mix")
	}
	entries, err := tune.ParseMix(*mix)
	if err != nil {
		return err
	}
	spec := tune.Spec{
		Mix:            entries,
		Constraints:    tune.Constraints{MaxAreaMM2: *maxArea, MaxPowerW: *maxPower},
		Budget:         *budget,
		Population:     *pop,
		MaxGenerations: *maxGen,
		Seed:           *seed,
		ShardWait:      *shardWait,
	}
	if *shard != "" {
		if n, err := fmt.Sscanf(*shard, "%d/%d", &spec.Shard, &spec.Shards); n != 2 || err != nil {
			return fmt.Errorf("bad -shard %q: want i/N like 0/4", *shard)
		}
		if spec.Shards < 1 || spec.Shard < 0 || spec.Shard >= spec.Shards {
			return fmt.Errorf("bad -shard %q: shard index must lie in [0,N)", *shard)
		}
		if spec.Shards > 1 && *suite.cacheDir == "" {
			return fmt.Errorf("-shard needs a shared -cache-dir to exchange results through")
		}
	}
	t0 := time.Now()
	sess, err := suite.session()
	if err != nil {
		return err
	}
	defer shutdownSession("tune", sess, t0)
	res, err := sess.Tune(ctx, spec, func(g tune.Generation) {
		fmt.Fprintf(os.Stderr, "tune: generation %d: %d sampled, %d pruned, %d/%d evaluated, front %d\n",
			g.Gen, g.Sampled, g.Pruned, g.Evaluated, g.Budget, g.FrontSize)
	})
	if err != nil {
		return err
	}
	st := res.Stats
	pct := 0.0
	if st.Sampled > 0 {
		pct = 100 * float64(st.PrunedAnalytic) / float64(st.Sampled)
	}
	fmt.Fprintf(os.Stderr,
		"tune: sampled %d candidates, pruned %d analytically (%.0f%%) before simulation, evaluated %d (%d infeasible) in %d generation(s)\n",
		st.Sampled, st.PrunedAnalytic, pct, st.Evaluated, st.InfeasibleSim, st.Generations)
	if *asJSON {
		data, err := tune.ResultJSON(spec, res)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(tune.FormatFront(res))
	return nil
}
