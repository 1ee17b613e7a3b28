package tune

import (
	"fmt"

	"plasticine/internal/arch"
)

// The genome: the tuned subset of arch.Params, each gene with its value
// grid. PCU datapath genes follow the Table 3 design space (the same grids
// the Figure 7 sweeps walk); the chip-organisation genes extend it to grid
// shape, scratchpad depth and memory channels. Everything else stays at the
// paper defaults — notably Lanes (and the matching PMU bank count) stays
// 16, the vector width the whole fabric is provisioned around. Columns are
// all even so every grid holds an equal number of PCUs and PMUs
// (arch.Validate's invariant). The product of the grids is ~3x10⁸
// candidates — far beyond enumeration, which is the point of the search.
type gene struct {
	name   string
	values []int
	get    func(p *arch.Params) int
	set    func(p *arch.Params, v int)
}

var genome = []gene{
	{"pcu.stages", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		func(p *arch.Params) int { return p.PCU.Stages },
		func(p *arch.Params, v int) { p.PCU.Stages = v }},
	{"pcu.registers", []int{2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16},
		func(p *arch.Params) int { return p.PCU.Registers },
		func(p *arch.Params, v int) { p.PCU.Registers = v }},
	{"pcu.scalarIns", []int{1, 2, 3, 4, 5, 6, 8, 10},
		func(p *arch.Params) int { return p.PCU.ScalarIns },
		func(p *arch.Params, v int) { p.PCU.ScalarIns = v }},
	{"pcu.scalarOuts", []int{1, 2, 3, 4, 5, 6},
		func(p *arch.Params) int { return p.PCU.ScalarOuts },
		func(p *arch.Params, v int) { p.PCU.ScalarOuts = v }},
	{"pcu.vectorIns", []int{2, 3, 4, 5, 6, 8, 10},
		func(p *arch.Params) int { return p.PCU.VectorIns },
		func(p *arch.Params, v int) { p.PCU.VectorIns = v }},
	{"pcu.vectorOuts", []int{1, 2, 3, 4, 5, 6},
		func(p *arch.Params) int { return p.PCU.VectorOuts },
		func(p *arch.Params, v int) { p.PCU.VectorOuts = v }},
	{"pmu.bankKB", []int{4, 8, 16, 32, 64},
		func(p *arch.Params) int { return p.PMU.BankKB },
		func(p *arch.Params, v int) { p.PMU.BankKB = v }},
	{"chip.rows", []int{2, 4, 6, 8, 10, 12, 16},
		func(p *arch.Params) int { return p.Chip.Rows },
		func(p *arch.Params, v int) { p.Chip.Rows = v }},
	{"chip.cols", []int{4, 8, 12, 16, 20, 24},
		func(p *arch.Params) int { return p.Chip.Cols },
		func(p *arch.Params, v int) { p.Chip.Cols = v }},
	{"chip.ddr", []int{1, 2, 4, 8},
		func(p *arch.Params) int { return p.Chip.DDRChannels },
		func(p *arch.Params, v int) { p.Chip.DDRChannels = v }},
}

// paramKey canonicalises a candidate's tuned genes: the dedup identity, the
// deterministic tie-break, and the human-readable label. Untuned fields are
// fixed at arch.Default(), so the genes fully identify the candidate.
func paramKey(p arch.Params) string {
	return fmt.Sprintf("chip%dx%d ddr%d pcu%d/%d/%d/%d/%d/%d pmu%dKB",
		p.Chip.Cols, p.Chip.Rows, p.Chip.DDRChannels,
		p.PCU.Stages, p.PCU.Registers, p.PCU.ScalarIns, p.PCU.ScalarOuts,
		p.PCU.VectorIns, p.PCU.VectorOuts, p.PMU.BankKB)
}

// rng is a splitmix64 generator: a single uint64 of state seeded from
// Spec.Seed, with a draw sequence fixed by the algorithm rather than by a
// library version, so a rerun of the same spec replays the exact draws.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n). The modulo bias at n ≪ 2⁶⁴ is irrelevant
// for sampling a design space.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomParams samples a uniform candidate over the genome.
func randomParams(r *rng) arch.Params {
	p := arch.Default()
	for _, g := range genome {
		g.set(&p, g.values[r.intn(len(g.values))])
	}
	return p
}

// mutate perturbs 1–3 genes of a parent, each by one grid step (falling
// back to a uniform redraw when the value is off-grid or pinned at an
// edge), so children explore the parent's neighbourhood.
func mutate(r *rng, parent arch.Params) arch.Params {
	p := parent
	for n := 1 + r.intn(3); n > 0; n-- {
		g := genome[r.intn(len(genome))]
		cur, idx := g.get(&p), -1
		for i, v := range g.values {
			if v == cur {
				idx = i
				break
			}
		}
		step := 1
		if r.intn(2) == 0 {
			step = -1
		}
		if idx < 0 || idx+step < 0 || idx+step >= len(g.values) {
			g.set(&p, g.values[r.intn(len(g.values))])
			continue
		}
		g.set(&p, g.values[idx+step])
	}
	return p
}
