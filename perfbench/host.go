package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe measures how fast the host runs, so the benchmark's times can
// be reported in seconds of a reference host.
//
// The benchmark runs on a few cores of a shared machine whose speed drifts
// by up to 40% over minutes as other tenants load it: a pass and the same
// pass a few minutes later differ by that much on the same binary. Each
// sample times a fixed kernel that calls none of the reproduction's code:
// a pointer chase over a ring larger than a core's private caches,
// hash-map lookups, small heap allocations, and the evaluation of an
// expression tree through interface calls — the kinds of work the
// interpreter and simulator spend their time on. (Plain arithmetic, tried
// too, barely moved when the host slowed, so it is left out.) The ring lives
// outside the Go heap and the allocations die at once, so the probe barely
// moves the heap size that paces the collector: its live heap (the map and
// the tree) is about 0.2 MB, while the collector's smallest heap goal is
// 4 MB. The kernel's time moves with the host and never with the code
// under test, so a run's host times ÷ its slowdown (the median sample ÷
// probeRef) are the times the run would have measured on a host that runs
// the kernel in probeRef.
type hostProbe struct {
	ring  []int32 // mapped outside the Go heap
	table map[uint64]uint64
	expr  probeExpr
	env   map[*probeVar]int32
	vars  []*probeVar
	// samples are the kernel's times in seconds, in the order taken.
	samples []float64
	// spent is the time taken by all samples so far.
	spent time.Duration
	sink  uint64
}

// probeRef is about the kernel's median time on the reference host: the
// 2-core VM (Intel Xeon, Go 1.24.0 linux/amd64) the baseline in README.md
// was measured on. It only sets the scale of the reported times.
const probeRef = 0.0057

const (
	probeRingLen   = 1 << 20 // 4 MiB of int32
	probeTableLen  = 1 << 11
	probeVars      = 64
	probeExprDepth = 10
	probeChase     = 12_000
	probeLookups   = 60_000
	probeAllocs    = 20_000
	probeEvals     = 100
	probeHashConst = 0x9e3779b97f4a7c15
)

// newHostProbe builds the kernel's data from fixed seeds, so every run
// chases the same ring and evaluates the same tree.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, 4*probeRingLen, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	h := &hostProbe{ring: unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeRingLen),
		table: make(map[uint64]uint64, probeTableLen), env: map[*probeVar]int32{}}
	perm := rand.New(rand.NewSource(1)).Perm(probeRingLen)
	for i := range perm {
		h.ring[perm[i]] = int32(perm[(i+1)%probeRingLen])
	}
	for i := uint64(0); i < probeTableLen; i++ {
		h.table[i*probeHashConst] = i
	}
	for i := 0; i < probeVars; i++ {
		v := &probeVar{}
		h.vars = append(h.vars, v)
		h.env[v] = int32(i)
	}
	h.expr = h.build(rand.New(rand.NewSource(3)), probeExprDepth)
	return h, nil
}

// sample times the kernel once.
func (h *hostProbe) sample() {
	t0 := time.Now()
	p := int32(h.sink % probeRingLen)
	for i := 0; i < probeChase; i++ {
		p = h.ring[p]
	}
	var s uint64
	for i := uint64(0); i < probeLookups; i++ {
		s += h.table[(i%probeTableLen)*probeHashConst]
	}
	for i := 0; i < probeAllocs; i++ {
		probeGarbage = &[4]int64{int64(i)}
	}
	var e int32
	for i := 0; i < probeEvals; i++ {
		h.env[h.vars[i%probeVars]] = int32(i)
		e += h.expr.eval(h.env)
	}
	h.sink = uint64(p) + s + uint64(e)
	d := time.Since(t0)
	h.spent += d
	h.samples = append(h.samples, d.Seconds())
}

// probeGarbage makes each sample's allocations escape to the heap.
var probeGarbage *[4]int64

// allocs is the heap bytes and objects n samples allocate.
func (h *hostProbe) allocs(n int) (bytes, objects uint64) {
	return uint64(n * probeAllocs * 32), uint64(n * probeAllocs)
}

// slowdown is the median sample ÷ probeRef: how many times slower than the
// reference host the host ran over the samples taken so far.
func (h *hostProbe) slowdown() float64 {
	return median(h.samples) / probeRef
}

// probeExpr is a node of the kernel's expression tree.
type probeExpr interface {
	eval(env map[*probeVar]int32) int32
}

type (
	probeVar   struct{ _ byte } // non-zero size, so every variable is a distinct key
	probeConst struct{ v int32 }
	probeBin   struct {
		op   int
		a, b probeExpr
	}
	probeCond struct{ c, a, b probeExpr }
)

func (v *probeVar) eval(env map[*probeVar]int32) int32 { return env[v] }
func (c *probeConst) eval(map[*probeVar]int32) int32   { return c.v }

func (b *probeBin) eval(env map[*probeVar]int32) int32 {
	x, y := b.a.eval(env), b.b.eval(env)
	switch b.op {
	case 0:
		return x + y
	case 1:
		return x - y
	case 2:
		return x * y
	}
	return x ^ y
}

func (c *probeCond) eval(env map[*probeVar]int32) int32 {
	if c.c.eval(env) > 0 {
		return c.a.eval(env)
	}
	return c.b.eval(env)
}

// build grows a random tree of the given depth: one node in six is a
// conditional, the leaves are variables and constants.
func (h *hostProbe) build(r *rand.Rand, depth int) probeExpr {
	if depth == 0 {
		if r.Intn(2) == 0 {
			return h.vars[r.Intn(len(h.vars))]
		}
		return &probeConst{int32(r.Intn(100))}
	}
	if r.Intn(6) == 0 {
		return &probeCond{h.build(r, depth-1), h.build(r, depth-1), h.build(r, depth-1)}
	}
	return &probeBin{r.Intn(4), h.build(r, depth-1), h.build(r, depth-1)}
}
