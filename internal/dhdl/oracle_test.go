package dhdl_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	. "plasticine/internal/dhdl"
	"plasticine/internal/pattern"
	"plasticine/internal/workloads"
)

// This file keeps the original tree-walking interpreter as a test-only
// oracle: it re-walks every Expr per element and keys memories by pointer.
// The production interpreter (interp.go, closure.go) compiles the program
// once; the tests below require both to agree on events, final state,
// DRAM contents and error text. The oracle is compiled into test binaries
// only.

// oracleState mirrors State with the oracle's pointer-keyed maps.
type oracleState struct {
	sram  map[*SRAM][]pattern.Value
	regs  map[*Reg]pattern.Value
	fifos map[*FIFOMem][]pattern.Value
}

type interpError struct{ err error }

func ifail(format string, args ...any) {
	panic(interpError{fmt.Errorf("dhdl interp: "+format, args...)})
}

// oracleTrace is the tree-walking Trace.
func oracleTrace(p *Program, hook ExecHook) (st *oracleState, err error) {
	if ferr := p.Finalize(); ferr != nil {
		return nil, ferr
	}
	for _, d := range p.DRAMs {
		if d.Data == nil {
			return nil, fmt.Errorf("dhdl interp: DRAM buffer %q not bound", d.Name)
		}
	}
	st = &oracleState{
		sram:  make(map[*SRAM][]pattern.Value),
		regs:  make(map[*Reg]pattern.Value),
		fifos: make(map[*FIFOMem][]pattern.Value),
	}
	for _, s := range p.SRAMs {
		buf := make([]pattern.Value, s.Size)
		zero := pattern.VF(0)
		if s.Elem == pattern.I32 {
			zero = pattern.VI(0)
		}
		for i := range buf {
			buf[i] = zero
		}
		st.sram[s] = buf
	}
	for _, r := range p.Regs {
		st.regs[r] = r.Init
	}
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(interpError); ok {
				st, err = nil, ie.err
				return
			}
			// Expression evaluation delegates to the pattern package,
			// whose failures arrive as typed panics; surface them as
			// interpreter errors (wrapping pattern.ErrEval) too.
			if pe, ok := r.(*pattern.EvalError); ok {
				st, err = nil, fmt.Errorf("dhdl interp: %w", pe)
				return
			}
			panic(r)
		}
	}()
	in := &interp{st: st, hook: hook}
	in.runCtrl(p.Root, make([]int32, 0, 8))
	return st, nil
}

type interp struct {
	st   *oracleState
	hook ExecHook
	path []*Controller
}

func (in *interp) emit(ev *ExecEvent, env []int32) {
	if in.hook == nil {
		return
	}
	ev.Path = append([]*Controller(nil), in.path...)
	ev.Env = append([]int32(nil), env...)
	in.hook(ev)
}

// chainIter iterates a counter chain in row-major order, extending env with
// the current index values and invoking f for each combination.
func (in *interp) chainIter(chain []Counter, env []int32, f func(env []int32)) {
	if len(chain) == 0 {
		f(env)
		return
	}
	c := chain[0]
	max := int32(c.Max)
	if c.MaxReg != nil {
		v := in.st.regs[c.MaxReg]
		if v.T != pattern.I32 {
			ifail("dynamic counter limit register %q is not i32", c.MaxReg.Name)
		}
		max = v.I
	}
	for i := int32(c.Min); i < max; i += int32(c.Step) {
		in.chainIter(chain[1:], append(env, i), f)
	}
}

func (in *interp) runCtrl(c *Controller, env []int32) {
	in.path = append(in.path, c)
	defer func() { in.path = in.path[:len(in.path)-1] }()
	switch {
	case c.Kind.IsOuter():
		in.chainIter(c.Chain, env, func(env []int32) {
			// The reference semantics of all four outer schedules are
			// identical: children execute in program order per iteration.
			// Pipelining/streaming change timing, not results.
			for _, ch := range c.Children {
				in.runCtrl(ch, env)
			}
		})
	case c.Kind == ComputeKind:
		iters := in.runCompute(c, env)
		in.emit(&ExecEvent{Ctrl: c, Iters: iters}, env)
	default:
		in.chainIter(c.Chain, env, func(env []int32) {
			ev := in.runTransfer(c, env)
			ev.Ctrl = c
			in.emit(ev, env)
		})
	}
}

func (in *interp) runCompute(c *Controller, env []int32) int64 {
	// Reduction accumulators reset at the start of each leaf execution.
	acc := make(map[*Assign]pattern.Value)
	for _, a := range c.Body {
		if a.Kind == ReduceReg {
			acc[a] = a.Reg.Init
		}
	}
	// Within one iteration every assign observes the pre-iteration state
	// (the hardware computes all outputs from the same pipeline inputs);
	// writes commit together at the end of the iteration. FIFO pops during
	// evaluation still consume in assign order.
	type commit struct {
		a    *Assign
		addr int
		v    pattern.Value
	}
	var pending []commit
	var iters int64
	in.chainIter(c.Chain, env, func(env []int32) {
		iters++
		pending = pending[:0]
		for _, a := range c.Body {
			if a.Cond != nil && !in.eval(a.Cond, env).B {
				continue
			}
			v := in.eval(a.Val, env)
			addr := -1
			if a.Kind == WriteSRAM || a.Kind == ReduceSRAM {
				addr = in.evalAddr(a.Addr, env, a.SRAM)
			}
			pending = append(pending, commit{a, addr, v})
		}
		for _, p := range pending {
			switch p.a.Kind {
			case WriteSRAM:
				in.sramWrite(p.a.SRAM, p.addr, p.v)
			case WriteReg:
				in.st.regs[p.a.Reg] = p.v
			case ReduceReg:
				acc[p.a] = pattern.EvalOp(p.a.Combine, acc[p.a], p.v)
			case ReduceSRAM:
				old := in.st.sram[p.a.SRAM][p.addr]
				in.sramWrite(p.a.SRAM, p.addr, pattern.EvalOp(p.a.Combine, old, p.v))
			case PushFIFO:
				in.st.fifos[p.a.FIFO] = append(in.st.fifos[p.a.FIFO], p.v)
			}
		}
	})
	for a, v := range acc {
		in.st.regs[a.Reg] = v
	}
	return iters
}

func (in *interp) evalAddr(e Expr, env []int32, s *SRAM) int {
	v := in.eval(e, env)
	if v.T != pattern.I32 {
		ifail("address into %q is %v, want i32", s.Name, v.T)
	}
	a := int(v.I)
	if a < 0 || a >= s.Size {
		ifail("address %d out of range [0,%d) in SRAM %q", a, s.Size, s.Name)
	}
	return a
}

func (in *interp) sramWrite(s *SRAM, addr int, v pattern.Value) {
	if v.T != s.Elem {
		ifail("writing %v into SRAM %q of type %v", v.T, s.Name, s.Elem)
	}
	in.st.sram[s][addr] = v
}

func (in *interp) dramRead(d *DRAMBuf, i int) pattern.Value {
	if i < 0 || i >= d.Len() {
		ifail("DRAM %q read at %d out of range [0,%d)", d.Name, i, d.Len())
	}
	if d.Elem == pattern.F32 {
		return pattern.VF(d.Data.F32Data()[i])
	}
	return pattern.VI(d.Data.I32Data()[i])
}

func (in *interp) dramWrite(d *DRAMBuf, i int, v pattern.Value) {
	if i < 0 || i >= d.Len() {
		ifail("DRAM %q write at %d out of range [0,%d)", d.Name, i, d.Len())
	}
	if v.T != d.Elem {
		ifail("writing %v into DRAM %q of type %v", v.T, d.Name, d.Elem)
	}
	if d.Elem == pattern.F32 {
		d.Data.F32Data()[i] = v.F
	} else {
		d.Data.I32Data()[i] = v.I
	}
}

func (in *interp) runTransfer(c *Controller, env []int32) *ExecEvent {
	x := c.Xfer
	off := 0
	if x.Off != nil {
		off = int(in.eval(x.Off, env).I)
	}
	sramOff := 0
	if x.SRAMOff != nil {
		sramOff = int(in.eval(x.SRAMOff, env).I)
	}
	count := x.Count
	if x.CountReg != nil {
		count = int(in.st.regs[x.CountReg].I)
	}
	ev := &ExecEvent{Buf: x.DRAM, DenseOff: off, Write: c.Kind == StoreKind || c.Kind == ScatterKind}
	switch c.Kind {
	case LoadKind:
		ev.DenseLen = x.Len
		for i := 0; i < x.Len; i++ {
			v := in.dramRead(x.DRAM, off+i)
			if x.SRAM != nil {
				if sramOff+i < 0 || sramOff+i >= x.SRAM.Size {
					ifail("load %q overflows SRAM %q at %d", c.Name, x.SRAM.Name, sramOff+i)
				}
				in.sramWrite(x.SRAM, sramOff+i, v)
			} else {
				in.st.fifos[x.FIFO] = append(in.st.fifos[x.FIFO], v)
			}
		}
	case StoreKind:
		if x.FIFO != nil {
			q := in.st.fifos[x.FIFO]
			if count > len(q) {
				ifail("store %q pops %d from FIFO %q holding %d", c.Name, count, x.FIFO.Name, len(q))
			}
			for i := 0; i < count; i++ {
				in.dramWrite(x.DRAM, off+i, q[i])
			}
			in.st.fifos[x.FIFO] = q[count:]
			ev.DenseLen = count
			return ev
		}
		ev.DenseLen = x.Len
		for i := 0; i < x.Len; i++ {
			if sramOff+i < 0 || sramOff+i >= x.SRAM.Size {
				ifail("store %q reads past SRAM %q at %d", c.Name, x.SRAM.Name, sramOff+i)
			}
			in.dramWrite(x.DRAM, off+i, in.st.sram[x.SRAM][sramOff+i])
		}
	case GatherKind:
		for i := 0; i < count; i++ {
			av := in.addrStreamAt(c, i)
			ev.SparseAddrs = append(ev.SparseAddrs, av)
			v := in.dramRead(x.DRAM, off+int(av))
			if x.SRAM != nil {
				if i >= x.SRAM.Size {
					ifail("gather %q overflows SRAM %q at %d", c.Name, x.SRAM.Name, i)
				}
				in.sramWrite(x.SRAM, i, v)
			} else {
				in.st.fifos[x.FIFO] = append(in.st.fifos[x.FIFO], v)
			}
		}
	case ScatterKind:
		for i := 0; i < count; i++ {
			av := in.addrStreamAt(c, i)
			ev.SparseAddrs = append(ev.SparseAddrs, av)
			var v pattern.Value
			if x.DataMem != nil {
				if i >= x.DataMem.Size {
					ifail("scatter %q reads past SRAM %q at %d", c.Name, x.DataMem.Name, i)
				}
				v = in.st.sram[x.DataMem][i]
			} else {
				q := in.st.fifos[x.DataFIFO]
				if len(q) == 0 {
					ifail("scatter %q pops empty FIFO %q", c.Name, x.DataFIFO.Name)
				}
				v, in.st.fifos[x.DataFIFO] = q[0], q[1:]
			}
			in.dramWrite(x.DRAM, off+int(av), v)
		}
	}
	return ev
}

func (in *interp) addrStreamAt(c *Controller, i int) int32 {
	x := c.Xfer
	if x.AddrMem != nil {
		if i >= x.AddrMem.Size {
			ifail("transfer %q reads past address SRAM %q at %d", c.Name, x.AddrMem.Name, i)
		}
		v := in.st.sram[x.AddrMem][i]
		if v.T != pattern.I32 {
			ifail("transfer %q address stream is not i32", c.Name)
		}
		return v.I
	}
	q := in.st.fifos[x.AddrFIFO]
	if len(q) == 0 {
		ifail("transfer %q pops empty address FIFO %q", c.Name, x.AddrFIFO.Name)
	}
	v := q[0]
	in.st.fifos[x.AddrFIFO] = q[1:]
	return v.I
}

func (in *interp) eval(e Expr, env []int32) pattern.Value {
	switch n := e.(type) {
	case *Lit:
		return n.V
	case *Ctr:
		if n.Level >= len(env) {
			ifail("counter level %d read with %d levels in scope", n.Level, len(env))
		}
		return pattern.VI(env[n.Level])
	case *RegRd:
		return in.st.regs[n.Reg]
	case *SRAMRd:
		return in.st.sram[n.Mem][in.evalAddr(n.Addr, env, n.Mem)]
	case *FIFORd:
		q := in.st.fifos[n.Mem]
		if len(q) == 0 {
			ifail("pop from empty FIFO %q", n.Mem.Name)
		}
		v := q[0]
		in.st.fifos[n.Mem] = q[1:]
		return v
	case *ToF32:
		return pattern.VF(float32(in.eval(n.X, env).I))
	case *ToI32:
		return pattern.VI(int32(in.eval(n.X, env).F))
	case *Mux:
		if in.eval(n.Cond, env).B {
			return in.eval(n.T, env)
		}
		return in.eval(n.F, env)
	case *Un:
		return pattern.EvalUn(n.Op, in.eval(n.X, env))
	case *Bin:
		return pattern.EvalOp(n.Op, in.eval(n.X, env), in.eval(n.Y, env))
	}
	ifail("cannot evaluate %T", e)
	return pattern.Value{}
}

// run is everything observable about one interpreter run.
type run struct {
	events []ExecEvent
	sram   map[*SRAM][]pattern.Value
	regs   map[*Reg]pattern.Value
	fifos  map[*FIFOMem][]pattern.Value
	dram   [][]pattern.Value
	err    error
}

// dramSnapshot copies the bound DRAM contents of p.
func dramSnapshot(p *Program) [][]pattern.Value {
	out := make([][]pattern.Value, len(p.DRAMs))
	for i, d := range p.DRAMs {
		if d.Data == nil {
			continue
		}
		if d.Elem == pattern.F32 {
			for _, v := range d.Data.F32Data() {
				out[i] = append(out[i], pattern.VF(v))
			}
		} else {
			for _, v := range d.Data.I32Data() {
				out[i] = append(out[i], pattern.VI(v))
			}
		}
	}
	return out
}

// dramRestore writes a snapshot back into the bound collections.
func dramRestore(p *Program, snap [][]pattern.Value) {
	for i, d := range p.DRAMs {
		for j, v := range snap[i] {
			if d.Elem == pattern.F32 {
				d.Data.F32Data()[j] = v.F
			} else {
				d.Data.I32Data()[j] = v.I
			}
		}
	}
}

// bothRuns traces p with the compiled interpreter and then, from the same
// initial DRAM contents, with the oracle.
func bothRuns(p *Program) (got, want run) {
	init := dramSnapshot(p)
	record := func(r *run) ExecHook {
		return func(ev *ExecEvent) { r.events = append(r.events, *ev) }
	}
	st, err := Trace(p, record(&got))
	got.err = err
	if err == nil {
		got.sram, got.regs, got.fifos = map[*SRAM][]pattern.Value{}, map[*Reg]pattern.Value{}, map[*FIFOMem][]pattern.Value{}
		for _, s := range p.SRAMs {
			got.sram[s] = st.SRAMData(s)
		}
		for _, r := range p.Regs {
			got.regs[r] = st.RegValue(r)
		}
		for _, f := range p.FIFOs {
			got.fifos[f] = st.FIFOData(f)
		}
	}
	got.dram = dramSnapshot(p)

	dramRestore(p, init)
	ost, err := oracleTrace(p, record(&want))
	want.err = err
	if err == nil {
		want.sram, want.regs, want.fifos = map[*SRAM][]pattern.Value{}, map[*Reg]pattern.Value{}, map[*FIFOMem][]pattern.Value{}
		for _, s := range p.SRAMs {
			want.sram[s] = ost.sram[s]
		}
		for _, r := range p.Regs {
			want.regs[r] = ost.regs[r]
		}
		for _, f := range p.FIFOs {
			want.fifos[f] = ost.fifos[f]
		}
	}
	want.dram = dramSnapshot(p)
	return got, want
}

// sameValue compares values bit for bit (NaN payloads included).
func sameValue(a, b pattern.Value) bool {
	return a.T == b.T && math.Float32bits(a.F) == math.Float32bits(b.F) && a.I == b.I && a.B == b.B
}

func sameValues(a, b []pattern.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffRuns describes the first difference between two runs ("" if none).
func diffRuns(got, want run) string {
	switch {
	case (got.err == nil) != (want.err == nil):
		return fmt.Sprintf("error: compiled %v, oracle %v", got.err, want.err)
	case got.err != nil && got.err.Error() != want.err.Error():
		return fmt.Sprintf("error text: compiled %q, oracle %q", got.err, want.err)
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("%d events, oracle %d", len(got.events), len(want.events))
	}
	for i := range got.events {
		if !reflect.DeepEqual(got.events[i], want.events[i]) {
			return fmt.Sprintf("event %d: compiled %+v, oracle %+v", i, got.events[i], want.events[i])
		}
	}
	for s, v := range want.sram {
		if !sameValues(got.sram[s], v) {
			return fmt.Sprintf("SRAM %q differs", s.Name)
		}
	}
	for r, v := range want.regs {
		if !sameValue(got.regs[r], v) {
			return fmt.Sprintf("register %q: compiled %+v, oracle %+v", r.Name, got.regs[r], v)
		}
	}
	for f, v := range want.fifos {
		if !sameValues(got.fifos[f], v) {
			return fmt.Sprintf("FIFO %q: compiled %v, oracle %v", f.Name, got.fifos[f], v)
		}
	}
	for i := range want.dram {
		if !sameValues(got.dram[i], want.dram[i]) {
			return fmt.Sprintf("DRAM buffer %d differs", i)
		}
	}
	return ""
}

// TestOracleWorkloads runs every Table 4 benchmark through the compiled
// interpreter and the tree-walking oracle: event streams, final on-chip
// state and DRAM results must be identical.
func TestOracleWorkloads(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			got, want := bothRuns(p)
			if want.err != nil {
				t.Fatalf("oracle: %v", want.err)
			}
			if d := diffRuns(got, want); d != "" {
				t.Fatal(d)
			}
			if len(got.events) == 0 {
				t.Fatal("no events recorded")
			}
		})
	}
}

// opaque is an Expr neither interpreter can evaluate.
type opaque struct{ Expr }

// TestOracleErrors: malformed programs fail with identical error text in
// both interpreters, one case per runtime check.
func TestOracleErrors(t *testing.T) {
	f32, i32 := pattern.F32, pattern.I32
	// prog builds a one-leaf-per-controller program over fresh memories.
	type mems struct {
		d, di       *DRAMBuf
		s, si, tiny *SRAM
		r, five, fr *Reg
		f, fi       *FIFOMem
	}
	prog := func(leaves func(m mems) []*Controller) *Program {
		m := mems{
			d:    &DRAMBuf{Name: "d", Elem: f32, Dims: []int{8}},
			di:   &DRAMBuf{Name: "di", Elem: i32, Dims: []int{8}},
			s:    &SRAM{Name: "s", Elem: f32, Size: 8, NBuf: 1},
			si:   &SRAM{Name: "si", Elem: i32, Size: 8, NBuf: 1},
			tiny: &SRAM{Name: "tiny", Elem: i32, Size: 4, NBuf: 1},
			r:    &Reg{Name: "r", Elem: i32, Init: pattern.VI(0)},
			five: &Reg{Name: "five", Elem: i32, Init: pattern.VI(5)},
			fr:   &Reg{Name: "fr", Elem: f32, Init: pattern.VF(2)},
			f:    &FIFOMem{Name: "f", Elem: f32, Depth: 8},
			fi:   &FIFOMem{Name: "fi", Elem: i32, Depth: 8},
		}
		if err := m.d.Bind(pattern.FromF32("d", make([]float32, 8))); err != nil {
			t.Fatal(err)
		}
		if err := m.di.Bind(pattern.FromI32("di", []int32{0, 1, 2, 3, 4, 5, 6, 7})); err != nil {
			t.Fatal(err)
		}
		return &Program{Name: "bad", Root: &Controller{Name: "root", Kind: Sequential, Children: leaves(m)},
			DRAMs: []*DRAMBuf{m.d, m.di}, SRAMs: []*SRAM{m.s, m.si, m.tiny},
			Regs: []*Reg{m.r, m.five, m.fr}, FIFOs: []*FIFOMem{m.f, m.fi}}
	}
	compute := func(chain []Counter, body ...*Assign) *Controller {
		return &Controller{Name: "c", Kind: ComputeKind, Chain: chain, Body: body}
	}
	xfer := func(k Kind, x *Transfer) *Controller { return &Controller{Name: "x", Kind: k, Xfer: x} }
	cases := []struct {
		name string
		want string
		p    func(m mems) []*Controller
	}{
		{"dynamic limit not i32", `register "fr" is not i32`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{CDyn(m.fr)}, SetReg(m.r, CI(1)))}
		}},
		{"address not i32", `address into "s" is f32, want i32`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, StoreAt(m.s, CF(1), CF(0)))}
		}},
		{"address out of range", `address 8 out of range [0,8) in SRAM "s"`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(9)}, StoreAt(m.s, Idx(0), CF(0)))}
		}},
		{"negative read address", `address -3 out of range [0,8) in SRAM "si"`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, Ld(m.si, Sub(Idx(0), CI(3)))))}
		}},
		{"SRAM write type", `writing i32 into SRAM "s" of type f32`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, StoreAt(m.s, Idx(0), CI(1)))}
		}},
		{"DRAM read range", `DRAM "d" read at 8 out of range [0,8)`, func(m mems) []*Controller {
			return []*Controller{xfer(LoadKind, &Transfer{DRAM: m.d, Off: CI(4), Len: 8, SRAM: m.s})}
		}},
		{"DRAM write range", `DRAM "d" write at 8 out of range [0,8)`, func(m mems) []*Controller {
			return []*Controller{xfer(StoreKind, &Transfer{DRAM: m.d, Off: CI(4), Len: 8, SRAM: m.s})}
		}},
		{"DRAM write type", `writing i32 into DRAM "d" of type f32`, func(m mems) []*Controller {
			return []*Controller{xfer(StoreKind, &Transfer{DRAM: m.d, Len: 8, SRAM: m.si})}
		}},
		{"load overflow", `load "x" overflows SRAM "s" at 8`, func(m mems) []*Controller {
			return []*Controller{xfer(LoadKind, &Transfer{DRAM: m.d, Len: 8, SRAM: m.s, SRAMOff: CI(4)})}
		}},
		{"load negative offset", `load "x" overflows SRAM "s" at -2`, func(m mems) []*Controller {
			return []*Controller{xfer(LoadKind, &Transfer{DRAM: m.d, Len: 4, SRAM: m.s, SRAMOff: CI(-2)})}
		}},
		{"store FIFO underflow", `store "x" pops 5 from FIFO "f" holding 0`, func(m mems) []*Controller {
			return []*Controller{xfer(StoreKind, &Transfer{DRAM: m.d, Len: 8, FIFO: m.f, CountReg: m.five})}
		}},
		{"store reads past SRAM", `store "x" reads past SRAM "s" at 8`, func(m mems) []*Controller {
			return []*Controller{xfer(StoreKind, &Transfer{DRAM: m.d, Len: 8, SRAM: m.s, SRAMOff: CI(4)})}
		}},
		{"gather overflow", `gather "x" overflows SRAM "tiny" at 4`, func(m mems) []*Controller {
			return []*Controller{xfer(GatherKind, &Transfer{DRAM: m.di, AddrMem: m.si, Count: 8, SRAM: m.tiny})}
		}},
		{"scatter reads past SRAM", `scatter "x" reads past SRAM "tiny" at 4`, func(m mems) []*Controller {
			return []*Controller{xfer(ScatterKind, &Transfer{DRAM: m.di, AddrMem: m.si, Count: 8, DataMem: m.tiny})}
		}},
		{"scatter empty FIFO", `scatter "x" pops empty FIFO "fi"`, func(m mems) []*Controller {
			return []*Controller{xfer(ScatterKind, &Transfer{DRAM: m.di, AddrMem: m.si, Count: 2, DataFIFO: m.fi})}
		}},
		{"address stream past SRAM", `transfer "x" reads past address SRAM "tiny" at 4`, func(m mems) []*Controller {
			return []*Controller{xfer(GatherKind, &Transfer{DRAM: m.di, AddrMem: m.tiny, Count: 8, SRAM: m.si})}
		}},
		{"address stream not i32", `transfer "x" address stream is not i32`, func(m mems) []*Controller {
			return []*Controller{xfer(GatherKind, &Transfer{DRAM: m.di, AddrMem: m.s, Count: 2, SRAM: m.si})}
		}},
		{"address FIFO empty", `transfer "x" pops empty address FIFO "fi"`, func(m mems) []*Controller {
			return []*Controller{xfer(GatherKind, &Transfer{DRAM: m.di, AddrFIFO: m.fi, Count: 2, SRAM: m.si})}
		}},
		{"counter out of scope", `counter level 3 read with 1 levels in scope`, func(m mems) []*Controller {
			x := xfer(LoadKind, &Transfer{DRAM: m.d, Len: 4, SRAM: m.s, SRAMOff: Idx(3)})
			x.Chain = []Counter{C(1)}
			return []*Controller{x}
		}},
		{"pop empty FIFO", `pop from empty FIFO "f"`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, StoreAt(m.s, Idx(0), Pop(m.f)))}
		}},
		{"unevaluable expression", `cannot evaluate dhdl_test.opaque`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, opaque{CI(0)}))}
		}},
		{"i32 division by zero", `pattern: i32 division by zero`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, Div(CI(7), Sub(Idx(0), Idx(0)))))}
		}},
		{"i32 modulo by zero", `pattern: i32 modulo by zero`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, Mod(Idx(0), CI(0))))}
		}},
		{"bool arithmetic", `pattern: bad bool op`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, Add(Lt(Idx(0), CI(1)), Lt(Idx(0), CI(1)))))}
		}},
		{"f32 modulo", `pattern: bad f32 op`, func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, StoreAt(m.s, Idx(0), Mod(CF(1), CF(2))))}
		}},
		{"undeclared SRAM", `dhdl: c uses SRAM "ghost", which program "bad" does not declare`, func(m mems) []*Controller {
			ghost := &SRAM{Name: "ghost", Elem: i32, Size: 4, NBuf: 1}
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, Ld(ghost, Idx(0))))}
		}},
		{"unknown leaf kind", `unknown kind`, func(m mems) []*Controller {
			return []*Controller{{Name: "k", Kind: Kind(99)}}
		}},
	}
	for _, tc := range cases {
		got, want := bothRuns(prog(tc.p))
		if got.err == nil || !strings.Contains(got.err.Error(), tc.want) {
			t.Errorf("%s: compiled err = %v, want one containing %q", tc.name, got.err, tc.want)
		}
		if d := diffRuns(got, want); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}

	// An unbound DRAM fails before either interpreter starts.
	p := prog(func(m mems) []*Controller {
		return []*Controller{xfer(LoadKind, &Transfer{DRAM: m.d, Len: 8, SRAM: m.s})}
	})
	p.DRAMs[0].Data = nil
	_, gerr := Run(p)
	_, oerr := oracleTrace(p, nil)
	if gerr == nil || oerr == nil || gerr.Error() != oerr.Error() {
		t.Errorf("unbound DRAM: compiled %v, oracle %v", gerr, oerr)
	}
	if !errors.Is(func() error {
		_, err := Run(prog(func(m mems) []*Controller {
			return []*Controller{compute([]Counter{C(2)}, SetReg(m.r, Div(CI(7), CI(0))))}
		}))
		return err
	}(), pattern.ErrEval) {
		t.Error("division by zero must wrap pattern.ErrEval")
	}
}

// TestTraceCtxCanceled: a canceled context stops the run before its first
// leaf execution.
func TestTraceCtxCanceled(t *testing.T) {
	b := NewBuilder("ctx", Sequential)
	r := b.Reg("r", pattern.VI(0))
	b.Compute("c", []Counter{C(4)}, func(ix []Expr) []*Assign { return []*Assign{SetReg(r, ix[0])} })
	p := b.MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	leaves := 0
	_, err := TraceCtx(ctx, p, func(*ExecEvent) { leaves++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if leaves != 0 {
		t.Fatalf("%d leaves ran under a canceled context", leaves)
	}
}

// fuzzSource hands out choices from a fuzz input; an exhausted input
// reads as zeros.
type fuzzSource struct {
	b []byte
	i int
}

func (s *fuzzSource) pick(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % n
	s.i++
	return v
}

// fuzzGen draws Expr trees over a fixed set of memories.
type fuzzGen struct {
	src        *fuzzSource
	levels     int // counter levels in scope at the Compute
	sF, sI     *SRAM
	rF, rI, rB *Reg
	fF, fI     *FIFOMem
}

var (
	fuzzF32 = []float32{0, 1, -2.5, 3, float32(math.NaN()), float32(math.Inf(1))}
	fuzzI32 = []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32}
	fuzzBin = []pattern.Op{pattern.Add, pattern.Sub, pattern.Mul, pattern.Div, pattern.Mod,
		pattern.Min, pattern.Max, pattern.Lt, pattern.Le, pattern.Gt, pattern.Ge,
		pattern.Eq, pattern.Ne, pattern.And, pattern.Or}
	fuzzUn  = []pattern.Op{pattern.Not, pattern.Neg, pattern.Abs, pattern.Exp, pattern.Log, pattern.Sqrt, pattern.Rcp}
	fuzzCmp = []pattern.Op{pattern.Lt, pattern.Le, pattern.Gt, pattern.Ge, pattern.Eq, pattern.Ne}
	// Combines: the associative ops, plus one that Finalize rejects.
	fuzzCombine = []pattern.Op{pattern.Add, pattern.Mul, pattern.Min, pattern.Max, pattern.And, pattern.Or, pattern.Sub}
)

func (g *fuzzGen) lit() Expr {
	switch g.src.pick(3) {
	case 0:
		return CF(fuzzF32[g.src.pick(len(fuzzF32))])
	case 1:
		return CI(fuzzI32[g.src.pick(len(fuzzI32))])
	}
	return &Lit{V: pattern.VB(g.src.pick(2) == 1)}
}

func (g *fuzzGen) ctr() Expr {
	if g.levels == 0 {
		return CI(int32(g.src.pick(4)))
	}
	return Idx(g.src.pick(g.levels))
}

// addr is an in-range affine address half the time, any expression
// otherwise.
func (g *fuzzGen) addr(depth int) Expr {
	if g.src.pick(2) == 0 {
		return Add(Mul(g.ctr(), CI(int32(g.src.pick(4)))), g.ctr())
	}
	return g.expr(depth)
}

func (g *fuzzGen) expr(depth int) Expr {
	kinds := 10
	if depth <= 0 {
		kinds = 5
	}
	switch g.src.pick(kinds) {
	case 0:
		return g.lit()
	case 1:
		return g.ctr()
	case 2:
		return Rd([]*Reg{g.rF, g.rI, g.rB}[g.src.pick(3)])
	case 3:
		m := g.sF
		if g.src.pick(2) == 1 {
			m = g.sI
		}
		return Ld(m, g.addr(depth-1))
	case 4:
		if g.src.pick(2) == 1 {
			return Pop(g.fI)
		}
		return Pop(g.fF)
	case 5:
		return &Bin{Op: fuzzBin[g.src.pick(len(fuzzBin))], X: g.expr(depth - 1), Y: g.expr(depth - 1)}
	case 6:
		return &Un{Op: fuzzUn[g.src.pick(len(fuzzUn))], X: g.expr(depth - 1)}
	case 7:
		return Sel(g.cond(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 8:
		return F32(g.expr(depth - 1))
	}
	return I32(g.expr(depth - 1))
}

func (g *fuzzGen) cond(depth int) Expr {
	if g.src.pick(4) == 0 {
		return Rd(g.rB)
	}
	return &Bin{Op: fuzzCmp[g.src.pick(len(fuzzCmp))], X: g.expr(depth), Y: g.expr(depth)}
}

// fuzzProgram builds a program around one fuzzed Compute: loads fill two
// SRAMs and two FIFOs, the Compute runs one to three random assigns over
// one or two counters, and a store writes an SRAM back to DRAM.
func fuzzProgram(data []byte) *Program {
	src := &fuzzSource{b: data}
	var root []Counter
	if src.pick(2) == 1 {
		root = []Counter{C(2)}
	}
	b := NewBuilder("fuzz", Sequential, root...)
	dF, dI, out := b.DRAMF32("dF", 16), b.DRAMI32("dI", 16), b.DRAMF32("out", 16)
	g := &fuzzGen{src: src,
		sF: b.SRAM("sF", pattern.F32, 16), sI: b.SRAM("sI", pattern.I32, 16),
		rF: b.Reg("rF", pattern.VF(1.5)), rI: b.Reg("rI", pattern.VI(3)), rB: b.Reg("rB", pattern.VB(true)),
		fF: b.FIFO("fF", pattern.F32, 64), fI: b.FIFO("fI", pattern.I32, 64)}
	fO := b.FIFO("fO", pattern.F32, 64)
	b.Load("ldF", dF, CI(0), g.sF, 16)
	b.Load("ldI", dI, CI(0), g.sI, 16)
	b.LoadFIFO("qF", dF, CI(0), g.fF, 16)
	b.LoadFIFO("qI", dI, CI(0), g.fI, 16)
	chain := []Counter{CStep(0, 1+src.pick(4), 1+src.pick(2))}
	if src.pick(2) == 1 {
		chain = append(chain, C(1+src.pick(4)))
	}
	g.levels = len(root) + len(chain)
	b.Compute("body", chain, func([]Expr) []*Assign {
		var body []*Assign
		reduced := map[*Reg]bool{}
		for n := 1 + src.pick(3); n > 0; n-- {
			var a *Assign
			switch src.pick(5) {
			case 0, 1:
				m := g.sF
				if src.pick(2) == 1 {
					m = g.sI
				}
				a = StoreAt(m, g.addr(2), g.expr(3))
				if src.pick(2) == 1 {
					a = AccumAt(m, fuzzCombine[src.pick(len(fuzzCombine))], a.Addr, a.Val)
				}
			case 2:
				// Two reductions into one register would commit in an
				// order the oracle leaves unspecified.
				r := []*Reg{g.rF, g.rI, g.rB}[src.pick(3)]
				if reduced[r] {
					a = SetReg(r, g.expr(3))
					break
				}
				reduced[r] = true
				a = Accum(r, fuzzCombine[src.pick(len(fuzzCombine))], g.expr(3))
			case 3:
				a = SetReg([]*Reg{g.rF, g.rI, g.rB}[src.pick(3)], g.expr(3))
			default:
				a = Push([]*FIFOMem{g.fF, g.fI, fO}[src.pick(3)], g.expr(3))
			}
			if src.pick(3) == 0 {
				a.Cond = g.cond(2)
			}
			body = append(body, a)
		}
		return body
	})
	b.Store("st", out, CI(0), g.sF, 16)
	// A structural rejection (e.g. a non-associative combine) surfaces
	// again from Finalize in both interpreters.
	p := b.MustBuild()
	fv, iv := make([]float32, 16), make([]int32, 16)
	for i := range fv {
		fv[i], iv[i] = float32(i)*0.5-3, int32(i-4)
	}
	for _, bind := range []struct {
		d *DRAMBuf
		c *pattern.Collection
	}{{dF, pattern.FromF32("dF", fv)}, {dI, pattern.FromI32("dI", iv)}, {out, pattern.FromF32("out", make([]float32, 16))}} {
		if err := bind.d.Bind(bind.c); err != nil {
			panic(err)
		}
	}
	return p
}

// FuzzTraceOracle: on random Expr trees in a one-Compute program, the
// compiled interpreter and the tree-walking oracle reach the same final
// state, events and DRAM contents, or fail with the same error.
func FuzzTraceOracle(f *testing.F) {
	for _, seed := range []string{
		"", "\x01\x02\x03\x04\x05\x06\x07\x08\x09",
		"\x01\x03\x01\x01\x02\x00\x05\x05\x01\x03\x03\x04\x02\x06\x07",
		"\x00\x02\x00\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f",
		"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := bothRuns(fuzzProgram(data))
		if d := diffRuns(got, want); d != "" {
			t.Fatal(d)
		}
	})
}
