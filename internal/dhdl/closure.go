package dhdl

import "plasticine/internal/pattern"

// This file lowers Compute bodies, transfer offsets and addresses to Go
// closures once per run. Memories are resolved to State slots at lowering
// time, so evaluation never consults a map. Every runtime check of the
// IR's semantics stays in the closures with its error text; only checks
// that cannot fail are dropped (the i32 test on an address affine in
// in-scope counters, and the scope test on a counter the leaf's env always
// holds).

type (
	valFn  func(env []int32) pattern.Value
	i32Fn  func(env []int32) int32
	addrFn func(env []int32) int
)

// lowering compiles the expressions of one leaf controller.
type lowering struct {
	st     *State
	envLen int // counter levels in scope at the leaf
}

// compute compiles a Compute leaf.
func (lw *lowering) compute(c *Controller, chain []loop) *compute {
	k := &compute{st: lw.st, chain: chain}
	accOf := map[*Assign]int{} // one accumulator per distinct ReduceReg assign
	for _, a := range c.Body {
		ca := assign{kind: a.Kind, val: lw.value(a.Val)}
		if a.Cond != nil {
			ca.cond = lw.value(a.Cond)
		}
		switch a.Kind {
		case WriteSRAM, ReduceSRAM:
			ca.sram = a.SRAM
			ca.buf = lw.st.sram[lw.st.sramSlotOf(a.SRAM)]
			ca.addr = lw.addr(a.Addr, a.SRAM)
		case WriteReg:
			ca.slot = lw.st.regSlotOf(a.Reg)
		case ReduceReg:
			ca.slot = lw.st.regSlotOf(a.Reg)
			ca.reg = a.Reg
			i, ok := accOf[a]
			if !ok {
				i = len(k.acc)
				accOf[a] = i
				k.acc = append(k.acc, pattern.Value{})
			}
			ca.acc = i
		case PushFIFO:
			ca.slot = lw.st.fifoSlotOf(a.FIFO)
		}
		if a.Kind == ReduceReg || a.Kind == ReduceSRAM {
			ca.combine = combiner(a.Combine)
		}
		k.body = append(k.body, ca)
	}
	return k
}

// inScope reports whether counter level l is always present in the leaf's
// env.
func (lw *lowering) inScope(l int) bool { return l >= 0 && l < lw.envLen }

// value lowers e to a closure producing its value.
func (lw *lowering) value(e Expr) valFn {
	st := lw.st
	switch n := e.(type) {
	case *Lit:
		v := n.V
		return func([]int32) pattern.Value { return v }
	case *Ctr:
		l := n.Level
		if lw.inScope(l) {
			return func(env []int32) pattern.Value { return pattern.VI(env[l]) }
		}
		return func(env []int32) pattern.Value {
			if l >= len(env) {
				ifail("counter level %d read with %d levels in scope", l, len(env))
			}
			return pattern.VI(env[l])
		}
	case *RegRd:
		slot := st.regSlotOf(n.Reg)
		return func([]int32) pattern.Value { return st.regs[slot] }
	case *SRAMRd:
		buf := st.sram[st.sramSlotOf(n.Mem)]
		if p, ok := lw.small(n.Addr); ok {
			size, name := n.Mem.Size, n.Mem.Name
			return func(env []int32) pattern.Value { return buf[inRange(int(p.at(env)), size, name)] }
		}
		addr := lw.addr(n.Addr, n.Mem)
		return func(env []int32) pattern.Value { return buf[addr(env)] }
	case *FIFORd:
		slot, name := st.fifoSlotOf(n.Mem), n.Mem.Name
		return func([]int32) pattern.Value {
			q := st.fifos[slot]
			if len(q) == 0 {
				ifail("pop from empty FIFO %q", name)
			}
			st.fifos[slot] = q[1:]
			return q[0]
		}
	case *ToF32:
		x := lw.value(n.X)
		return func(env []int32) pattern.Value { return pattern.VF(float32(x(env).I)) }
	case *ToI32:
		x := lw.value(n.X)
		return func(env []int32) pattern.Value { return pattern.VI(int32(x(env).F)) }
	case *Mux:
		c, t, f := lw.value(n.Cond), lw.value(n.T), lw.value(n.F)
		return func(env []int32) pattern.Value {
			if c(env).B {
				return t(env)
			}
			return f(env)
		}
	case *Un:
		x, op := lw.value(n.X), n.Op
		return func(env []int32) pattern.Value { return pattern.EvalUn(op, x(env)) }
	case *Bin:
		if f, ok := lw.int32(n); ok {
			return func(env []int32) pattern.Value { return pattern.VI(f(env)) }
		}
		return binary(n.Op, lw.value(n.X), lw.value(n.Y))
	}
	return func([]int32) pattern.Value {
		ifail("cannot evaluate %T", e)
		return pattern.Value{}
	}
}

// addr lowers an SRAM address: the value must be i32 and in range.
func (lw *lowering) addr(e Expr, s *SRAM) addrFn {
	size, name := s.Size, s.Name
	if p, ok := lw.small(e); ok {
		return func(env []int32) int { return inRange(int(p.at(env)), size, name) }
	}
	if f, ok := lw.int32(e); ok {
		return func(env []int32) int { return inRange(int(f(env)), size, name) }
	}
	x := lw.value(e)
	return func(env []int32) int {
		v := x(env)
		if v.T != pattern.I32 {
			ifail("address into %q is %v, want i32", name, v.T)
		}
		return inRange(int(v.I), size, name)
	}
}

// inRange checks an SRAM address against the memory's size.
func inRange(a, size int, name string) int {
	if a < 0 || a >= size {
		outOfRange(a, size, name)
	}
	return a
}

//go:noinline
func outOfRange(a, size int, name string) {
	ifail("address %d out of range [0,%d) in SRAM %q", a, size, name)
}

// index lowers a transfer offset, whose i32 payload is used unchecked; nil
// stays nil (offset 0).
func (lw *lowering) index(e Expr) func(env []int32) int {
	if e == nil {
		return nil
	}
	if f, ok := lw.int32(e); ok {
		return func(env []int32) int { return int(f(env)) }
	}
	x := lw.value(e)
	return func(env []int32) int { return int(x(env).I) }
}

// int32 lowers e to direct int32 arithmetic when e is affine in in-scope
// counters: built from them, i32 literals, + and -, and multiplication by
// a constant. Such an expression always evaluates to an i32 under
// pattern.EvalOp, so its address needs no type check.
func (lw *lowering) int32(e Expr) (i32Fn, bool) {
	a, ok := lw.affine(e)
	if !ok {
		return nil, false
	}
	return a.fn(), true
}

// affine is k + Σ coef·env[level]. Counter arithmetic in int32 is ring
// arithmetic modulo 2^32, so the normal form is exact, overflow included.
type affine struct {
	k     int32
	terms []term
}

type term struct {
	level int
	coef  int32
}

// affine reports e's affine normal form, if it has one.
func (lw *lowering) affine(e Expr) (affine, bool) {
	switch n := e.(type) {
	case *Lit:
		return affine{k: n.V.I}, n.V.T == pattern.I32
	case *Ctr:
		return affine{terms: []term{{n.Level, 1}}}, lw.inScope(n.Level)
	case *Bin:
		x, okx := lw.affine(n.X)
		y, oky := lw.affine(n.Y)
		if !okx || !oky {
			return affine{}, false
		}
		switch n.Op {
		case pattern.Add:
			return x.plus(y, 1), true
		case pattern.Sub:
			return x.plus(y, -1), true
		case pattern.Mul:
			if len(x.terms) == 0 {
				return y.scale(x.k), true
			}
			if len(y.terms) == 0 {
				return x.scale(y.k), true
			}
		}
	}
	return affine{}, false
}

// plus returns a + s·b.
func (a affine) plus(b affine, s int32) affine {
	out := affine{k: a.k + s*b.k, terms: append([]term(nil), a.terms...)}
next:
	for _, t := range b.terms {
		for i := range out.terms {
			if out.terms[i].level == t.level {
				out.terms[i].coef += s * t.coef
				continue next
			}
		}
		out.terms = append(out.terms, term{t.level, s * t.coef})
	}
	return out
}

func (a affine) scale(s int32) affine {
	out := affine{k: a.k * s}
	for _, t := range a.terms {
		out.terms = append(out.terms, term{t.level, t.coef * s})
	}
	return out
}

func (a affine) fn() i32Fn {
	k, t := a.k, a.terms
	switch {
	case len(t) == 0:
		return func([]int32) int32 { return k }
	case len(t) <= 3:
		p := a.pad()
		return p.at
	}
	return func(env []int32) int32 {
		s := k
		for _, x := range t {
			s += x.coef * env[x.level]
		}
		return s
	}
}

// small3 is an affine form of one to three terms, padded with zero
// coefficients, so one inlinable evaluation covers every such address.
type small3 struct {
	k int32
	l [3]int
	c [3]int32
}

func (p *small3) at(env []int32) int32 {
	return p.k + p.c[0]*env[p.l[0]] + p.c[1]*env[p.l[1]] + p.c[2]*env[p.l[2]]
}

func (a affine) pad() *small3 {
	p := &small3{k: a.k}
	for i := range p.l {
		if i < len(a.terms) {
			p.l[i], p.c[i] = a.terms[i].level, a.terms[i].coef
		} else {
			p.l[i] = a.terms[0].level
		}
	}
	return p
}

// small reports e's padded affine form when it has one to three terms.
func (lw *lowering) small(e Expr) (*small3, bool) {
	a, ok := lw.affine(e)
	if !ok || len(a.terms) == 0 || len(a.terms) > 3 {
		return nil, false
	}
	return a.pad(), true
}

// binary lowers a binary op. The arithmetic ops handle f32 and i32
// operands inline and defer everything else (bool operands, division by
// zero, bad ops) to pattern.EvalOp, so results and error text match it
// exactly.
// Operands evaluate left to right, as in EvalOp's caller.
func binary(op pattern.Op, x, y valFn) valFn {
	switch op {
	case pattern.Add:
		return func(env []int32) pattern.Value {
			a, b := x(env), y(env)
			switch a.T {
			case pattern.F32:
				return pattern.VF(a.F + b.F)
			case pattern.I32:
				return pattern.VI(a.I + b.I)
			}
			return pattern.EvalOp(op, a, b)
		}
	case pattern.Sub:
		return func(env []int32) pattern.Value {
			a, b := x(env), y(env)
			switch a.T {
			case pattern.F32:
				return pattern.VF(a.F - b.F)
			case pattern.I32:
				return pattern.VI(a.I - b.I)
			}
			return pattern.EvalOp(op, a, b)
		}
	case pattern.Mul:
		return func(env []int32) pattern.Value {
			a, b := x(env), y(env)
			switch a.T {
			case pattern.F32:
				return pattern.VF(a.F * b.F)
			case pattern.I32:
				return pattern.VI(a.I * b.I)
			}
			return pattern.EvalOp(op, a, b)
		}
	case pattern.Div:
		return func(env []int32) pattern.Value {
			a, b := x(env), y(env)
			if a.T == pattern.F32 {
				return pattern.VF(a.F / b.F)
			}
			return pattern.EvalOp(op, a, b)
		}
	}
	return func(env []int32) pattern.Value { return pattern.EvalOp(op, x(env), y(env)) }
}

// combiner returns a reduction's combine function.
func combiner(op pattern.Op) func(x, y pattern.Value) pattern.Value {
	if op == pattern.Add {
		return addV
	}
	return func(x, y pattern.Value) pattern.Value { return pattern.EvalOp(op, x, y) }
}

func addV(x, y pattern.Value) pattern.Value {
	switch x.T {
	case pattern.F32:
		return pattern.VF(x.F + y.F)
	case pattern.I32:
		return pattern.VI(x.I + y.I)
	}
	return pattern.EvalOp(pattern.Add, x, y)
}
