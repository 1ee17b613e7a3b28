package dhdl

import (
	"context"
	"fmt"

	"plasticine/internal/pattern"
)

// State holds the live contents of all on-chip memories during and after an
// interpreter run. DRAM contents live in the bound collections. Every
// memory is bound to a dense slot when the program is compiled, so the
// interpreter indexes slices; the slot maps only serve the accessors.
type State struct {
	sram  [][]pattern.Value
	regs  []pattern.Value
	fifos [][]pattern.Value

	sramSlot map[*SRAM]int
	regSlot  map[*Reg]int
	fifoSlot map[*FIFOMem]int
}

// SRAMData returns the current contents of an SRAM.
func (s *State) SRAMData(m *SRAM) []pattern.Value {
	if i, ok := s.sramSlot[m]; ok {
		return s.sram[i]
	}
	return nil
}

// RegValue returns the current value of a register.
func (s *State) RegValue(r *Reg) pattern.Value {
	if i, ok := s.regSlot[r]; ok {
		return s.regs[i]
	}
	return pattern.Value{}
}

// FIFOLen returns the occupancy of a FIFO.
func (s *State) FIFOLen(f *FIFOMem) int { return len(s.FIFOData(f)) }

// FIFOData returns the current contents of a FIFO (front first).
func (s *State) FIFOData(f *FIFOMem) []pattern.Value {
	if i, ok := s.fifoSlot[f]; ok {
		return s.fifos[i]
	}
	return nil
}

// newState allocates the declared memories: SRAMs zero-filled in their
// element type, registers at their initial values, FIFOs empty.
func newState(p *Program) *State {
	st := &State{
		sramSlot: make(map[*SRAM]int, len(p.SRAMs)),
		regSlot:  make(map[*Reg]int, len(p.Regs)),
		fifoSlot: make(map[*FIFOMem]int, len(p.FIFOs)),
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
		st.sram[st.sramSlotOf(s)] = buf
	}
	for _, r := range p.Regs {
		st.regs[st.regSlotOf(r)] = r.Init
	}
	for _, f := range p.FIFOs {
		st.fifoSlotOf(f)
	}
	return st
}

// The slot lookups bind a memory the program uses but never declared to a
// fresh slot holding what an unset memory reads as: a nil SRAM (any access
// panics), a zero register, an empty FIFO.

func (s *State) sramSlotOf(m *SRAM) int {
	i, ok := s.sramSlot[m]
	if !ok {
		i = len(s.sram)
		s.sram = append(s.sram, nil)
		s.sramSlot[m] = i
	}
	return i
}

func (s *State) regSlotOf(r *Reg) int {
	i, ok := s.regSlot[r]
	if !ok {
		i = len(s.regs)
		s.regs = append(s.regs, pattern.Value{})
		s.regSlot[r] = i
	}
	return i
}

func (s *State) fifoSlotOf(f *FIFOMem) int {
	i, ok := s.fifoSlot[f]
	if !ok {
		i = len(s.fifos)
		s.fifos = append(s.fifos, nil)
		s.fifoSlot[f] = i
	}
	return i
}

type interpError struct{ err error }

func ifail(format string, args ...any) {
	panic(interpError{fmt.Errorf("dhdl interp: "+format, args...)})
}

// ExecEvent describes one completed leaf-controller execution during a
// traced run. The hardware simulator replays these events to build its
// timed activity graph.
type ExecEvent struct {
	Ctrl *Controller
	Path []*Controller // ancestors, root first, ending at Ctrl
	Env  []int32       // counter values in scope (copy)

	// Iters is the number of body iterations a Compute executed.
	Iters int64

	// Transfer details: the DRAM buffer, dense word offset/length, and for
	// sparse transfers the element indices in access order.
	Buf         *DRAMBuf
	DenseOff    int
	DenseLen    int
	SparseAddrs []int32
	Write       bool
}

// ExecHook observes leaf executions in program order.
type ExecHook func(ev *ExecEvent)

// Run executes the program sequentially, defining the IR's functional
// semantics. All DRAM buffers must be bound. The returned State exposes
// final on-chip memory contents; DRAM results are visible in the bound
// collections.
func Run(p *Program) (*State, error) { return TraceCtx(context.Background(), p, nil) }

// Trace is Run with an execution hook invoked after every leaf execution.
func Trace(p *Program, hook ExecHook) (*State, error) {
	return TraceCtx(context.Background(), p, hook)
}

// TraceCtx is Trace under a context. The interpreter compiles the program
// once (expressions become closures over slot-bound memories), then runs
// it, polling ctx before every leaf execution; a canceled run returns an
// error wrapping ctx.Err(). Runtime faults (out-of-range addresses, type
// mismatches on writes, empty FIFOs, i32 division by zero, ...) return
// errors, never panics.
func TraceCtx(ctx context.Context, p *Program, hook ExecHook) (st *State, err error) {
	if ferr := p.Finalize(); ferr != nil {
		return nil, ferr
	}
	for _, d := range p.DRAMs {
		if d.Data == nil {
			return nil, fmt.Errorf("dhdl interp: DRAM buffer %q not bound", d.Name)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st = newState(p)
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
	m := &machine{st: st, hook: hook, ctx: ctx}
	root := m.node(p.Root)
	m.run(root, make([]int32, 0, m.depth))
	return st, nil
}

// machine runs a compiled program.
type machine struct {
	st    *State
	hook  ExecHook
	ctx   context.Context
	path  []*Controller
	depth int // deepest counter level in the program (env capacity)
}

// node is a compiled controller.
type node struct {
	c     *Controller
	chain []loop
	kids  []*node                      // outer controllers
	comp  *compute                     // Compute leaves
	xfer  func(env []int32) *ExecEvent // transfer leaves
}

// loop is a compiled counter.
type loop struct {
	min, max, step int32
	maxReg         *Reg // dynamic trip limit, read when the loop starts
	maxSlot        int
}

func (l *loop) limit(st *State) int32 {
	if l.maxReg == nil {
		return l.max
	}
	v := st.regs[l.maxSlot]
	if v.T != pattern.I32 {
		ifail("dynamic counter limit register %q is not i32", l.maxReg.Name)
	}
	return v.I
}

// node compiles c and its subtree.
func (m *machine) node(c *Controller) *node {
	n := &node{c: c}
	for _, ctr := range c.Chain {
		l := loop{min: int32(ctr.Min), max: int32(ctr.Max), step: int32(ctr.Step), maxReg: ctr.MaxReg}
		if ctr.MaxReg != nil {
			l.maxSlot = m.st.regSlotOf(ctr.MaxReg)
		}
		n.chain = append(n.chain, l)
	}
	envLen := c.Depth + len(c.Chain)
	if envLen > m.depth {
		m.depth = envLen
	}
	lw := &lowering{st: m.st, envLen: envLen}
	switch {
	case c.Kind.IsOuter():
		for _, ch := range c.Children {
			n.kids = append(n.kids, m.node(ch))
		}
	case c.Kind == ComputeKind:
		n.comp = lw.compute(c, n.chain)
	default:
		n.xfer = lw.transfer(c)
	}
	return n
}

// poll aborts the run once ctx is done.
func (m *machine) poll() {
	select {
	case <-m.ctx.Done():
		panic(interpError{fmt.Errorf("dhdl interp: %w", m.ctx.Err())})
	default:
	}
}

func (m *machine) emit(ev *ExecEvent, env []int32) {
	ev.Path = append([]*Controller(nil), m.path...)
	ev.Env = append([]int32(nil), env...)
	m.hook(ev)
}

func (m *machine) run(n *node, env []int32) {
	m.path = append(m.path, n.c)
	if n.comp != nil {
		m.poll()
		iters := n.comp.run(env)
		if m.hook != nil {
			m.emit(&ExecEvent{Ctrl: n.c, Iters: iters}, env)
		}
	} else {
		m.levels(n, 0, env)
	}
	m.path = m.path[:len(m.path)-1]
}

// levels iterates an outer or transfer controller's chain from level lvl
// in row-major order. Per combination an outer controller runs its
// children, and a transfer executes once (one leaf execution).
func (m *machine) levels(n *node, lvl int, env []int32) {
	if lvl < len(n.chain) {
		l := &n.chain[lvl]
		max := l.limit(m.st)
		for i := l.min; i < max; i += l.step {
			m.levels(n, lvl+1, append(env, i))
		}
		return
	}
	if n.xfer == nil {
		// The reference semantics of all four outer schedules are
		// identical: children execute in program order per iteration.
		// Pipelining/streaming change timing, not results.
		for _, k := range n.kids {
			m.run(k, env)
		}
		return
	}
	m.poll()
	ev := n.xfer(env)
	ev.Ctrl = n.c
	if m.hook != nil {
		m.emit(ev, env)
	}
}

// compute is a compiled Compute leaf. Its accumulators and its commit
// buffer (the scratch fields of each assign) are allocated once, so
// iterating allocates nothing.
type compute struct {
	st    *State
	chain []loop
	body  []assign
	acc   []pattern.Value
	iters int64
}

// assign is a compiled Assign plus its slot in the iteration's commit
// buffer.
type assign struct {
	kind    AssignKind
	cond    valFn // nil = always
	val     valFn
	addr    addrFn // SRAM destinations
	sram    *SRAM
	buf     []pattern.Value
	slot    int  // register or FIFO slot
	acc     int  // accumulator index (ReduceReg)
	reg     *Reg // ReduceReg destination (its Init seeds the accumulator)
	combine func(x, y pattern.Value) pattern.Value

	// Commit buffer: whether the assign fires this iteration, its value
	// and its SRAM address.
	live bool
	v    pattern.Value
	at   int
}

func (k *compute) run(env []int32) int64 {
	// Reduction accumulators reset at the start of each leaf execution.
	for i := range k.body {
		if a := &k.body[i]; a.kind == ReduceReg {
			k.acc[a.acc] = a.reg.Init
		}
	}
	k.iters = 0
	k.level(0, env)
	for i := range k.body {
		if a := &k.body[i]; a.kind == ReduceReg {
			k.st.regs[a.slot] = k.acc[a.acc]
		}
	}
	return k.iters
}

func (k *compute) level(lvl int, env []int32) {
	if lvl == len(k.chain) {
		k.iterate(env)
		return
	}
	l := &k.chain[lvl]
	max := l.limit(k.st)
	if lvl == len(k.chain)-1 {
		for i := l.min; i < max; i += l.step {
			k.iterate(append(env, i))
		}
		return
	}
	for i := l.min; i < max; i += l.step {
		k.level(lvl+1, append(env, i))
	}
}

// iterate runs one body iteration. Every assign observes the
// pre-iteration state (the hardware computes all outputs from the same
// pipeline inputs); writes commit together at the end of the iteration.
// FIFO pops during evaluation still consume in assign order.
func (k *compute) iterate(env []int32) {
	k.iters++
	for i := range k.body {
		a := &k.body[i]
		a.live = a.cond == nil || a.cond(env).B
		if !a.live {
			continue
		}
		a.v = a.val(env)
		if a.addr != nil {
			a.at = a.addr(env)
		}
	}
	st := k.st
	for i := range k.body {
		a := &k.body[i]
		if !a.live {
			continue
		}
		switch a.kind {
		case WriteSRAM:
			sramWrite(a.sram, a.buf, a.at, a.v)
		case WriteReg:
			st.regs[a.slot] = a.v
		case ReduceReg:
			k.acc[a.acc] = a.combine(k.acc[a.acc], a.v)
		case ReduceSRAM:
			sramWrite(a.sram, a.buf, a.at, a.combine(a.buf[a.at], a.v))
		case PushFIFO:
			st.fifos[a.slot] = append(st.fifos[a.slot], a.v)
		}
	}
}

func sramWrite(s *SRAM, buf []pattern.Value, addr int, v pattern.Value) {
	if v.T != s.Elem {
		badSRAMWrite(s, v)
	}
	buf[addr] = v
}

//go:noinline
func badSRAMWrite(s *SRAM, v pattern.Value) {
	ifail("writing %v into SRAM %q of type %v", v.T, s.Name, s.Elem)
}

func dramRead(d *DRAMBuf, i int) pattern.Value {
	if i < 0 || i >= d.Len() {
		ifail("DRAM %q read at %d out of range [0,%d)", d.Name, i, d.Len())
	}
	if d.Elem == pattern.F32 {
		return pattern.VF(d.Data.F32Data()[i])
	}
	return pattern.VI(d.Data.I32Data()[i])
}

func dramWrite(d *DRAMBuf, i int, v pattern.Value) {
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

// transfer compiles a transfer leaf into one execution of its body.
func (lw *lowering) transfer(c *Controller) func(env []int32) *ExecEvent {
	x := c.Xfer
	st := lw.st
	off, sramOff := lw.index(x.Off), lw.index(x.SRAMOff)
	countSlot := -1
	if x.CountReg != nil {
		countSlot = st.regSlotOf(x.CountReg)
	}
	var sram, addrMem, dataMem []pattern.Value
	if x.SRAM != nil {
		sram = st.sram[st.sramSlotOf(x.SRAM)]
	}
	if x.AddrMem != nil {
		addrMem = st.sram[st.sramSlotOf(x.AddrMem)]
	}
	if x.DataMem != nil {
		dataMem = st.sram[st.sramSlotOf(x.DataMem)]
	}
	fifo, addrFIFO, dataFIFO := -1, -1, -1
	if x.FIFO != nil {
		fifo = st.fifoSlotOf(x.FIFO)
	}
	if x.AddrFIFO != nil {
		addrFIFO = st.fifoSlotOf(x.AddrFIFO)
	}
	if x.DataFIFO != nil {
		dataFIFO = st.fifoSlotOf(x.DataFIFO)
	}
	// addrAt reads the i-th element of a sparse transfer's address stream.
	addrAt := func(i int) int32 {
		if x.AddrMem != nil {
			if i >= x.AddrMem.Size {
				ifail("transfer %q reads past address SRAM %q at %d", c.Name, x.AddrMem.Name, i)
			}
			v := addrMem[i]
			if v.T != pattern.I32 {
				ifail("transfer %q address stream is not i32", c.Name)
			}
			return v.I
		}
		q := st.fifos[addrFIFO]
		if len(q) == 0 {
			ifail("transfer %q pops empty address FIFO %q", c.Name, x.AddrFIFO.Name)
		}
		st.fifos[addrFIFO] = q[1:]
		return q[0].I
	}
	write := c.Kind == StoreKind || c.Kind == ScatterKind
	return func(env []int32) *ExecEvent {
		o, so := 0, 0
		if off != nil {
			o = off(env)
		}
		if sramOff != nil {
			so = sramOff(env)
		}
		count := x.Count
		if countSlot >= 0 {
			count = int(st.regs[countSlot].I)
		}
		ev := &ExecEvent{Buf: x.DRAM, DenseOff: o, Write: write}
		switch c.Kind {
		case LoadKind:
			ev.DenseLen = x.Len
			for i := 0; i < x.Len; i++ {
				v := dramRead(x.DRAM, o+i)
				if x.SRAM != nil {
					if so+i >= x.SRAM.Size {
						ifail("load %q overflows SRAM %q at %d", c.Name, x.SRAM.Name, so+i)
					}
					sramWrite(x.SRAM, sram, so+i, v)
				} else {
					st.fifos[fifo] = append(st.fifos[fifo], v)
				}
			}
		case StoreKind:
			if x.FIFO != nil {
				q := st.fifos[fifo]
				if count > len(q) {
					ifail("store %q pops %d from FIFO %q holding %d", c.Name, count, x.FIFO.Name, len(q))
				}
				for i := 0; i < count; i++ {
					dramWrite(x.DRAM, o+i, q[i])
				}
				st.fifos[fifo] = q[count:]
				ev.DenseLen = count
				return ev
			}
			ev.DenseLen = x.Len
			for i := 0; i < x.Len; i++ {
				if so+i < 0 || so+i >= x.SRAM.Size {
					ifail("store %q reads past SRAM %q at %d", c.Name, x.SRAM.Name, so+i)
				}
				dramWrite(x.DRAM, o+i, sram[so+i])
			}
		case GatherKind:
			for i := 0; i < count; i++ {
				av := addrAt(i)
				ev.SparseAddrs = append(ev.SparseAddrs, av)
				v := dramRead(x.DRAM, o+int(av))
				if x.SRAM != nil {
					if i >= x.SRAM.Size {
						ifail("gather %q overflows SRAM %q at %d", c.Name, x.SRAM.Name, i)
					}
					sramWrite(x.SRAM, sram, i, v)
				} else {
					st.fifos[fifo] = append(st.fifos[fifo], v)
				}
			}
		case ScatterKind:
			for i := 0; i < count; i++ {
				av := addrAt(i)
				ev.SparseAddrs = append(ev.SparseAddrs, av)
				var v pattern.Value
				if x.DataMem != nil {
					if i >= x.DataMem.Size {
						ifail("scatter %q reads past SRAM %q at %d", c.Name, x.DataMem.Name, i)
					}
					v = dataMem[i]
				} else {
					q := st.fifos[dataFIFO]
					if len(q) == 0 {
						ifail("scatter %q pops empty FIFO %q", c.Name, x.DataFIFO.Name)
					}
					v, st.fifos[dataFIFO] = q[0], q[1:]
				}
				dramWrite(x.DRAM, o+int(av), v)
			}
		}
		return ev
	}
}
