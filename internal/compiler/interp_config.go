package compiler

import (
	"fmt"
	"strconv"
	"strings"

	"plasticine/internal/pattern"
)

// This file interprets generated stage programs (PCUConfig.Stages) the way
// the hardware would: one op per stage, operands from pipeline registers,
// input buses, counters and configuration constants. It exists to validate
// that the emitted configuration is a faithful, executable artefact — the
// tests run leaf bodies both through the DHDL interpreter and through their
// compiled stage programs and require identical results.

// LaneEnv supplies one lane's inputs to a stage program.
type LaneEnv struct {
	// Vec[i] is the value on vector input bus i for this lane.
	Vec []pattern.Value
	// Scal[i] is scalar input i (broadcast to all lanes).
	Scal []pattern.Value
	// Ctr[l] is the counter value at level l for this lane.
	Ctr []int32
	// Cross[name] provides values arriving from earlier partitions
	// (operand names of the form "xt<N>").
	Cross map[string]pattern.Value
}

func parseConst(s string) (pattern.Value, error) {
	body := strings.TrimPrefix(s, "#")
	if body == "" {
		return pattern.Value{}, fmt.Errorf("compiler: empty constant")
	}
	tag, rest := body[0], body[1:]
	switch tag {
	case 'b':
		if rest == "true" || rest == "false" {
			return pattern.VB(rest == "true"), nil
		}
	case 'i':
		if i, err := strconv.ParseInt(rest, 10, 32); err == nil {
			return pattern.VI(int32(i)), nil
		}
	case 'f':
		if f, err := strconv.ParseFloat(rest, 32); err == nil {
			return pattern.VF(float32(f)), nil
		}
	}
	return pattern.Value{}, fmt.Errorf("compiler: bad constant %q", s)
}

var unaryOps = map[string]pattern.Op{
	"not": pattern.Not, "neg": pattern.Neg, "abs": pattern.Abs,
	"exp": pattern.Exp, "log": pattern.Log, "sqrt": pattern.Sqrt, "rcp": pattern.Rcp,
}

var binaryOps = map[string]pattern.Op{
	"add": pattern.Add, "sub": pattern.Sub, "mul": pattern.Mul, "div": pattern.Div,
	"mod": pattern.Mod, "min": pattern.Min, "max": pattern.Max,
	"lt": pattern.Lt, "le": pattern.Le, "gt": pattern.Gt, "ge": pattern.Ge,
	"eq": pattern.Eq, "ne": pattern.Ne, "and": pattern.And, "or": pattern.Or,
}

// EvalStageProgram executes a stage program for a full vector of lanes and
// returns each lane's final register file plus the per-lane value of every
// reduce stage (already folded across lanes, broadcast back).
func EvalStageProgram(stages []StageConfig, lanes []LaneEnv) (out []map[string]pattern.Value, err error) {
	// Op semantics delegate to the pattern package; a malformed stage
	// program (e.g. a boolean fed to an arithmetic op) surfaces as an
	// error wrapping pattern.ErrEval instead of a panic.
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*pattern.EvalError); ok {
				out, err = nil, fmt.Errorf("compiler: stage program: %w", pe)
				return
			}
			panic(r)
		}
	}()
	regs := make([]map[string]pattern.Value, len(lanes))
	for i := range regs {
		regs[i] = map[string]pattern.Value{}
	}
	read := func(lane int, src string) (pattern.Value, error) {
		env := lanes[lane]
		switch {
		case strings.HasPrefix(src, "#"):
			return parseConst(src)
		case strings.HasPrefix(src, "r"):
			v, ok := regs[lane][src]
			if !ok {
				return pattern.Value{}, fmt.Errorf("compiler: read of unwritten register %s", src)
			}
			return v, nil
		case strings.HasPrefix(src, "v"):
			id, err := strconv.Atoi(src[1:])
			if err != nil || id >= len(env.Vec) {
				return pattern.Value{}, fmt.Errorf("compiler: bad vector operand %s", src)
			}
			return env.Vec[id], nil
		case strings.HasPrefix(src, "s"):
			id, err := strconv.Atoi(src[1:])
			if err != nil || id >= len(env.Scal) {
				return pattern.Value{}, fmt.Errorf("compiler: bad scalar operand %s", src)
			}
			return env.Scal[id], nil
		case strings.HasPrefix(src, "i"):
			l, err := strconv.Atoi(src[1:])
			if err != nil || l >= len(env.Ctr) {
				return pattern.Value{}, fmt.Errorf("compiler: bad counter operand %s", src)
			}
			return pattern.VI(env.Ctr[l]), nil
		case strings.HasPrefix(src, "x"):
			v, ok := env.Cross[src]
			if !ok {
				return pattern.Value{}, fmt.Errorf("compiler: missing cross-partition value %s", src)
			}
			return v, nil
		}
		return pattern.Value{}, fmt.Errorf("compiler: bad operand %s", src)
	}

	for _, st := range stages {
		switch {
		case strings.HasPrefix(st.Op, "reduce_"):
			opName := strings.TrimPrefix(st.Op, "reduce_")
			op, ok := binaryOps[opName]
			if !ok {
				return nil, fmt.Errorf("compiler: bad reduce op %q", st.Op)
			}
			// Optional second source is a lane-validity predicate.
			var acc pattern.Value
			first := true
			for lane := range lanes {
				v, err := read(lane, st.Srcs[0])
				if err != nil {
					return nil, err
				}
				if len(st.Srcs) > 1 {
					cond, err := read(lane, st.Srcs[1])
					if err != nil {
						return nil, err
					}
					if !cond.B {
						continue
					}
				}
				if first {
					acc, first = v, false
				} else {
					acc = pattern.EvalOp(op, acc, v)
				}
			}
			if first {
				// No lane contributed; use the type's zero.
				acc = pattern.VF(0)
			}
			for lane := range lanes {
				regs[lane][st.Dst] = acc
			}
		case st.Op == "mux":
			for lane := range lanes {
				c, err := read(lane, st.Srcs[0])
				if err != nil {
					return nil, err
				}
				pick := st.Srcs[2]
				if c.B {
					pick = st.Srcs[1]
				}
				v, err := read(lane, pick)
				if err != nil {
					return nil, err
				}
				regs[lane][st.Dst] = v
			}
		case st.Op == "i2f":
			for lane := range lanes {
				v, err := read(lane, st.Srcs[0])
				if err != nil {
					return nil, err
				}
				regs[lane][st.Dst] = pattern.VF(float32(v.I))
			}
		case st.Op == "f2i":
			for lane := range lanes {
				v, err := read(lane, st.Srcs[0])
				if err != nil {
					return nil, err
				}
				regs[lane][st.Dst] = pattern.VI(int32(v.F))
			}
		default:
			if op, ok := unaryOps[st.Op]; ok {
				for lane := range lanes {
					v, err := read(lane, st.Srcs[0])
					if err != nil {
						return nil, err
					}
					regs[lane][st.Dst] = pattern.EvalUn(op, v)
				}
				continue
			}
			op, ok := binaryOps[st.Op]
			if !ok {
				return nil, fmt.Errorf("compiler: unknown stage op %q", st.Op)
			}
			for lane := range lanes {
				x, err := read(lane, st.Srcs[0])
				if err != nil {
					return nil, err
				}
				y, err := read(lane, st.Srcs[1])
				if err != nil {
					return nil, err
				}
				regs[lane][st.Dst] = pattern.EvalOp(op, x, y)
			}
		}
	}
	return regs, nil
}
