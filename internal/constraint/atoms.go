package constraint

import (
	"strings"

	"repro/internal/idl"
	"repro/internal/ir"
)

// OpcodeByName maps an IDL opcode spelling ("store", "fmul", "branch", ...)
// to its IR opcode. Signature derivation in the similarity prescreen uses it
// to turn `is <opcode> instruction` atoms into histogram requirements.
func OpcodeByName(name string) (ir.Opcode, bool) { return opcodeFor(name) }

// opcodeFor maps IDL opcode spellings to IR opcodes.
func opcodeFor(name string) (ir.Opcode, bool) {
	switch name {
	case "store":
		return ir.OpStore, true
	case "load":
		return ir.OpLoad, true
	case "return":
		return ir.OpRet, true
	case "branch":
		return ir.OpBr, true
	case "add":
		return ir.OpAdd, true
	case "sub":
		return ir.OpSub, true
	case "mul":
		return ir.OpMul, true
	case "sdiv":
		return ir.OpSDiv, true
	case "srem":
		return ir.OpSRem, true
	case "fadd":
		return ir.OpFAdd, true
	case "fsub":
		return ir.OpFSub, true
	case "fmul":
		return ir.OpFMul, true
	case "fdiv":
		return ir.OpFDiv, true
	case "select":
		return ir.OpSelect, true
	case "gep":
		return ir.OpGEP, true
	case "icmp":
		return ir.OpICmp, true
	case "fcmp":
		return ir.OpFCmp, true
	case "phi":
		return ir.OpPhi, true
	case "sext":
		return ir.OpSExt, true
	case "zext":
		return ir.OpZExt, true
	case "trunc":
		return ir.OpTrunc, true
	case "sitofp":
		return ir.OpSIToFP, true
	case "fptosi":
		return ir.OpFPToSI, true
	case "fpext":
		return ir.OpFPExt, true
	case "fptrunc":
		return ir.OpFPTrunc, true
	case "call":
		return ir.OpCall, true
	case "alloca":
		return ir.OpAlloca, true
	}
	return ir.OpInvalid, false
}

// evalAtom evaluates an atomic predicate under the current assignment. When
// any referenced variable is unbound the result is triUnknown; list atomics
// only evaluate in the final phase.
func (s *Solver) evalAtom(a *atomSlots, final bool) tribool {
	t := a.atom
	var vals [maxAtomArgs]ir.Value
	for i, slot := range a.args[:a.nargs] {
		v, ok := s.value(slot, t.Args[i])
		if !ok {
			return triUnknown
		}
		vals[i] = v
	}
	switch t.Kind {
	case idl.AtomTypeIs:
		return boolToTri(s.evalTypeIs(t, vals[0]))
	case idl.AtomClassIs:
		return boolToTri(s.evalClassIs(t, vals[0]))
	case idl.AtomOpcodeIs:
		if !a.opOK {
			return triFalse
		}
		in, isInstr := vals[0].(*ir.Instruction)
		return boolToTri(isInstr && in.Op == a.op)
	case idl.AtomSameAs:
		same := sameValue(vals[0], vals[1])
		return boolToTri(same != t.Negated)
	case idl.AtomEdge:
		return boolToTri(s.evalEdge(t, vals[0], vals[1]))
	case idl.AtomArgOf:
		in, isInstr := vals[1].(*ir.Instruction)
		if !isInstr {
			return triFalse
		}
		op := in.OperandAt(t.ArgIndex)
		return boolToTri(op != nil && sameValue(op, vals[0]))
	case idl.AtomReachesPhi:
		return boolToTri(s.evalReachesPhi(vals[0], vals[1], vals[2]))
	case idl.AtomDominates:
		return boolToTri(s.evalDominates(t, vals[0], vals[1]))
	case idl.AtomPassesThrough:
		if !final {
			return triUnknown
		}
		return boolToTri(s.evalPassesThrough(t, vals[0], vals[1], vals[2]))
	case idl.AtomKilledBy:
		if !final {
			return triUnknown
		}
		lists := s.idx.lists[a.lists]
		return boolToTri(s.info.AllFlowKilledBy(
			s.expandList(lists[0]), s.expandList(lists[1]), s.expandList(lists[2])))
	case idl.AtomOperandsFrom:
		if !final {
			return triUnknown
		}
		return boolToTri(s.evalOperandsFrom(vals[0], s.idx.lists[a.lists][0], vals[1]))
	case idl.AtomNoOpcodeBelow:
		return boolToTri(s.evalNoOpcodeBelow(a, vals[0]))
	}
	return triFalse
}

func boolToTri(b bool) tribool {
	if b {
		return triTrue
	}
	return triFalse
}

func (s *Solver) evalTypeIs(t *NAtom, v ir.Value) bool {
	ty := v.Type()
	if ty == nil {
		return false
	}
	okType := false
	switch t.TypeName {
	case "integer":
		okType = ty.IsInteger()
	case "float":
		okType = ty.IsFloat()
	case "pointer":
		okType = ty.IsPointer()
	}
	if !okType {
		return false
	}
	if t.ConstantZero {
		c, isConst := v.(*ir.Const)
		return isConst && c.IsZero()
	}
	return true
}

func (s *Solver) evalClassIs(t *NAtom, v ir.Value) bool {
	switch t.ClassName {
	case "constant":
		_, ok := v.(*ir.Const)
		return ok
	case "argument":
		_, ok := v.(*ir.Argument)
		return ok
	case "instruction":
		_, ok := v.(*ir.Instruction)
		return ok
	case "compiletime":
		// Compile time values: constants and function arguments, which are
		// fixed for the duration of any detected region.
		switch v.(type) {
		case *ir.Const, *ir.Argument:
			return true
		}
		return false
	case "unused":
		return len(s.usersOf(v)) == 0
	}
	return false
}

func (s *Solver) evalEdge(t *NAtom, x, y ir.Value) bool {
	switch t.Edge {
	case idl.EdgeDataFlow:
		yi, ok := y.(*ir.Instruction)
		if !ok {
			return false
		}
		for _, op := range yi.Ops {
			if sameValue(op, x) {
				return true
			}
		}
		return false
	case idl.EdgeControlFlow:
		xi, ok1 := x.(*ir.Instruction)
		yi, ok2 := y.(*ir.Instruction)
		return ok1 && ok2 && s.info.HasControlFlowTo(xi, yi)
	case idl.EdgeControlDominance:
		xi, ok1 := x.(*ir.Instruction)
		yi, ok2 := y.(*ir.Instruction)
		return ok1 && ok2 && s.info.Dominates(xi, yi)
	case idl.EdgeDependence:
		xi, ok1 := x.(*ir.Instruction)
		yi, ok2 := y.(*ir.Instruction)
		return ok1 && ok2 && s.info.HasDependenceEdgeTo(xi, yi)
	}
	return false
}

func (s *Solver) evalReachesPhi(v, phiV, fromV ir.Value) bool {
	phi, ok := phiV.(*ir.Instruction)
	if !ok || phi.Op != ir.OpPhi {
		return false
	}
	from, ok := fromV.(*ir.Instruction)
	if !ok || from.Op != ir.OpBr {
		return false
	}
	for i, ib := range phi.Incoming {
		if ib.Terminator() == from && sameValue(phi.Ops[i], v) {
			return true
		}
	}
	return false
}

func (s *Solver) evalDominates(t *NAtom, x, y ir.Value) bool {
	xi, ok1 := x.(*ir.Instruction)
	yi, ok2 := y.(*ir.Instruction)
	var res bool
	switch {
	case t.Flow == idl.FlowData:
		res = s.info.DataFlowDominates(x, y)
		if t.Strict {
			res = res && !sameValue(x, y)
		}
	case t.Post:
		if !ok1 || !ok2 {
			res = false
		} else if t.Strict {
			res = s.info.StrictlyPostDominates(xi, yi)
		} else {
			res = s.info.PostDominates(xi, yi)
		}
	default:
		if !ok1 || !ok2 {
			res = false
		} else if t.Strict {
			res = s.info.StrictlyDominates(xi, yi)
		} else {
			res = s.info.Dominates(xi, yi)
		}
	}
	if t.Negated {
		return !res
	}
	return res
}

func (s *Solver) evalPassesThrough(t *NAtom, from, to, via ir.Value) bool {
	if t.Flow == idl.FlowData {
		return s.info.AllDataFlowPassesThrough(from, to, via)
	}
	fi, ok1 := from.(*ir.Instruction)
	ti, ok2 := to.(*ir.Instruction)
	vi, ok3 := via.(*ir.Instruction)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return s.info.AllControlFlowPassesThrough(fi, ti, vi)
}

// expandList resolves a varlist to values. A name bound directly resolves to
// its value; any other name expands to every bound variable named
// name[k]... (array expansion for collected variables): the matching slots
// in slot order, then the matching collect instances in binding order.
func (s *Solver) expandList(refs []listSlot) []ir.Value {
	var out []ir.Value
	for _, r := range refs {
		if v, ok := s.value(r.slot, r.name); ok {
			out = append(out, v)
			continue
		}
		for _, vid := range r.under {
			if s.bound.has(int(vid)) {
				out = append(out, s.vals[vid])
			}
		}
		for _, b := range s.binds {
			if len(b.name) > len(r.prefix) && strings.HasPrefix(b.name, r.prefix) {
				out = append(out, b.val)
			}
		}
	}
	return out
}

// evalNoOpcodeBelow checks that the region dominated by `begin` contains no
// instruction of the atom's opcode (begin itself included).
func (s *Solver) evalNoOpcodeBelow(a *atomSlots, begin ir.Value) bool {
	if !a.opOK {
		return false
	}
	bi, isInstr := begin.(*ir.Instruction)
	if !isInstr {
		return false
	}
	for _, in := range s.info.Instrs {
		if in.Op == a.op && s.info.Dominates(bi, in) {
			return false
		}
	}
	return true
}

// evalOperandsFrom implements the kernel-function data-flow closure: walking
// backwards over operands from v, every path must terminate at a member of
// the list, a constant, an argument, or a value defined outside the region
// that begins at `begin` (a loop-invariant input). Inside the region only
// pure computation is allowed: loads, stores and calls fail the check.
func (s *Solver) evalOperandsFrom(v ir.Value, list []listSlot, begin ir.Value) bool {
	allowed := map[ir.Value]bool{}
	for _, av := range s.expandList(list) {
		allowed[av] = true
	}
	beginInstr, _ := begin.(*ir.Instruction)

	seen := map[ir.Value]bool{v: true}
	stack := []ir.Value{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if allowed[cur] {
			continue
		}
		in, isInstr := cur.(*ir.Instruction)
		if !isInstr {
			continue // constants and arguments are always permitted inputs
		}
		if cur != v && beginInstr != nil && !s.info.StrictlyDominates(beginInstr, in) {
			continue // defined outside the region: loop-invariant input
		}
		switch in.Op {
		case ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpAlloca:
			return false // impure inside the kernel region
		}
		for _, op := range in.Ops {
			if !seen[op] {
				seen[op] = true
				stack = append(stack, op)
			}
		}
	}
	return true
}
