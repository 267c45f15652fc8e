package constraint

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/idl"
	"repro/internal/ir"
)

// canonicalKey renders a solution as a stable string: every name with its
// value, constants qualified by type. Two solutions are the same exactly
// when their keys are equal — the equality the solver's dedup implements.
func canonicalKey(sol Solution) string {
	names := make([]string, 0, len(sol))
	for n := range sol {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		v := sol[n]
		if c, ok := v.(*ir.Const); ok {
			b.WriteString(c.Ty.String())
			b.WriteByte(':')
		}
		b.WriteString(v.Operand())
		b.WriteByte(';')
	}
	return b.String()
}

// atomNode returns the id of the first atom of the given kind in the
// solver's index.
func atomNode(t *testing.T, s *Solver, kind idl.AtomicKind) int {
	t.Helper()
	for id, k := range s.idx.kind {
		if k == kindAtom && s.idx.atoms[s.idx.ref[id]].atom.Kind == kind {
			return id
		}
	}
	t.Fatalf("no atom of kind %v", kind)
	return -1
}

// TestEvalAtomAndBindDoNotAllocate pins the dense working state: evaluating
// a fully bound atom reads its arguments straight from slots, and binding or
// unbinding a variable touches only the slot, the bound bitset and the
// node cache.
func TestEvalAtomAndBindDoNotAllocate(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, `int f(int a, int b, int c) { return a*b + a*c; }`, "f")
	s := NewSolver(prob, info)
	sols := s.Solve()
	if len(sols) == 0 {
		t.Fatal("figure 2 kernel has no factorization opportunity")
	}
	for name, v := range sols[0] {
		s.bind(s.idx.varID[name], v)
	}

	for _, kind := range []idl.AtomicKind{idl.AtomOpcodeIs, idl.AtomArgOf} {
		id := atomNode(t, s, kind)
		a := &s.idx.atoms[s.idx.ref[id]]
		if got := s.evalAtom(a, true); got != triTrue {
			t.Fatalf("%v atom on a solution: %v, want true", kind, got)
		}
		if n := testing.AllocsPerRun(100, func() { s.evalAtom(a, false) }); n != 0 {
			t.Errorf("evalAtom(%v) allocates %v times per call, want 0", kind, n)
		}
	}

	vid := s.idx.varID["sum"]
	val := sols[0]["sum"]
	s.unbind(vid)
	if n := testing.AllocsPerRun(100, func() { s.bind(vid, val); s.unbind(vid) }); n != 0 {
		t.Errorf("bind/unbind allocates %v times per pair, want 0", n)
	}
}

const expandListIDL = `
Constraint Expand
( {x[0]} is an instruction and
  {x[1]} is an instruction and
  {out} is an instruction and
  all operands of {out} come from {x} below {top} )
End
`

// TestExpandListDeterministic pins varlist expansion order: bound slots
// named x[k] in slot order, then collect instances x[k]... in binding
// order, giving the same slice on every call.
func TestExpandListDeterministic(t *testing.T) {
	prob := mustProblem(t, expandListIDL, "Expand", nil)
	info := analyzeC(t, bigKernelSource(4), "kernel")
	s := NewSolver(prob, info)
	if len(s.domain) < 12 {
		t.Fatalf("domain has %d values, need 12", len(s.domain))
	}
	list := s.idx.lists[s.idx.atoms[s.idx.ref[atomNode(t, s, idl.AtomOperandsFrom)]].lists][0]

	s.bind(s.idx.varID["x[1]"], s.domain[1])
	s.bind(s.idx.varID["x[0]"], s.domain[0])
	want := []ir.Value{s.domain[0], s.domain[1]}
	for k := 2; k < 12; k++ {
		s.setBinding(binding{fmt.Sprintf("x[%d].value", k), s.domain[k]})
		want = append(want, s.domain[k])
	}
	s.setBinding(binding{"xs[0]", s.domain[0]}) // not an x[k] name

	for i := 0; i < 100; i++ {
		if got := s.expandList(list); !slices.Equal(got, want) {
			t.Fatalf("expansion %d: got %v, want %v", i, got, want)
		}
	}
}

// TestCandidatesEmptyDisjunction pins how subtrees that do not mention the
// variable are skipped: they yield no candidate set, except that an empty
// disjunction (a forsome over an empty range) bounds the variable to the
// empty set, so a conjunction holding one offers no candidates at all.
func TestCandidatesEmptyDisjunction(t *testing.T) {
	prob := mustProblem(t, `
Constraint EmptyRange
( {v} is load instruction and
  ( {w} is fadd instruction ) for some k = 1 .. 0 )
End
`, "EmptyRange", nil)
	s := NewSolver(prob, analyzeC(t, edgeShapesC, "vadd"))
	if len(s.byOpcode[ir.OpLoad]) == 0 {
		t.Fatal("kernel has no loads; the test needs a non-empty alternative set")
	}
	set, bounded := s.candidates(s.idx.root, s.idx.varID["v"])
	if !bounded || len(set) != 0 {
		t.Errorf("candidates(v) = %d values, bounded %v; want the empty bounded set", len(set), bounded)
	}
}
