package constraint

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/idl"
	"repro/internal/ir"
)

// Solution assigns IR values to the flat variable names of a problem.
type Solution map[string]ir.Value

// String renders a solution in a stable order (like the paper's Fig. 5).
func (s Solution) String() string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %q : %s\n", n, s[n].Operand())
	}
	b.WriteString("}")
	return b.String()
}

// tribool is the three-valued logic the partial evaluator uses.
type tribool int

const (
	// triStale marks a cached node value invalidated by a variable change
	// since it was computed (the zero value: nothing is evaluated yet).
	triStale tribool = iota
	triFalse
	triTrue
	triUnknown
)

// nodeKind is a formula node's type, precomputed so evaluation dispatches
// without an interface type switch.
type nodeKind uint8

const (
	kindAnd nodeKind = iota
	kindOr
	kindAtom
	kindCollect
)

// probIndex is the per-problem static structure that makes node evaluation
// incremental and the working state dense: nodes are numbered, variables are
// numbered into slots, each node knows the set of slots occurring in its
// subtree, each slot knows the nodes it can invalidate, and every atom's
// variable references are resolved to slots. It is built once per Problem
// and shared by all solvers.
type probIndex struct {
	kind []nodeKind // id -> node type
	ref  []int32    // id -> index into atoms or collects, by kind
	kids [][]int    // id -> child node ids
	root int

	vars     []string // slot -> variable name
	varID    map[string]int
	varNodes [][]int  // slot -> ids of nodes whose subtree mentions it
	varIn    []bitset // node id -> slots mentioned in its subtree

	// emptyBound is the candidate set a subtree yields for a variable it
	// does not mention: no set at all, except where a disjunction with no
	// branches (an empty forsome range) bounds it to the empty set.
	emptyBound []bool
	atoms      []atomSlots
	lists      [][][]listSlot // varlists of the atoms that have them
	collects   []*collectLink // nil where the body cannot be instantiated
}

// maxAtomArgs is the largest variable arity of an IDL atomic; flattened
// atoms copy the parser's arity.
const maxAtomArgs = 3

// atomSlots is an NAtom compiled against one probIndex: every argument and
// list reference resolved to a slot, and the opcode spelling resolved.
type atomSlots struct {
	atom *NAtom
	// args holds a slot per NAtom.Args entry; -1 when the name has no slot.
	args  [maxAtomArgs]int32
	nargs uint8
	opOK  bool
	op    ir.Opcode
	// lists indexes probIndex.lists; -1 when the atom has no varlists.
	lists int32
}

// listSlot is one compiled varlist member. A member bound directly resolves
// to its value; otherwise it expands to every bound variable named
// name[k]... — the slots among those are found statically, collect
// instances by prefix at evaluation time.
type listSlot struct {
	name   string
	slot   int32
	prefix string
	under  []int32
}

// collectLink connects a collect node to the solver variables around it.
type collectLink struct {
	c    *NCollect
	info *collectInfo
	// outer maps each body slot to the enclosing index's slot (-1: none).
	outer []int32
	// rest lists the enclosing slots the body has no slot for; the body
	// sees them, like the enclosing bindings, as bindings of its own (read
	// by varlist expansion and nested collects).
	rest []int32
}

// collectInfo caches everything derivable from a collect body's prototype
// instance: its variable list, its own sub-index and its instances' names.
type collectInfo struct {
	// protoVars is the body's slot list: its atom arguments in
	// first-appearance order (the first nArgs entries), then the names its
	// varlists reference.
	protoVars []string
	nArgs     int
	idx       *probIndex

	// mu guards insts, the per-index instance variable names (nil when the
	// instance cannot be flattened).
	mu    sync.Mutex
	insts [][]string
}

// index returns the problem's static index, building it on first use.
// Solvers for the same problem are routinely constructed from many
// goroutines; the index is stored on the problem itself, so it is freed
// together with it.
func (p *Problem) index() *probIndex {
	p.idxOnce.Do(func() { p.idx = buildIndex(p.Root, p.Vars) })
	return p.idx
}

// Prepare eagerly builds the static node index of a problem (and, via the
// index walk, the flattened collect prototypes) so that the first solve does
// not pay for it. It is idempotent and safe to call from multiple goroutines.
func Prepare(p *Problem) {
	p.index()
}

func buildIndex(root Node, vars []string) *probIndex {
	idx := &probIndex{vars: vars, varID: map[string]int{}}
	for i, v := range vars {
		idx.varID[v] = i
	}
	nvars := len(vars)
	slotOf := func(name string) int32 {
		if vid, ok := idx.varID[name]; ok {
			return int32(vid)
		}
		return -1
	}

	var walk func(n Node) (int, bitset)
	walk = func(n Node) (int, bitset) {
		id := len(idx.kind)
		idx.kind = append(idx.kind, kindAnd)
		idx.kids = append(idx.kids, nil)
		idx.varIn = append(idx.varIn, nil)
		idx.ref = append(idx.ref, -1)
		idx.emptyBound = append(idx.emptyBound, false)
		mask := newBitset(nvars)
		switch t := n.(type) {
		case *NAnd:
			var kids []int
			empty := false
			for _, k := range t.Kids {
				kid, km := walk(k)
				kids = append(kids, kid)
				mask.or(km)
				empty = empty || idx.emptyBound[kid]
			}
			idx.kids[id] = kids
			idx.emptyBound[id] = empty
		case *NOr:
			idx.kind[id] = kindOr
			var kids []int
			empty := true
			for _, k := range t.Kids {
				kid, km := walk(k)
				kids = append(kids, kid)
				mask.or(km)
				empty = empty && idx.emptyBound[kid]
			}
			idx.kids[id] = kids
			idx.emptyBound[id] = empty
		case *NAtom:
			idx.kind[id] = kindAtom
			a := atomSlots{atom: t, nargs: uint8(len(t.Args))}
			a.op, a.opOK = opcodeFor(t.Opcode)
			for i, name := range t.Args {
				slot := slotOf(name)
				a.args[i] = slot
				if slot >= 0 {
					mask.set(int(slot))
				}
			}
			a.lists = -1
			if len(t.Lists) > 0 {
				a.lists = int32(len(idx.lists))
				var lists [][]listSlot
				for _, list := range t.Lists {
					var refs []listSlot
					for _, r := range list {
						ls := listSlot{name: r.Name, slot: slotOf(r.Name), prefix: r.Name + "["}
						if ls.slot >= 0 {
							mask.set(int(ls.slot))
						}
						for vid, v := range vars {
							if len(v) > len(ls.prefix) && strings.HasPrefix(v, ls.prefix) {
								ls.under = append(ls.under, int32(vid))
							}
						}
						refs = append(refs, ls)
					}
					lists = append(lists, refs)
				}
				idx.lists = append(idx.lists, lists)
			}
			idx.ref[id] = int32(len(idx.atoms))
			idx.atoms = append(idx.atoms, a)
		case *NCollect:
			idx.kind[id] = kindCollect
			idx.ref[id] = int32(len(idx.collects))
			idx.collects = append(idx.collects, nil)
			if ci := t.collectInfo(); ci != nil {
				link := &collectLink{c: t, info: ci}
				for _, v := range ci.protoVars {
					slot := slotOf(v)
					link.outer = append(link.outer, slot)
					if slot >= 0 {
						mask.set(int(slot))
					}
				}
				for vid, v := range vars {
					if _, inBody := ci.idx.varID[v]; !inBody {
						link.rest = append(link.rest, int32(vid))
					}
				}
				idx.collects[idx.ref[id]] = link
			}
		}
		idx.varIn[id] = mask
		return id, mask
	}
	rootID, _ := walk(root)
	idx.root = rootID

	idx.varNodes = make([][]int, nvars)
	for id, mask := range idx.varIn {
		for vid := range nvars {
			if mask.has(vid) {
				idx.varNodes[vid] = append(idx.varNodes[vid], id)
			}
		}
	}
	return idx
}

// bitset is a dense set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (i & 63) }

func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// collectInfo flattens the prototype instance of a collect body once and
// keeps its variable list and sub-index on the collect node for reuse by
// every solver. It is nil when the prototype cannot be instantiated.
func (c *NCollect) collectInfo() *collectInfo {
	c.infoOnce.Do(func() {
		proto, err := c.Instantiate(0)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		var vars []string
		collectVars(proto, seen, &vars)
		ci := &collectInfo{nArgs: len(vars)}
		// List references inside the body can also name outer variables.
		for _, at := range gatherAtoms(proto) {
			for _, list := range at.Lists {
				for _, r := range list {
					if !seen[r.Name] {
						seen[r.Name] = true
						vars = append(vars, r.Name)
					}
				}
			}
		}
		ci.protoVars = vars
		ci.idx = buildIndex(proto, vars)
		c.info = ci
	})
	return c.info
}

// instance returns the variable names of the j-th instance of the collect
// body, positionally aligned with the prototype's first nArgs slots.
func (ci *collectInfo) instance(c *NCollect, j int) ([]string, bool) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	for len(ci.insts) <= j {
		var names []string
		if inst, err := c.Instantiate(len(ci.insts)); err == nil {
			names = []string{}
			collectVars(inst, map[string]bool{}, &names)
		}
		ci.insts = append(ci.insts, names)
	}
	return ci.insts[j], ci.insts[j] != nil
}

// fnState is the per-function context a solver shares with the sub-solvers
// of its collects.
type fnState struct {
	info *analysis.Info

	// domain is every value a variable may take: instructions, arguments
	// and constants appearing as operands.
	domain []ir.Value

	// byOpcode indexes the instructions for candidate generation.
	byOpcode map[ir.Opcode][]ir.Value

	// domainSets caches the domain filtered by each unary type or class
	// atom.
	domainSets map[*NAtom][]ir.Value

	// ids interns values for memo and dedup keys.
	ids valueIDs
}

// Solver searches one analysed function for all solutions of a problem.
type Solver struct {
	*fnState
	idx *probIndex

	// The assignment: vals[slot] is meaningful where bit slot of bound is
	// set. order is the search order over slots.
	vals  []ir.Value
	bound bitset
	order []int

	// binds holds the values of names without a slot — collect instances
	// such as x[3] — in binding order, one entry per name. Entries before
	// base are the enclosing solver's, visible to a collect body.
	binds []binding
	base  int

	// node evaluation cache (invalidated per variable via idx.varNodes).
	nodeVal []tribool

	found   []found
	solKeys map[string]struct{}

	// collectMemo caches resolved collects keyed by the collect's node id
	// and the values of its body's outer variables. subs holds one reusable
	// sub-solver per collect node.
	collectMemo map[string]*collectResult
	subs        map[int]*Solver

	// Scratch storage reused across calls.
	keyBuf  []byte
	ctxBuf  []ir.Value
	saved   []slotValue
	sortBuf []binding
	seen    []map[ir.Value]bool

	cancelled bool

	// lateBinds counts variable bindings performed after cancellation was
	// observed — wasted unwinding work. The per-candidate cancel check in
	// step keeps it at zero.
	lateBinds int

	// Steps counts backtracking search steps (the paper's compile-time cost
	// metric).
	Steps int

	// Limit bounds the number of solutions collected (0 = unlimited).
	Limit int

	// NaiveCandidates disables atom-driven candidate generation: every
	// variable enumerates the full domain (the ablation of §4.4's search
	// space pruning; see bench_test.go).
	NaiveCandidates bool

	// Cancel, when non-nil, aborts the backtracking search as soon as the
	// channel is closed: Solve returns whatever it has found so far and
	// Cancelled reports true. An aborted search is incomplete — callers must
	// not treat (or memoize) its result as a full enumeration.
	Cancel <-chan struct{}
}

type collectResult struct {
	ok       bool
	bindings []binding
}

type binding struct {
	name string
	val  ir.Value
}

type slotValue struct {
	slot int
	val  ir.Value
}

// found is one accepted solution in slot form: the slot values (nil where
// unbound) and the solver's own bindings.
type found struct {
	vals  []ir.Value
	binds []binding
}

// valueIDs numbers values from 1 for use in byte keys. Constants number by
// type and payload, so equal constants at different operand sites share an
// ID; every other value numbers by identity.
type valueIDs struct {
	byValue map[ir.Value]uint32
	byConst map[string]uint32
}

func (v *valueIDs) id(x ir.Value) uint32 {
	if id, ok := v.byValue[x]; ok {
		return id
	}
	if v.byValue == nil {
		v.byValue = map[ir.Value]uint32{}
		v.byConst = map[string]uint32{}
	}
	id := uint32(len(v.byValue)) + 1
	if c, ok := x.(*ir.Const); ok {
		k := c.Ty.String() + ":" + c.Operand()
		if prev, ok := v.byConst[k]; ok {
			id = prev
		} else {
			v.byConst[k] = id
		}
	}
	v.byValue[x] = id
	return id
}

// NewSolver prepares a solver for one function.
func NewSolver(prob *Problem, info *analysis.Info) *Solver {
	s := &Solver{fnState: &fnState{info: info, domainSets: map[*NAtom][]ir.Value{}}}
	s.domain = make([]ir.Value, 0, len(info.Fn.Args)+len(info.Instrs))
	for _, arg := range info.Fn.Args {
		s.domain = append(s.domain, arg)
	}
	seenConst := map[string]bool{}
	for _, in := range info.Instrs {
		if in.HasResult() {
			s.domain = append(s.domain, in)
		}
		for _, op := range in.Ops {
			if c, ok := op.(*ir.Const); ok {
				key := c.Ty.String() + ":" + c.Operand()
				if !seenConst[key] {
					seenConst[key] = true
					s.domain = append(s.domain, c)
				}
			}
		}
	}
	// Terminators and stores are values too for constraint purposes (they
	// can be bound even though they produce no SSA result).
	for _, in := range s.info.Instrs {
		if !in.HasResult() {
			s.domain = append(s.domain, in)
		}
	}
	s.byOpcode = map[ir.Opcode][]ir.Value{}
	for _, in := range info.Instrs {
		s.byOpcode[in.Op] = append(s.byOpcode[in.Op], in)
	}
	s.attachIndex(prob.index())
	s.order = make([]int, len(prob.Vars))
	for k, v := range prob.Vars {
		s.order[k] = s.idx.varID[v]
	}
	return s
}

// attachIndex installs the static index and sizes the working state.
func (s *Solver) attachIndex(idx *probIndex) {
	s.idx = idx
	s.vals = make([]ir.Value, len(idx.vars))
	s.bound = newBitset(len(idx.vars))
	s.nodeVal = make([]tribool, len(idx.kind))
	s.solKeys = map[string]struct{}{}
}

// bind assigns a variable and invalidates affected node caches.
func (s *Solver) bind(vid int, val ir.Value) {
	if s.cancelled {
		// Search effort spent after the abort was observed. The per-candidate
		// cancel checks keep this at zero; tracked so tests can pin it.
		s.lateBinds++
	}
	s.vals[vid] = val
	s.bound.set(vid)
	for _, id := range s.idx.varNodes[vid] {
		s.nodeVal[id] = triStale
	}
}

// unbind removes a variable assignment and invalidates node caches.
func (s *Solver) unbind(vid int) {
	s.vals[vid] = nil
	s.bound.unset(vid)
	for _, id := range s.idx.varNodes[vid] {
		s.nodeVal[id] = triStale
	}
}

// value returns the current value of a name: its slot's when it has one,
// else its collect binding's.
func (s *Solver) value(slot int32, name string) (ir.Value, bool) {
	if slot >= 0 {
		return s.vals[slot], s.bound.has(int(slot))
	}
	for i := len(s.binds) - 1; i >= 0; i-- {
		if s.binds[i].name == name {
			return s.binds[i].val, true
		}
	}
	return nil, false
}

// setBinding records a collect instance value; a name bound twice keeps the
// later value.
func (s *Solver) setBinding(b binding) {
	s.binds = upsert(s.binds, s.base, b)
}

// upsert sets b in list, overwriting an entry of the same name at or after
// from, or appending.
func upsert(list []binding, from int, b binding) []binding {
	for i := from; i < len(list); i++ {
		if list[i].name == b.name {
			list[i].val = b.val
			return list
		}
	}
	return append(list, b)
}

// Solve enumerates all solutions with one sequential backtracking search.
func (s *Solver) Solve() []Solution {
	s.search()
	var sols []Solution
	for _, f := range s.found {
		sol := make(Solution, len(f.vals)+len(f.binds))
		for vid, v := range f.vals {
			if v != nil {
				sol[s.idx.vars[vid]] = v
			}
		}
		for _, b := range f.binds {
			sol[b.name] = b.val
		}
		sols = append(sols, sol)
	}
	return sols
}

// search runs the backtracking search, leaving accepted solutions in found.
func (s *Solver) search() {
	s.found = s.found[:0]
	clear(s.solKeys)
	s.step(0)
}

// Cancelled reports whether the last Solve was aborted through Cancel before
// exhausting the search space.
func (s *Solver) Cancelled() bool { return s.cancelled }

func (s *Solver) limitReached() bool {
	return s.Limit > 0 && len(s.found) >= s.Limit
}

func (s *Solver) step(k int) {
	if s.cancelled || s.limitReached() {
		return
	}
	s.Steps++
	// Poll Cancel every 64 steps: cheap enough to be invisible on the hot
	// path, frequent enough to shed a multi-millisecond solve promptly.
	if s.Cancel != nil && s.Steps&63 == 0 {
		select {
		case <-s.Cancel:
			s.cancelled = true
			return
		default:
		}
	}
	if k == len(s.order) {
		s.finish()
		return
	}
	vid := s.order[k]
	if s.bound.has(vid) {
		// Bound through an alias earlier; just verify and continue.
		if s.evalNode(s.idx.root) != triFalse {
			s.step(k + 1)
		}
		return
	}
	if !s.relevantID(s.idx.root, vid) {
		// Every occurrence of v lies under an already-satisfied
		// disjunction: its value cannot affect the formula. Bind the
		// canonical marker so equivalent solutions collapse.
		s.bind(vid, Unconstrained)
		s.step(k + 1)
		s.unbind(vid)
		return
	}
	for _, c := range s.candidateList(vid) {
		s.bind(vid, c)
		if s.evalNode(s.idx.root) != triFalse {
			s.step(k + 1)
		}
		s.unbind(vid)
		// Observe the flag set by the periodic poll deeper in the recursion:
		// without this, a cancel detected at depth d keeps enumerating
		// siblings through bind/eval work at every frame on the way out.
		if s.cancelled || s.limitReached() {
			return
		}
	}
}

// candidateList returns every value variable vid must be drawn from under
// the current assignment: the atom-derived candidate set when it is bounded,
// the full domain otherwise (or always, under the NaiveCandidates ablation).
func (s *Solver) candidateList(vid int) []ir.Value {
	if !s.NaiveCandidates {
		if set, bounded := s.candidates(s.idx.root, vid); bounded {
			return set
		}
	}
	return s.domain
}

// evalNode is the cached three-valued evaluation of a formula node under the
// current partial assignment. Collects never prune the partial search; they
// are resolved in evalFinal.
func (s *Solver) evalNode(id int) tribool {
	if v := s.nodeVal[id]; v != triStale {
		return v
	}
	var out tribool
	switch s.idx.kind[id] {
	case kindAnd:
		out = triTrue
		for _, kid := range s.idx.kids[id] {
			v := s.nodeVal[kid]
			if v == triStale {
				v = s.evalNode(kid)
			}
			if v == triFalse {
				out = triFalse
				break
			}
			if v == triUnknown {
				out = triUnknown
			}
		}
	case kindOr:
		out = triFalse
		for _, kid := range s.idx.kids[id] {
			v := s.nodeVal[kid]
			if v == triStale {
				v = s.evalNode(kid)
			}
			if v == triTrue {
				out = triTrue
				break
			}
			if v == triUnknown {
				out = triUnknown
			}
		}
	case kindAtom:
		out = s.evalAtom(&s.idx.atoms[s.idx.ref[id]], false)
	case kindCollect:
		out = triUnknown
	}
	s.nodeVal[id] = out
	return out
}

// relevantID reports whether variable vid can still influence the truth of
// the formula under the current partial assignment. Three-valued evaluation
// is monotone in assignments — decided nodes (true or false) stay decided —
// so only Unknown regions of the formula can be affected by the variable.
func (s *Solver) relevantID(id int, vid int) bool {
	if !s.idx.varIn[id].has(vid) {
		return false
	}
	if s.evalNode(id) != triUnknown {
		return false
	}
	switch s.idx.kind[id] {
	case kindAnd, kindOr:
		for _, kid := range s.idx.kids[id] {
			if s.relevantID(kid, vid) {
				return true
			}
		}
		return false
	}
	return true
}

// finish validates the full assignment including collects, then records the
// solution. Collect bindings are installed while the remainder of the
// formula evaluates, so list atomics following a collect (e.g. a kernel over
// collected reads) can see them.
func (s *Solver) finish() {
	// Canonicalize: variables whose assignment no longer influences the
	// formula (their occurrences all sit in decided subformulas) are reset
	// to the Unconstrained marker so equivalent solutions collapse. The
	// original values are restored before returning to the search.
	saved := s.saved[:0]
	for _, vid := range s.order {
		if !s.bound.has(vid) || s.vals[vid] == Unconstrained {
			continue
		}
		val := s.vals[vid]
		s.unbind(vid)
		if s.relevantID(s.idx.root, vid) {
			s.bind(vid, val)
		} else {
			saved = append(saved, slotValue{vid, val})
			s.bind(vid, Unconstrained)
		}
	}
	if s.evalFinal(s.idx.root) == triTrue {
		s.record()
	}
	s.binds = s.binds[:s.base]
	for _, sv := range saved {
		s.bind(sv.slot, sv.val)
	}
	s.saved = saved
}

// record keeps the current assignment as a solution unless an identical one
// (same value for every name, constants compared by type and payload) was
// already found through an overlapping disjunction.
func (s *Solver) record() {
	key := s.keyBuf[:0]
	for vid, v := range s.vals {
		var id uint32
		if s.bound.has(vid) {
			id = s.ids.id(v)
		}
		key = binary.LittleEndian.AppendUint32(key, id)
	}
	own := append(s.sortBuf[:0], s.binds[s.base:]...)
	slices.SortFunc(own, func(a, b binding) int { return strings.Compare(a.name, b.name) })
	for _, b := range own {
		key = append(key, b.name...)
		key = append(key, 0)
		key = binary.LittleEndian.AppendUint32(key, s.ids.id(b.val))
	}
	s.keyBuf, s.sortBuf = key, own
	if _, dup := s.solKeys[string(key)]; dup {
		return
	}
	s.solKeys[string(key)] = struct{}{}
	vals := make([]ir.Value, len(s.vals))
	for vid, v := range s.vals {
		if s.bound.has(vid) {
			vals[vid] = v
		}
	}
	s.found = append(s.found, found{vals: vals, binds: slices.Clone(s.binds[s.base:])})
}

// sameValue compares values; constants compare by type and payload.
func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*ir.Const)
	cb, ok2 := b.(*ir.Const)
	if !ok1 || !ok2 || !ca.Ty.Equal(cb.Ty) {
		return false
	}
	return ca.Null == cb.Null && ca.IntVal == cb.IntVal && ca.FloatVal == cb.FloatVal
}

// evalFinal evaluates with all regular variables assigned, resolving
// collect nodes and installing their instance bindings.
func (s *Solver) evalFinal(id int) tribool {
	switch s.idx.kind[id] {
	case kindAnd:
		for _, kid := range s.idx.kids[id] {
			if s.evalFinal(kid) != triTrue {
				return triFalse
			}
		}
		return triTrue
	case kindOr:
		for _, kid := range s.idx.kids[id] {
			if s.evalFinal(kid) == triTrue {
				return triTrue
			}
		}
		return triFalse
	case kindAtom:
		return s.evalAtom(&s.idx.atoms[s.idx.ref[id]], true)
	}
	return s.resolveCollect(id)
}

// resolveCollect enumerates all solutions of the collect body and binds the
// indexed instances. Results are memoized on the values of the body's outer
// variables: identical outer contexts resolve identically.
func (s *Solver) resolveCollect(id int) tribool {
	link := s.idx.collects[s.idx.ref[id]]
	if link == nil {
		return triFalse
	}
	ci := link.info

	// The outer context: each body variable's current value (nil when
	// unbound), which is also the memo key.
	ctx := s.ctxBuf[:0]
	key := binary.LittleEndian.AppendUint32(s.keyBuf[:0], uint32(id))
	for i, name := range ci.protoVars {
		v, ok := s.value(link.outer[i], name)
		var vid uint32
		if ok {
			vid = s.ids.id(v)
		} else {
			v = nil
		}
		ctx = append(ctx, v)
		key = binary.LittleEndian.AppendUint32(key, vid)
	}
	s.ctxBuf, s.keyBuf = ctx, key
	if s.collectMemo == nil {
		s.collectMemo = map[string]*collectResult{}
	}
	if res, hit := s.collectMemo[string(key)]; hit {
		if !res.ok {
			return triFalse
		}
		if len(s.binds) == s.base {
			s.binds = append(s.binds, res.bindings...)
		} else {
			for _, b := range res.bindings {
				s.setBinding(b)
			}
		}
		return triTrue
	}
	memo := &collectResult{}
	s.collectMemo[string(key)] = memo

	// Variables already bound by the outer assignment stay fixed; the rest
	// are solved for, in slot order.
	sub := s.subSolver(id, ci)
	for vid, v := range ctx {
		if v != nil {
			sub.bind(vid, v)
		} else {
			sub.order = append(sub.order, vid)
		}
	}
	for _, vid := range link.rest {
		if s.bound.has(int(vid)) {
			sub.binds = append(sub.binds, binding{s.idx.vars[vid], s.vals[vid]})
		}
	}
	for _, b := range s.binds {
		if _, inBody := ci.idx.varID[b.name]; !inBody {
			sub.binds = append(sub.binds, b)
		}
	}
	sub.base = len(sub.binds)
	sub.search()
	if sub.cancelled {
		s.cancelled = true
	}
	s.lateBinds += sub.lateBinds
	s.Steps += sub.Steps
	if len(sub.found) < link.c.Min {
		return triFalse
	}
	// Deterministic order: by the textual rendering of the free variables'
	// values.
	keys := make([]string, len(sub.found))
	for i, f := range sub.found {
		var b strings.Builder
		for _, vid := range sub.order {
			if v := f.vals[vid]; v != nil {
				b.WriteString(v.Operand())
				b.WriteString("|")
			}
		}
		keys[i] = b.String()
	}
	byKey := make([]int, len(sub.found))
	for i := range byKey {
		byKey[i] = i
	}
	sort.SliceStable(byKey, func(i, j int) bool { return keys[byKey[i]] < keys[byKey[j]] })
	for j, fi := range byKey {
		names, ok := ci.instance(link.c, j)
		if !ok || len(names) != ci.nArgs {
			return triFalse
		}
		vals := sub.found[fi].vals
		for i, name := range names {
			if ctx[i] == nil && vals[i] != nil {
				b := binding{name, vals[i]}
				s.setBinding(b)
				memo.bindings = upsert(memo.bindings, 0, b)
			}
		}
	}
	memo.ok = true
	return triTrue
}

// subSolver returns the collect node's sub-solver, reset to an empty
// assignment with a fresh collect memo, as a solver built from scratch
// would be.
func (s *Solver) subSolver(id int, ci *collectInfo) *Solver {
	sub := s.subs[id]
	if sub == nil {
		if s.subs == nil {
			s.subs = map[int]*Solver{}
		}
		sub = &Solver{fnState: s.fnState}
		sub.attachIndex(ci.idx)
		s.subs[id] = sub
	} else {
		clear(sub.vals)
		clear(sub.bound)
		clear(sub.nodeVal)
		sub.order = sub.order[:0]
		sub.binds = sub.binds[:0]
		sub.base = 0
		sub.collectMemo = nil
		sub.cancelled = false
		sub.lateBinds = 0
		sub.Steps = 0
	}
	sub.Cancel = s.Cancel
	return sub
}

// --- candidate generation ---

// candidates derives a sound candidate set for variable vid from the
// formula: any satisfying assignment must draw it from the returned set. AND
// nodes may use any child's set (the first tightest is chosen); OR nodes
// need every child to produce one. Subtrees that do not mention the variable
// yield no set (or, for an empty disjunction, the empty set) without being
// walked.
func (s *Solver) candidates(id, vid int) ([]ir.Value, bool) {
	if !s.idx.varIn[id].has(vid) {
		return nil, s.idx.emptyBound[id]
	}
	switch s.idx.kind[id] {
	case kindAnd:
		best := []ir.Value(nil)
		found := false
		for _, kid := range s.idx.kids[id] {
			if set, ok := s.candidates(kid, vid); ok {
				if !found || len(set) < len(best) {
					best = set
					found = true
				}
			}
		}
		return best, found
	case kindOr:
		seen := s.takeSeen()
		var union []ir.Value
		for _, kid := range s.idx.kids[id] {
			set, ok := s.candidates(kid, vid)
			if !ok {
				s.releaseSeen(seen)
				return nil, false
			}
			for _, c := range set {
				if !seen[c] {
					seen[c] = true
					union = append(union, c)
				}
			}
		}
		s.releaseSeen(seen)
		return union, true
	case kindAtom:
		return s.atomCandidates(&s.idx.atoms[s.idx.ref[id]], vid)
	}
	return nil, false
}

// atomCandidates returns the candidate set an atom yields for variable vid,
// given the values of its other arguments.
func (s *Solver) atomCandidates(a *atomSlots, vid int) ([]ir.Value, bool) {
	t := a.atom
	pos := -1
	for i, slot := range a.args[:a.nargs] {
		if int(slot) == vid {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, false
	}
	val := func(i int) (ir.Value, bool) { return s.value(a.args[i], t.Args[i]) }
	switch t.Kind {
	case idl.AtomOpcodeIs:
		if !a.opOK {
			return nil, true // unknown opcode: empty set
		}
		return s.byOpcode[a.op], true

	case idl.AtomClassIs, idl.AtomTypeIs:
		if t.Kind == idl.AtomClassIs && t.ClassName != "argument" && t.ClassName != "constant" {
			return nil, false
		}
		set, ok := s.domainSets[t]
		if !ok {
			for _, d := range s.domain {
				if t.Kind == idl.AtomTypeIs && s.evalTypeIs(t, d) || t.Kind == idl.AtomClassIs && s.evalClassIs(t, d) {
					set = append(set, d)
				}
			}
			s.domainSets[t] = set
		}
		return set, true

	case idl.AtomSameAs:
		if t.Negated {
			return nil, false
		}
		other := 1 - pos
		if x, ok := val(other); ok {
			return []ir.Value{x}, true
		}
		return nil, false

	case idl.AtomArgOf:
		// Args[0] is the operand, Args[1] the instruction.
		if pos == 0 {
			if y, ok := val(1); ok {
				if yi, isInstr := y.(*ir.Instruction); isInstr {
					if op := yi.OperandAt(t.ArgIndex); op != nil {
						return []ir.Value{op}, true
					}
				}
				return nil, true
			}
			return nil, false
		}
		if x, ok := val(0); ok {
			var out []ir.Value
			for _, u := range s.usersOf(x) {
				if op := u.OperandAt(t.ArgIndex); op != nil && sameValue(op, x) {
					out = append(out, u)
				}
			}
			return out, true
		}
		return nil, false

	case idl.AtomEdge:
		other := 1 - pos
		x, ok := val(other)
		if !ok {
			return nil, false
		}
		switch t.Edge {
		case idl.EdgeDataFlow:
			if pos == 1 { // v is the user
				var out []ir.Value
				for _, u := range s.usersOf(x) {
					out = append(out, u)
				}
				return out, true
			}
			if xi, isInstr := x.(*ir.Instruction); isInstr { // v is an operand of x
				return append([]ir.Value(nil), xi.Ops...), true
			}
			return nil, true
		case idl.EdgeControlFlow:
			xi, isInstr := x.(*ir.Instruction)
			if !isInstr {
				return nil, true
			}
			var out []ir.Value
			if pos == 1 {
				for _, in := range s.info.Successors(xi) {
					out = append(out, in)
				}
			} else {
				for _, in := range s.info.Predecessors(xi) {
					out = append(out, in)
				}
			}
			return out, true
		default:
			return nil, false
		}

	case idl.AtomReachesPhi:
		// Args: value, phi, from-branch.
		phiV, phiBound := val(1)
		switch pos {
		case 0:
			if phiBound {
				if phi, ok := phiV.(*ir.Instruction); ok && phi.Op == ir.OpPhi {
					return append([]ir.Value(nil), phi.Ops...), true
				}
				return nil, true
			}
			return nil, false
		case 1:
			if x, ok := val(0); ok {
				var out []ir.Value
				for _, u := range s.usersOf(x) {
					if u.Op == ir.OpPhi {
						out = append(out, u)
					}
				}
				// Values reaching phis include constants, which have no
				// tracked users; fall back to scanning all phis then.
				if _, isConst := x.(*ir.Const); isConst {
					out = out[:0]
					for _, in := range s.byOpcode[ir.OpPhi] {
						out = append(out, in)
					}
				}
				return out, true
			}
			return nil, false
		case 2:
			if phiBound {
				if phi, ok := phiV.(*ir.Instruction); ok && phi.Op == ir.OpPhi {
					var out []ir.Value
					for _, ib := range phi.Incoming {
						if term := ib.Terminator(); term != nil {
							out = append(out, term)
						}
					}
					return out, true
				}
				return nil, true
			}
			return nil, false
		}
	}
	return nil, false
}

// usersOf returns instructions using x; constants are matched semantically.
func (s *Solver) usersOf(x ir.Value) []*ir.Instruction {
	if _, isConst := x.(*ir.Const); !isConst {
		return s.info.Users(x)
	}
	var out []*ir.Instruction
	for _, in := range s.info.Instrs {
		for _, op := range in.Ops {
			if sameValue(op, x) {
				out = append(out, in)
				break
			}
		}
	}
	return out
}

// takeSeen hands out an empty scratch set for one disjunction's union;
// nested disjunctions each hold their own until releaseSeen.
func (s *Solver) takeSeen() map[ir.Value]bool {
	if n := len(s.seen); n > 0 {
		m := s.seen[n-1]
		s.seen = s.seen[:n-1]
		return m
	}
	return map[ir.Value]bool{}
}

func (s *Solver) releaseSeen(m map[ir.Value]bool) {
	clear(m)
	s.seen = append(s.seen, m)
}
