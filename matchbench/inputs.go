package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/workloads"
)

// module is one generated input: a workload's source, possibly with its
// parameters and locals renamed, plus the class counts a correct match of it
// reports.
type module struct {
	Name     string
	Source   string
	Expected map[string]int // idiom class name -> instance count
}

// expectedOf renders a workload's expected class counts under the wire's
// class names.
func expectedOf(w *workloads.Workload) map[string]int {
	out := make(map[string]int, len(w.Expected))
	for c, n := range w.Expected {
		out[c.String()] = n
	}
	return out
}

// verbatimSuite returns the 21 workloads unchanged, in the paper's order.
func verbatimSuite() []module {
	var out []module
	for _, w := range workloads.All() {
		out = append(out, module{Name: w.Name, Source: w.Source, Expected: expectedOf(w)})
	}
	return out
}

// renamedSuite returns the 21 workloads in the paper's order, each with its
// parameters and locals renamed under seed. Every seed yields new source
// text, so no cache keyed on source text can serve a renamed suite, while
// the compiled function shapes — and so the solver memo's keys — stay the
// same.
func renamedSuite(seed int64) ([]module, error) {
	rng := newRand(seed)
	var out []module
	for _, w := range workloads.All() {
		src, err := renameLocals(w.Source, rng)
		if err != nil {
			return nil, fmt.Errorf("renaming %s: %w", w.Name, err)
		}
		out = append(out, module{Name: w.Name, Source: src, Expected: expectedOf(w)})
	}
	return out, nil
}

// seededOrder returns suite in an order drawn from seed, or in its exact
// reverse. Pairing each order with its reverse balances where the costly
// modules land in the stream, which steadies the suite's latency figures.
func seededOrder(suite []module, seed int64, reversed bool) []module {
	out := append([]module(nil), suite...)
	newRand(seed).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if reversed {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// tok is one lexical token of mini-C source: its byte span and whether it is
// an identifier. Numbers are single tokens including any suffix ("1.0f"), so
// a suffix can never be mistaken for a name.
type tok struct {
	start, end int
	ident      bool
}

// scan splits src into tokens, skipping whitespace and comments.
func scan(src string) []tok {
	var out []tok
	isIdent := func(c byte) bool {
		return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				i = len(src)
			} else {
				i += end + 4
			}
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i
			for j < len(src) && (isIdent(src[j]) || src[j] == '.' ||
				(src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E')) {
				j++
			}
			out = append(out, tok{i, j, false})
			i = j
		case isIdent(c):
			j := i
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			out = append(out, tok{i, j, true})
			i = j
		default:
			out = append(out, tok{i, i + 1, false})
			i++
		}
	}
	return out
}

// renameLocals renames every function's parameters and local variables to
// fresh names drawn from rng. Function names, called names (builtins) and
// keywords are never renamed, and a name that is both a local somewhere and
// a function or called name is left alone everywhere. Within a function the
// new names keep the sorted order of the old ones, so any name-ordered pass
// of the compiler sees its variables in the same order.
func renameLocals(src string, rng *rand.Rand) (string, error) {
	file, err := cc.Parse(src)
	if err != nil {
		return "", err
	}
	toks := scan(src)
	text := func(t tok) string { return src[t.start:t.end] }

	used := map[string]bool{}
	protected := map[string]bool{}
	for _, fd := range file.Funcs {
		protected[fd.Name] = true
	}
	for i, t := range toks {
		if !t.ident {
			continue
		}
		used[text(t)] = true
		if i+1 < len(toks) && text(toks[i+1]) == "(" {
			protected[text(t)] = true
		}
	}

	// Function i of the AST owns the tokens from its name at brace depth 0
	// to the brace closing its body.
	var out strings.Builder
	last, fi, depth := 0, -1, 0
	var names map[string]string
	for i, t := range toks {
		s := text(t)
		switch {
		case depth == 0 && t.ident && i+1 < len(toks) && text(toks[i+1]) == "(":
			fi++
			if fi >= len(file.Funcs) || file.Funcs[fi].Name != s {
				return "", fmt.Errorf("function %q out of step with the parser", s)
			}
			names = freshNames(file.Funcs[fi], protected, used, rng)
		case s == "{":
			depth++
		case s == "}":
			depth--
		case t.ident && names != nil:
			if nn, ok := names[s]; ok {
				out.WriteString(src[last:t.start])
				out.WriteString(nn)
				last = t.end
			}
		}
	}
	if fi+1 != len(file.Funcs) {
		return "", fmt.Errorf("found %d of %d functions", fi+1, len(file.Funcs))
	}
	out.WriteString(src[last:])
	return out.String(), nil
}

// freshNames maps fd's renamable parameters and locals to new names: one
// seeded tag per function plus each name's rank in sorted order.
func freshNames(fd *cc.FuncDecl, protected, used map[string]bool, rng *rand.Rand) map[string]string {
	set := map[string]bool{}
	for _, p := range fd.Params {
		set[p.Name] = true
	}
	var walk func(cc.Stmt)
	walk = func(s cc.Stmt) {
		switch s := s.(type) {
		case *cc.VarDecl:
			set[s.Name] = true
		case *cc.Block:
			for _, x := range s.Stmts {
				walk(x)
			}
		case *cc.If:
			walk(s.Then)
			walk(s.Else)
		case *cc.For:
			walk(s.Init)
			walk(s.Body)
		case *cc.While:
			walk(s.Body)
		}
	}
	walk(fd.Body)
	var olds []string
	for n := range set {
		if !protected[n] {
			olds = append(olds, n)
		}
	}
	sort.Strings(olds)
	for {
		tag := make([]byte, 4)
		for i := range tag {
			tag[i] = byte('a' + rng.Intn(26))
		}
		m := make(map[string]string, len(olds))
		clash := false
		for i, o := range olds {
			nn := fmt.Sprintf("%s%03d", tag, i)
			if used[nn] {
				clash = true
				break
			}
			m[o] = nn
		}
		if !clash {
			for _, nn := range m {
				used[nn] = true
			}
			return m
		}
	}
}

// classCounts tallies findings per idiom class name.
func classCounts(classes []string) map[string]int {
	out := map[string]int{}
	for _, c := range classes {
		out[c]++
	}
	return out
}

// sameCounts reports whether got matches want, ignoring zero entries.
func sameCounts(got, want map[string]int) bool {
	for c, n := range want {
		if got[c] != n {
			return false
		}
	}
	for c, n := range got {
		if want[c] != n {
			return false
		}
	}
	return true
}

// totalExpected is the suite's Table 1 instance total (60).
func totalExpected() int {
	n := 0
	for _, c := range workloads.TotalExpected() {
		n += c
	}
	return n
}

// newRand returns the benchmark's deterministic generator for seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
