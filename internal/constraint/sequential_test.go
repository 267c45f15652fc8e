package constraint

import (
	"sync"
	"testing"

	"repro/internal/analysis"
)

// unsplitTestSource is large enough that FactorizationOpportunity has a root
// candidate list with many entries and the search runs past the solver's
// 64-step cancellation poll interval.
const unsplitTestSource = `
int kernel(int a, int b, int c, int n) {
    int s0 = a * b;
    int s1 = c * a;
    int s2 = s0 + s1;
    int s3 = b * c;
    int s4 = s3 + s2;
    int s5 = a * c;
    int s6 = s5 + s4;
    int s7 = s6 * b;
    int s8 = s7 + s0;
    return s8 + n;
}`

// solveConcurrently runs n fresh solvers of prob over the same analysis on
// separate goroutines and returns their solutions and step counts, so -race
// can observe any state the solvers share through the Problem (its lazily
// built static index and collect info).
func solveConcurrently(prob *Problem, info *analysis.Info, n int, setup func(*Solver)) ([][]Solution, []int) {
	sols := make([][]Solution, n)
	steps := make([]int, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			s := NewSolver(prob, info)
			setup(s)
			sols[i] = s.Solve()
			steps[i] = s.Steps
		}()
	}
	wg.Wait()
	return sols, steps
}

// TestSplitSolveMatchesSequential pins the solver's determinism contract.
// Every solve is one unsplit (split=1) backtracking search on the goroutine
// that calls Solve; run inline or concurrently with other solves of a freshly
// compiled, shared Problem, it must reproduce the reference solutions (values
// and order) and step count exactly.
func TestSplitSolveMatchesSequential(t *testing.T) {
	info := analyzeC(t, unsplitTestSource, "kernel")
	ref := NewSolver(mustProblem(t, figure2, "FactorizationOpportunity", nil), info)
	want := ref.Solve()
	if len(want) == 0 {
		t.Fatal("reference solve found no solutions; test needs a non-trivial search")
	}
	check := func(t *testing.T, got []Solution, steps int) {
		t.Helper()
		if steps != ref.Steps {
			t.Errorf("steps = %d, want %d", steps, ref.Steps)
		}
		if len(got) != len(want) {
			t.Fatalf("%d solutions, want %d", len(got), len(want))
		}
		for i := range want {
			if canonicalKey(got[i]) != canonicalKey(want[i]) {
				t.Errorf("solution %d differs:\n  reference: %s\n  got:       %s",
					i, canonicalKey(want[i]), canonicalKey(got[i]))
			}
		}
	}

	t.Run("split=1/inline", func(t *testing.T) {
		s := NewSolver(mustProblem(t, figure2, "FactorizationOpportunity", nil), info)
		got := s.Solve()
		check(t, got, s.Steps)
		if s.Cancelled() {
			t.Error("uncancelled solve reports Cancelled")
		}
	})
	t.Run("split=1/goroutines", func(t *testing.T) {
		prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
		sols, steps := solveConcurrently(prob, info, 4, func(*Solver) {})
		for i := range sols {
			check(t, sols[i], steps[i])
		}
	})
}

// TestSplitSolveNaiveCandidates covers the ablation path: with candidate
// generation disabled the root variable enumerates the whole domain, the
// widest search there is. Concurrent solves of one shared Problem must still
// match the inline reference in solutions, order and steps.
func TestSplitSolveNaiveCandidates(t *testing.T) {
	info := analyzeC(t, unsplitTestSource, "kernel")
	ref := NewSolver(mustProblem(t, figure2, "FactorizationOpportunity", nil), info)
	ref.NaiveCandidates = true
	want := ref.Solve()
	if len(want) == 0 {
		t.Fatal("reference solve found no solutions; test needs a non-trivial search")
	}

	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	sols, steps := solveConcurrently(prob, info, 4, func(s *Solver) { s.NaiveCandidates = true })
	for k := range sols {
		if steps[k] != ref.Steps {
			t.Errorf("solver %d: steps = %d, want %d", k, steps[k], ref.Steps)
		}
		if len(sols[k]) != len(want) {
			t.Fatalf("solver %d: %d solutions, want %d", k, len(sols[k]), len(want))
		}
		for i := range want {
			if canonicalKey(sols[k][i]) != canonicalKey(want[i]) {
				t.Errorf("solver %d: solution %d differs", k, i)
			}
		}
	}
}

// TestSplitSolveLimitFallsBack pins that a Limit-bounded search stops at the
// limit: it returns exactly Limit solutions, the same ones (in the same
// order) that open the full enumeration, and sheds the rest of the search.
func TestSplitSolveLimitFallsBack(t *testing.T) {
	prob := mustProblem(t, figure2, "FactorizationOpportunity", nil)
	info := analyzeC(t, unsplitTestSource, "kernel")

	full := NewSolver(prob, info)
	all := full.Solve()
	if len(all) < 2 {
		t.Fatalf("full search found %d solutions; test needs at least 2", len(all))
	}

	s := NewSolver(prob, info)
	s.Limit = 1
	got := s.Solve()
	if len(got) != 1 {
		t.Fatalf("limited solve returned %d solutions, want 1", len(got))
	}
	if canonicalKey(got[0]) != canonicalKey(all[0]) {
		t.Errorf("limited solve's solution differs from the first of the full search:\n  full:    %s\n  limited: %s",
			canonicalKey(all[0]), canonicalKey(got[0]))
	}
	if s.Steps >= full.Steps {
		t.Errorf("limited solve did %d steps, full search does %d; the limit did not stop the search",
			s.Steps, full.Steps)
	}
}
