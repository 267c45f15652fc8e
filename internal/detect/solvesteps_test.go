package detect

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/constraint"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/solve_steps.golden.json")

// solveStepsRow is one (workload × idiom × solver configuration) cell of the
// paper's Table 2 cost metric: the backtracking step count, the number of
// pre-claim solutions and a digest of their sorted order keys.
type solveStepsRow struct {
	Workload    string `json:"workload"`
	Idiom       string `json:"idiom"`
	Mode        string `json:"mode"`
	SolverSteps int    `json:"solver_steps"`
	Solutions   int    `json:"solutions"`
	KeysSHA256  string `json:"keys_sha256"`
}

// TestSolveStepsGolden pins the solver's search, not just its answers: for
// every workload and idiom it records SolverSteps (the paper's Table 2
// compile-cost metric), the solution count and a SHA-256 over the sorted
// solutionOrder keys. Three configurations are covered: the library
// problems, the NaiveCandidates ablation, and the variable-ordering
// ablation's first-appearance order applied to the library problem's own
// formula nodes. Any change to candidate generation, pruning,
// canonicalisation or deduplication moves this file.
func TestSolveStepsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite solve grid")
	}
	prog, err := idioms.Library()
	if err != nil {
		t.Fatal(err)
	}
	roster := append(idioms.All(), idioms.Extensions()...)
	library := make([]*constraint.Problem, len(roster))
	appearance := make([]*constraint.Problem, len(roster))
	for i, idm := range roster {
		if library[i], err = idioms.Problem(idm.Top); err != nil {
			t.Fatal(err)
		}
		reordered, err := constraint.Compile(prog, idm.Top, constraint.CompileOptions{Ordering: constraint.OrderAppearance})
		if err != nil {
			t.Fatal(err)
		}
		appearance[i] = &constraint.Problem{Name: idm.Top, Root: library[i].Root, Vars: reordered.Vars}
	}
	modes := []struct {
		name  string
		naive bool
		probs []*constraint.Problem
	}{
		{"default", false, library},
		{"naive", true, library},
		{"appearance", false, appearance},
	}

	var rows []solveStepsRow
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		infos := make([]*analysis.Info, len(mod.Functions))
		for i, fn := range mod.Functions {
			infos[i] = analysis.Analyze(fn)
		}
		for _, mode := range modes {
			for i, idm := range roster {
				prob := mode.probs[i]
				row := solveStepsRow{Workload: w.Name, Idiom: idm.Name, Mode: mode.name}
				h := sha256.New()
				for _, info := range infos {
					s := constraint.NewSolver(prob, info)
					s.NaiveCandidates = mode.naive
					sols := s.Solve()
					sortSolutions(sols)
					row.SolverSteps += s.Steps
					row.Solutions += len(sols)
					for _, sol := range sols {
						fmt.Fprintf(h, "%s\x00%s\n", info.Fn.Name(), solutionOrder(sol))
					}
				}
				row.KeysSHA256 = hex.EncodeToString(h.Sum(nil))
				rows = append(rows, row)
			}
		}
	}

	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "solve_steps.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantRows []solveStepsRow
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if len(wantRows) != len(rows) {
		t.Fatalf("%d rows, golden has %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, rows[i], wantRows[i])
		}
	}
}

// TestSortSolutionsMatchesComparatorSort pins sortSolutions, which builds
// each order key once, to the reference order: a stable sort calling
// solutionOrder on every comparison. Solutions whose keys collide
// (constants of different types render alike) must keep their input order.
func TestSortSolutionsMatchesComparatorSort(t *testing.T) {
	var pool []constraint.Solution
	for i := 0; i < 24; i++ {
		ty := ir.Int32
		if i%2 == 1 {
			ty = ir.Int64
		}
		pool = append(pool, constraint.Solution{
			"a": ir.ConstInt(ty, int64(i%5)),
			"b": ir.ConstInt(ir.Int32, int64(i%3)),
		})
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		sols := slices.Clone(pool)
		rng.Shuffle(len(sols), func(i, j int) { sols[i], sols[j] = sols[j], sols[i] })
		want := slices.Clone(sols)
		sort.SliceStable(want, func(i, j int) bool { return solutionOrder(want[i]) < solutionOrder(want[j]) })
		sortSolutions(sols)
		for i := range want {
			if sols[i]["a"] != want[i]["a"] || sols[i]["b"] != want[i]["b"] {
				t.Fatalf("trial %d: position %d holds %s, want %s", trial, i, sols[i], want[i])
			}
		}
	}
}
