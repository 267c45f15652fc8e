package detect_test

import (
	"fmt"
	"testing"

	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestSplitMatchesSequential pins the streaming path's output contract:
// every solve is one unsplit (split=1, no re-split) search on the worker
// that claimed it, so a four-worker stream must deliver byte-identical
// results to the sequential driver over every workload — same instances,
// same claim sets, same merge precedence and the same solver step totals.
// Run under -race this also exercises the pool's interleaving of solves
// across modules.
func TestSplitMatchesSequential(t *testing.T) {
	var mods []*ir.Module
	var names []string
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		mods = append(mods, mod)
		names = append(names, w.Name)
	}
	var want []*detect.Result
	for i, mod := range mods {
		res, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatalf("%s: sequential detect: %v", names[i], err)
		}
		want = append(want, res)
	}

	t.Run("split=1/resplit=0", func(t *testing.T) {
		eng, err := detect.NewEngine(detect.Options{Workers: 4, NoMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stream(len(mods))
		for _, mod := range mods {
			st.Submit(mod)
		}
		st.Close()
		got := make([]*detect.Result, len(mods))
		for sr := range st.Results() {
			if sr.Err != nil {
				t.Fatalf("seq %d: %v", sr.Seq, sr.Err)
			}
			got[sr.Seq] = sr.Result
		}
		for i := range want {
			wk, gk := resultKeys(t, want[i]), resultKeys(t, got[i])
			if len(wk) != len(gk) {
				t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
			}
			for j := range wk {
				if wk[j] != gk[j] {
					t.Errorf("%s: instance %d differs:\n  sequential: %s\n  stream:     %s",
						names[i], j, wk[j], gk[j])
				}
			}
			if got[i].SolverSteps != want[i].SolverSteps {
				t.Errorf("%s: solver steps %d, want %d", names[i], got[i].SolverSteps, want[i].SolverSteps)
			}
		}
		if a := st.Active(); a != 0 {
			t.Errorf("Active = %d after drain, want 0", a)
		}
	})
}

// TestBatchMatchesSequential pins the parallel batch path: Engine.Modules
// folds the whole slice onto the same stream as Submit, so batch results
// must stay byte-identical to the sequential per-module driver at every
// worker count — and with Workers:1 the batch is sequential by construction.
// Run under -race this also exercises the pool's interleaving of solves
// across modules.
func TestBatchMatchesSequential(t *testing.T) {
	var mods []*ir.Module
	var names []string
	for _, w := range workloads.All() {
		mod, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		mods = append(mods, mod)
		names = append(names, w.Name)
	}
	var want []*detect.Result
	for i, mod := range mods {
		res, err := detect.Module(mod, detect.Options{})
		if err != nil {
			t.Fatalf("%s: sequential detect: %v", names[i], err)
		}
		want = append(want, res)
	}

	// Every solve runs unsplit on the worker that claimed it; the subtest
	// names carry that (split=1, no re-split) label.
	for _, workers := range []int{1, 4} { // 1: sequential by construction
		workers := workers
		t.Run(fmt.Sprintf("workers=%d/split=1/resplit=0", workers), func(t *testing.T) {
			eng, err := detect.NewEngine(detect.Options{Workers: workers, NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Modules(mods)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range want {
				wk, gk := resultKeys(t, want[i]), resultKeys(t, got[i])
				if len(wk) != len(gk) {
					t.Fatalf("%s: %d instances, want %d", names[i], len(gk), len(wk))
				}
				for j := range wk {
					if wk[j] != gk[j] {
						t.Errorf("%s: instance %d differs:\n  sequential: %s\n  batch:      %s",
							names[i], j, wk[j], gk[j])
					}
				}
				if got[i].SolverSteps != want[i].SolverSteps {
					t.Errorf("%s: solver steps %d, want %d", names[i], got[i].SolverSteps, want[i].SolverSteps)
				}
			}
		})
	}
}

// TestMemoizedMatchesSequential pins the pool × memo interaction: the cache
// only ever stores complete solves, so a warm hit rehydrates exactly what the
// sequential solver would produce — and re-streaming the same module does
// zero fresh solves.
func TestMemoizedMatchesSequential(t *testing.T) {
	mod, err := workloads.ByName("sgemm").Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.Module(mod, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache := constraint.NewSolveCache()
	eng, err := detect.NewEngine(detect.Options{Workers: 4, Memo: cache})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		st := eng.Stream(1)
		st.Submit(mod)
		st.Close()
		for sr := range st.Results() {
			if sr.Err != nil {
				t.Fatalf("round %d: %v", round, sr.Err)
			}
			wk, gk := resultKeys(t, want), resultKeys(t, sr.Result)
			if len(wk) != len(gk) {
				t.Fatalf("round %d: %d instances, want %d", round, len(gk), len(wk))
			}
			for j := range wk {
				if wk[j] != gk[j] {
					t.Errorf("round %d: instance %d differs", round, j)
				}
			}
			if sr.Result.SolverSteps != want.SolverSteps {
				t.Errorf("round %d: steps %d, want %d", round, sr.Result.SolverSteps, want.SolverSteps)
			}
		}
	}
	hits, misses := eng.MemoStats()
	if hits == 0 {
		t.Errorf("second round did no memo hits (hits=%d misses=%d)", hits, misses)
	}
}
