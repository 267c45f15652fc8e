package constraint

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"
)

const edgeShapesC = `
void vadd(double* a, double* b, double* c, int n) {
    for (int i = 0; i < n; i++) {
        c[i] = (a[i] + b[i]) * 2.0;
    }
}`

// edgeShapes are formula shapes the idiom library does not use but the
// solver supports: varlists and nested collects inside a collect body
// (the body then sees the enclosing assignment as bindings), and an empty
// forsome range (a disjunction with no branches) beside real constraints.
var edgeShapes = []struct {
	name, src, top          string
	steps, naiveSteps, sols int
	digest                  string
}{
	{
		name: "collect-body-varlist", top: "ListBody", src: `
Constraint ListBody
( {sum} is fadd instruction and
  collect i 1
  ( {read[i]} is load instruction and
    {read[i]} has data flow to {sum} and
    all operands of {read[i]} come from {read} below {sum} ) )
End
`,
		steps: 57, naiveSteps: 57, sols: 1, digest: "a2e2b9e7e61db7b5",
	},
	{
		name: "nested-collect", top: "Nested", src: `
Constraint Nested
( {sum} is fadd instruction and
  collect i 1
  ( {ld[i]} is load instruction and
    {ld[i]} has data flow to {sum} and
    collect j 1
    ( {ld[i].addr[j]} is gep instruction and
      {ld[i].addr[j]} has data flow to {ld[i]} and
      {sum} is not the same as {ld[i]} ) ) )
End
`,
		steps: 9, naiveSteps: 9, sols: 1, digest: "402776347ffdf8e4",
	},
	{
		name: "empty-forsome", top: "EmptySome", src: `
Constraint EmptySome
( {st} is store instruction and
  {val} is first argument of {st} and
  ( ( {val} is fadd instruction ) for some k = 1 .. 0 or
    {val} is fmul instruction ) and
  ( ( {other} is load instruction ) for some k = 1 .. 0 or
    {other} is the same as {val} ) )
End
`,
		steps: 4, naiveSteps: 4, sols: 1, digest: "dda8549ba4c0f96d",
	},
	{
		name: "collect-after-collect", top: "Twice", src: `
Constraint Twice
( {sum} is fadd instruction and
  collect i 1
  ( {x[i]} is load instruction and
    {x[i]} has data flow to {sum} ) and
  collect i 1
  ( {y[i]} is load instruction and
    {y[i]} is the same as {x[i]} ) and
  all operands of {sum} come from {x, y} below {sum} )
End
`,
		steps: 7, naiveSteps: 7, sols: 1, digest: "8718c7bd575a09cf",
	},
}

// TestSolverEdgeShapes pins SolverSteps (default and NaiveCandidates), the
// solution count and a digest of the sorted solutions on shapes outside the
// idiom library, with the values the earlier name-keyed solver produced, and
// checks that concurrent solves of one fresh problem agree with them.
func TestSolverEdgeShapes(t *testing.T) {
	info := analyzeC(t, edgeShapesC, "vadd")
	for _, tc := range edgeShapes {
		t.Run(tc.name, func(t *testing.T) {
			prob := mustProblem(t, tc.src, tc.top, nil)
			s := NewSolver(prob, info)
			sols := s.Solve()
			naive := NewSolver(prob, info)
			naive.NaiveCandidates = true
			naiveSols := naive.Solve()

			keys := make([]string, len(sols))
			for i, sol := range sols {
				keys[i] = canonicalKey(sol)
			}
			sort.Strings(keys)
			naiveKeys := make([]string, len(naiveSols))
			for i, sol := range naiveSols {
				naiveKeys[i] = canonicalKey(sol)
			}
			sort.Strings(naiveKeys)
			if strings.Join(keys, "\n") != strings.Join(naiveKeys, "\n") {
				t.Errorf("naive candidates found a different solution set:\n%v\nvs\n%v", keys, naiveKeys)
			}
			sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
			digest := hex.EncodeToString(sum[:8])
			if s.Steps != tc.steps || naive.Steps != tc.naiveSteps || len(sols) != tc.sols || digest != tc.digest {
				t.Errorf("steps=%d naive=%d sols=%d digest=%s, want steps=%d naive=%d sols=%d digest=%s",
					s.Steps, naive.Steps, len(sols), digest, tc.steps, tc.naiveSteps, tc.sols, tc.digest)
			}

			// Concurrent first solves of a fresh problem share its lazily
			// built index, collect info and collect instance names.
			conc, steps := solveConcurrently(mustProblem(t, tc.src, tc.top, nil), info, 4, func(*Solver) {})
			for i := range conc {
				if steps[i] != s.Steps || len(conc[i]) != len(sols) {
					t.Fatalf("concurrent solve %d: %d steps, %d solutions; want %d, %d", i, steps[i], len(conc[i]), s.Steps, len(sols))
				}
				for j := range sols {
					if canonicalKey(conc[i][j]) != canonicalKey(sols[j]) {
						t.Errorf("concurrent solve %d, solution %d: %s, want %s", i, j, canonicalKey(conc[i][j]), canonicalKey(sols[j]))
					}
				}
			}
		})
	}
}
