package main

import (
	"context"
	"strings"
	"testing"

	"repro/idiomatic"
	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/workloads"
)

// fingerprints compiles src and returns each function's memo fingerprint in
// module order.
func fingerprints(t *testing.T, name, src string) []constraint.Fingerprint {
	t.Helper()
	mod, err := cc.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	var out []constraint.Fingerprint
	for _, fn := range mod.Functions {
		out = append(out, constraint.FingerprintInfo(analysis.Analyze(fn)))
	}
	return out
}

func TestRenamedSuiteKeepsShapesAndMatches(t *testing.T) {
	ctx := context.Background()
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	want := map[string][]constraint.Fingerprint{}
	for _, w := range workloads.All() {
		want[w.Name] = fingerprints(t, w.Name, w.Source)
	}
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		suite, err := renamedSuite(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(suite) != len(want) {
			t.Fatalf("seed %d: %d modules, want %d", seed, len(suite), len(want))
		}
		for _, m := range suite {
			if m.Source == workloads.ByName(m.Name).Source {
				t.Errorf("seed %d: %s not renamed", seed, m.Name)
			}
			got := fingerprints(t, m.Name, m.Source)
			if len(got) != len(want[m.Name]) {
				t.Fatalf("seed %d: %s has %d functions, want %d", seed, m.Name, len(got), len(want[m.Name]))
			}
			for i := range got {
				if got[i] != want[m.Name][i] {
					t.Errorf("seed %d: %s function %d fingerprint changed", seed, m.Name, i)
				}
			}
			res, err := svc.Match(ctx, idiomatic.MatchRequest{Name: m.Name, Source: m.Source})
			if err != nil {
				t.Fatal(err)
			}
			if msg := checkResult(res, m); msg != "" {
				t.Errorf("seed %d: %s: %s", seed, m.Name, msg)
			}
		}
	}
}

func TestRenameKeepsLiteralSuffixesAndCalls(t *testing.T) {
	src := `
float scale(float* x, int n, float f) {
    float acc = 1.0f;
    for (int i = 0; i < n; i++) { acc = acc + sqrtf(x[i]) * f + 2.5e-3f; }
    return acc;
}
`
	suite, err := renameLocals(src, newRand(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []string{"scale(", "sqrtf(", "1.0f", "2.5e-3f", "float", "return"} {
		if !strings.Contains(suite, keep) {
			t.Errorf("renamed source lost %q:\n%s", keep, suite)
		}
	}
	for _, gone := range []string{" acc", "x[", "int n", "float f)", "int i"} {
		if strings.Contains(suite, gone) {
			t.Errorf("renamed source still has %q:\n%s", gone, suite)
		}
	}
	if _, err := cc.Compile("scale", suite); err != nil {
		t.Fatalf("renamed source does not compile: %v\n%s", err, suite)
	}
}
