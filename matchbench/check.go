package main

import (
	"bytes"
	"fmt"
	"regexp"

	"repro/idiomatic"
)

// checkResult validates one module's answer: no in-band error, class counts
// equal to the workload's expected counts, one plan per finding and no plan
// error. It returns "" when the answer is correct.
func checkResult(res idiomatic.MatchResult, m module) string {
	if res.Err != "" {
		return "in-band error: " + res.Err
	}
	if res.Name != m.Name {
		return fmt.Sprintf("answer names %q", res.Name)
	}
	classes := make([]string, len(res.Findings))
	for i, f := range res.Findings {
		classes[i] = f.Class
	}
	if got := classCounts(classes); !sameCounts(got, m.Expected) {
		return fmt.Sprintf("class counts %v, want %v", got, m.Expected)
	}
	if len(res.Plans) != len(res.Findings) {
		return fmt.Sprintf("%d plans for %d findings", len(res.Plans), len(res.Findings))
	}
	for _, p := range res.Plans {
		if p.Err != "" {
			return "plan error: " + p.Err
		}
	}
	return ""
}

// checkSuite validates a whole suite answer: every module correct, and the
// suite's totals equal to Table 1 (60 findings, 60 plans). It returns which
// modules were answered correctly and the first problem found ("" if none).
func checkSuite(lines []line, suite []module) (good []bool, problem string) {
	findings, plans := 0, 0
	good = make([]bool, len(lines))
	for i, ln := range lines {
		findings += len(ln.res.Findings)
		plans += len(ln.res.Plans)
		if msg := checkResult(ln.res, suite[i]); msg != "" {
			if problem == "" {
				problem = suite[i].Name + ": " + msg
			}
			continue
		}
		good[i] = true
	}
	if want := totalExpected(); problem == "" && (findings != want || plans != want) {
		problem = fmt.Sprintf("suite has %d findings and %d plans, want %d of each", findings, plans, want)
	}
	return good, problem
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ns":\d+`)
	memoField    = regexp.MustCompile(`"memo":\{[^{}]*\}`)
)

// normalize blanks the two wire fields that legitimately differ between
// runs of the same input: the wall time and the memo counters.
func normalize(raw []byte) []byte {
	raw = elapsedField.ReplaceAll(raw, []byte(`"elapsed_ns":0`))
	return memoField.ReplaceAll(raw, []byte(`"memo":{}`))
}

// checkIdentity checks that a renamed suite's answers served from the memo
// (a second pass on the same service) and from the store (a service
// restarted on the same state dir) are byte-identical to a fresh service's,
// once elapsed_ns and memo are blanked. It also checks that the second and
// third passes really were served without a fresh solve.
func checkIdentity(dir string, seed int64) error {
	suite, err := iterationSuite(seed, 1)
	if err != nil {
		return err
	}
	s, err := boot(idiomatic.ServiceOptions{StateDir: dir}, 1)
	if err != nil {
		return err
	}
	fresh, _, err := s.stream(suite)
	if err != nil {
		s.close()
		return err
	}
	if _, problem := checkSuite(fresh, suite); problem != "" {
		s.close()
		return fmt.Errorf("fresh pass: %s", problem)
	}
	before := s.svc.Stats().Memo.Misses
	memo, _, err := s.stream(suite)
	after := s.svc.Stats().Memo.Misses
	s.close()
	if err != nil {
		return err
	}
	if after != before {
		return fmt.Errorf("memo pass solved %d times", after-before)
	}

	r, err := boot(idiomatic.ServiceOptions{StateDir: dir}, 1)
	if err != nil {
		return err
	}
	stored, _, err := r.stream(suite)
	st := r.svc.Stats()
	r.close()
	if err != nil {
		return err
	}
	if st.Memo.Misses != 0 || st.Store.SpillHits == 0 {
		return fmt.Errorf("restarted pass: %d fresh solves, %d spill hits", st.Memo.Misses, st.Store.SpillHits)
	}
	for i := range fresh {
		want := normalize(fresh[i].raw)
		if !bytes.Equal(normalize(memo[i].raw), want) {
			return fmt.Errorf("%s: memo-served answer differs from the fresh one", suite[i].Name)
		}
		if !bytes.Equal(normalize(stored[i].raw), want) {
			return fmt.Errorf("%s: store-served answer differs from the fresh one", suite[i].Name)
		}
	}
	return nil
}
