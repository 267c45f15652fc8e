// Package lint assembles the idiomvet analyzer suite. Each analyzer pins one
// invariant the repo's tests can only probe pointwise:
//
//   - mapdeterminism — map iteration order must not reach wire output,
//     golden files, or similarity scores (PR 7 golden flake class),
//   - cancelpoll — solver candidate loops poll cancellation per candidate
//     (bounded cancellation latency, no binding after an abort),
//   - fsyncrename — blob-store renames publish only fsynced temp files
//     (PR 8 durability contract),
//   - errenvelope — every non-2xx HTTP response carries the v1 error
//     envelope (PR 6 API contract),
//   - wallclock — solve and merge paths stay wall-clock free so memoized
//     payloads replay byte-identically (PR 8 warm-state determinism).
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/cancelpoll"
	"repro/internal/lint/errenvelope"
	"repro/internal/lint/fsyncrename"
	"repro/internal/lint/mapdeterminism"
	"repro/internal/lint/wallclock"
)

// Suite is every idiomvet analyzer, in the order findings group in output.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mapdeterminism.Analyzer,
		cancelpoll.Analyzer,
		fsyncrename.Analyzer,
		errenvelope.Analyzer,
		wallclock.Analyzer,
	}
}
