// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with `go test -bench=.`),
// plus the ablation benchmarks for the design choices called out in
// DESIGN.md §5:
//
//	BenchmarkTable1Detection     — idiom detection over all 21 benchmarks
//	BenchmarkDetectParallel      — concurrent engine scaling, fresh solves
//	BenchmarkPipeline            — streaming compile→detect, memo on/off
//	BenchmarkServeMatch          — /v1/match/stream over the HTTP front door
//	BenchmarkTable2CompileTime   — per-benchmark compile + detect cost
//	BenchmarkTable3APIs          — full per-API performance sweep
//	BenchmarkFig16Classes        — per-benchmark idiom classes
//	BenchmarkFig17Coverage       — runtime coverage pipeline
//	BenchmarkFig18Speedup        — end-to-end speedups, best API per device
//	BenchmarkFig19Handwritten    — comparison against OpenMP/OpenCL models
//	BenchmarkAblation*           — solver and runtime design ablations
package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/idiomatic"
	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/hetero"
	"repro/internal/httpapi"
	"repro/internal/idioms"
	"repro/internal/idl"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// --- Table 1: detection over the full suite ---

func BenchmarkTable1Detection(b *testing.B) {
	mods := compileAll(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, mod := range mods {
			res, err := detect.Module(mod.mod, detect.Options{})
			if err != nil {
				b.Fatal(err)
			}
			total += len(res.Instances)
		}
		if total != 60 {
			b.Fatalf("detected %d idioms, want 60", total)
		}
	}
}

// BenchmarkDetectParallel measures the concurrent engine over the full
// workloads.All() suite at several worker counts. workers=1 is the scaling
// baseline (identical task graph, no pool fan-out); compare against higher
// counts for speedup. Memoization is disabled so every iteration measures
// fresh backtracking solves (BenchmarkPipeline covers the memoized path).
// Results are asserted identical to the sequential total, so the benchmark
// doubles as a determinism smoke check.
func BenchmarkDetectParallel(b *testing.B) {
	named := compileAll(b)
	mods := make([]*ir.Module, len(named))
	for i, nm := range named {
		mods[i] = nm.mod
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := detect.NewEngine(detect.Options{Workers: workers, NoMemo: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := eng.Modules(mods)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, res := range results {
					total += len(res.Instances)
				}
				if total != 60 {
					b.Fatalf("detected %d idioms, want 60", total)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the streaming compile→detect pipeline end to
// end over all 21 workloads: every iteration submits each workload's compile
// thunk and collects per-module results, so frontend and solver work overlap
// (no compileAll barrier). memo=off measures fresh solves; memo=on shares a
// solve cache across iterations and measures the fingerprint-memoized steady
// state (compile + analysis + cache rehydration).
func BenchmarkPipeline(b *testing.B) {
	ws := workloads.All()
	for _, workers := range []int{1, 2, 4, 8} {
		for _, memo := range []bool{false, true} {
			workers, memo := workers, memo
			b.Run(fmt.Sprintf("workers=%d/memo=%v", workers, memo), func(b *testing.B) {
				opts := detect.Options{Workers: workers, NoMemo: !memo}
				if memo {
					opts.Memo = constraint.NewSolveCache()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := pipeline.New(pipeline.Options{Detect: opts})
					if err != nil {
						b.Fatal(err)
					}
					jobs := make([]*pipeline.Job, 0, len(ws))
					for _, w := range ws {
						jobs = append(jobs, p.Submit(w.Name, w.Compile))
					}
					results, err := pipeline.Collect(jobs)
					if err != nil {
						b.Fatal(err)
					}
					p.Close()
					total := 0
					for _, res := range results {
						total += len(res.Instances)
					}
					if total != 60 {
						b.Fatalf("detected %d idioms, want 60", total)
					}
				}
			})
		}
	}
}

// BenchmarkTable1PerBenchmark reports per-benchmark detection cost.
func BenchmarkTable1PerBenchmark(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			mod, err := w.Compile()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := detect.Module(mod, detect.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: compile-time cost without and with IDL ---

func BenchmarkTable2CompileTime(b *testing.B) {
	b.Run("withoutIDL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range workloads.All() {
				if _, err := cc.Compile(w.Name, w.Source); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("withIDL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range workloads.All() {
				mod, err := cc.Compile(w.Name, w.Source)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := detect.Module(mod, detect.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Table 3 / Figures 18, 19: the performance pipeline ---

func BenchmarkTable3APIs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Performance(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig18Speedup(b *testing.B) {
	rows, err := experiments.Performance(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars := experiments.Fig18(rows)
		if len(bars) == 0 {
			b.Fatal("no bars")
		}
	}
}

func BenchmarkFig19Handwritten(b *testing.B) {
	rows, err := experiments.Performance(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig19(rows)) != 10 {
			b.Fatal("rows")
		}
	}
}

// --- Figures 16, 17 ---

func BenchmarkFig16Classes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 21 {
			b.Fatal("rows")
		}
	}
}

// --- Per-idiom solver benchmarks ---

// BenchmarkSolver measures one idiom's detection over one workload, so its
// B/op and allocs/op rows are the per-solve allocation cost.
func BenchmarkSolver(b *testing.B) {
	cases := []struct {
		idiom, bench string
	}{
		{"Reduction", "UA"},
		{"Histogram", "histo"},
		{"SPMV", "CG"},
		{"GEMM", "sgemm"},
		{"Stencil3", "stencil"},
	}
	for _, c := range cases {
		c := c
		b.Run(c.idiom, func(b *testing.B) {
			mod, err := workloads.ByName(c.bench).Compile()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := detect.Module(mod, detect.Options{Idioms: []string{c.idiom}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 1 (§4.4): variable ordering impacts solver pruning ---

func BenchmarkAblationVariableOrdering(b *testing.B) {
	prog, err := idl.ParseProgram(idioms.LibrarySource)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := workloads.ByName("CG").Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, ord := range []struct {
		name string
		o    constraint.Ordering
	}{
		{"greedy", constraint.OrderGreedy},
		{"appearance", constraint.OrderAppearance},
	} {
		ord := ord
		b.Run(ord.name, func(b *testing.B) {
			problem, err := constraint.Compile(prog, "SPMV", constraint.CompileOptions{Ordering: ord.o})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				for _, fn := range mod.Functions {
					solver := constraint.NewSolver(problem, analysis.Analyze(fn))
					solver.Solve()
					steps += solver.Steps
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// --- Ablation 2: atom-indexed candidate generation vs naive enumeration ---

func BenchmarkAblationCandidateGeneration(b *testing.B) {
	prog, err := idl.ParseProgram(idioms.LibrarySource)
	if err != nil {
		b.Fatal(err)
	}
	problem, err := constraint.Compile(prog, "Reduction", constraint.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := workloads.ByName("UA").Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		naive bool
	}{
		{"indexed", false},
		{"naive", true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				for _, fn := range mod.Functions {
					solver := constraint.NewSolver(problem, analysis.Analyze(fn))
					solver.NaiveCandidates = mode.naive
					solver.Solve()
					steps += solver.Steps
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// --- Ablation 3: the lazy-copy transfer optimization (the red bars) ---

func BenchmarkAblationLazyCopy(b *testing.B) {
	br, err := experiments.Pipeline(workloads.ByName("CG"), 1)
	if err != nil {
		b.Fatal(err)
	}
	gpu := hetero.DeviceByKind(hetero.GPU)
	api := hetero.APIByName("cusparse")
	for _, mode := range []struct {
		name string
		lazy bool
	}{
		{"lazy", true},
		{"eager", false},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				t, err := hetero.Estimate(br.RunCost, gpu, api,
					hetero.TimingOptions{LazyCopy: mode.lazy, WorkScale: experiments.ModelWorkScale})
				if err != nil {
					b.Fatal(err)
				}
				total = t
			}
			b.ReportMetric(total*1000, "modelled-ms")
		})
	}
}

// --- Ablation 4: API choice per platform (try-all vs fixed mapping) ---

func BenchmarkAblationAPIChoice(b *testing.B) {
	br, err := experiments.Pipeline(workloads.ByName("sgemm"), 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := hetero.TimingOptions{WorkScale: experiments.ModelWorkScale}
	b.Run("try-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, dev := range hetero.Devices() {
				if _, ok := hetero.BestOnDevice(br.RunCost, dev, opts); !ok {
					b.Fatal("no API")
				}
			}
		}
	})
	b.Run("fixed-lift", func(b *testing.B) {
		lift := hetero.APIByName("lift")
		for i := 0; i < b.N; i++ {
			for _, dev := range hetero.Devices() {
				if _, err := hetero.Estimate(br.RunCost, dev, lift, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Serving-path match benchmark ---

// BenchmarkServeMatch measures the full match pipeline behind the HTTP
// front door: the 21-workload suite POSTed to /v1/match/stream — compile,
// detect, transform, backend selection and NDJSON framing per request. One
// untimed pass warms the service first, so every timed pass serves its
// solves from the memo and ns/op does not depend on b.N.
func BenchmarkServeMatch(b *testing.B) {
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{Workers: 4, QueueLimit: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.New(svc))
	defer ts.Close()
	var reqs []idiomatic.MatchRequest
	for _, w := range workloads.All() {
		reqs = append(reqs, idiomatic.MatchRequest{Name: w.Name, Source: w.Source})
	}
	body, err := json.Marshal(reqs)
	if err != nil {
		b.Fatal(err)
	}
	pass := func() {
		resp, err := http.Post(ts.URL+"/v1/match/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		lines, plans := 0, 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var res idiomatic.MatchResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				b.Fatal(err)
			}
			if res.Err != "" {
				b.Fatalf("%s: %s", res.Name, res.Err)
			}
			lines++
			plans += len(res.Plans)
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if lines != len(reqs) || plans != 60 {
			b.Fatalf("stream delivered %d lines / %d plans, want %d / 60", lines, plans, len(reqs))
		}
	}
	pass() // warm-up: fills the memo, untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// --- End-to-end pipeline benchmark ---

func BenchmarkEndToEndPipeline(b *testing.B) {
	for _, name := range []string{"CG", "sgemm", "stencil"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w := workloads.ByName(name)
			for i := 0; i < b.N; i++ {
				br, err := experiments.Pipeline(w, 1)
				if err != nil {
					b.Fatal(err)
				}
				if br.Mismatch != "" {
					b.Fatal(br.Mismatch)
				}
			}
		})
	}
}

// --- helpers ---

type namedModule struct {
	name string
	mod  *ir.Module
}

// compileAll compiles every workload concurrently (the sequential compile
// barrier is gone here too; benchmark setup cost shrinks with cores).
func compileAll(b *testing.B) []namedModule {
	b.Helper()
	ws := workloads.All()
	out := make([]namedModule, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mod, err := w.Compile()
			out[i] = namedModule{w.Name, mod}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("%s: %v", ws[i].Name, err)
		}
	}
	return out
}
