package main

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/idiomatic"
	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/constraint"
	"repro/internal/detect"
	"repro/internal/hetero"
	"repro/internal/idioms"
	"repro/internal/ir"
	"repro/internal/similarity"
	"repro/internal/store"
	"repro/internal/transform"
)

// span is one timed call into a layer. Parent is the index of the enclosing
// span (-1 at the root) and Req the request ID of the module it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// tracer records spans in memory on one goroutine. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   string
}

// newTracer starts a trace with room for a suite's spans, so recording
// rarely grows the slice mid-replay.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// childTime is, per span, the time its child spans cover (children of one
// goroutine's spans never overlap).
func (t *tracer) childTime() []int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	return child
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := t.childTime()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// stagedInModules sums the self time of the layer spans inside module
// spans: everything under a module span except the module span itself and
// the replay's detection helper.
func (t *tracer) stagedInModules() time.Duration {
	child := t.childTime()
	var out int64
	for i, s := range t.spans {
		root := i
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		if root != i && t.spans[root].Name == spanModule && s.Name != spanHelper {
			out += s.End - s.Start - child[i]
		}
	}
	return time.Duration(out)
}

// totals sums each span name's whole duration.
func (t *tracer) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// Spans that are not a layer of the service: the per-module root, and the
// detection call the replay makes only to obtain claim-merged instances
// (claim-merge itself is not reachable from outside internal/detect).
const (
	spanModule = "module"
	spanHelper = "replay.detect_helper"
)

// timedStore wraps the state dir so the replay sees every call the memo
// makes into it: loads as spans on the replay goroutine, async writes timed
// on the store's writer goroutine. Recording is on only while tr is set,
// which the replay clears around calls that may reach the store from other
// goroutines.
type timedStore struct {
	st *store.Store
	tr *tracer

	loads, loadHits, writeNs, dropped atomic.Int64
}

func (w *timedStore) Load(key constraint.SpillKey) ([]byte, bool) {
	if w.tr == nil {
		return w.st.Load(key)
	}
	sp := w.tr.begin("store.load")
	p, ok := w.st.Load(key)
	w.tr.end(sp)
	w.loads.Add(1)
	if ok {
		w.loadHits.Add(1)
	}
	return p, ok
}

func (w *timedStore) Write(key constraint.SpillKey, payload []byte) error {
	t0 := time.Now()
	err := w.st.Write(key, payload)
	w.writeNs.Add(time.Since(t0).Nanoseconds())
	return err
}

func (w *timedStore) WriteAsync(key constraint.SpillKey, encode func() []byte, done func(err error)) bool {
	var t0 time.Time // encode and done both run on the writer goroutine
	ok := w.st.WriteAsync(key,
		func() []byte { t0 = time.Now(); return encode() },
		func(err error) {
			w.writeNs.Add(time.Since(t0).Nanoseconds())
			done(err)
		})
	if !ok {
		w.dropped.Add(1)
	}
	return ok
}

// roster is the paper's default idiom set with the compiled problems and
// prescreen signatures the service's engine uses (problems are compiled
// once per process, so these are the very pointers the memo keys on).
type roster struct {
	probs []*constraint.Problem
	sigs  []*similarity.Signature
}

func loadRoster() (*roster, error) {
	ros := idioms.All()
	probs, err := idioms.Problems(ros)
	if err != nil {
		return nil, err
	}
	r := &roster{}
	for _, idm := range ros {
		p := probs[idm.Name]
		constraint.Prepare(p)
		r.probs = append(r.probs, p)
		r.sigs = append(r.sigs, similarity.Compile(idm.Name, p))
	}
	return r, nil
}

// replayCounts are the exact counts of one serial replay.
type replayCounts struct {
	modules, failed           int
	sourceBytes, instructions int
	functions                 int
	pairs, zeroScore          int
	memoGets, memoHits        int
	freshSolves, productive   int
	solverSteps               int
	solveAllocBytes           uint64
	solutions, instances      int
	plans, encodedBytes       int
	boots                     int
	firstProblem              string
}

// replayer runs modules through the layers' public functions one call at a
// time on the calling goroutine, in the order the service's pipeline does.
type replayer struct {
	ros  *roster
	memo *constraint.SolveCache
	eng  *detect.Engine // obtains claim-merged instances; shares memo
	st   *timedStore    // nil without a state dir
	tr   *tracer
	c    replayCounts

	allocSample []metrics.Sample
}

func newReplayer(ros *roster, memo *constraint.SolveCache, tr *tracer) (*replayer, error) {
	eng, err := detect.NewEngine(detect.Options{Workers: 1, Memo: memo})
	if err != nil {
		return nil, err
	}
	return &replayer{
		ros: ros, memo: memo, eng: eng, tr: tr,
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}, nil
}

// openStore opens dir the way a booting service does — store open with its
// temp sweep, then pack-log replay through the registry's compile path — and
// attaches it to the memo.
func (r *replayer) openStore(dir string) error {
	sp := r.tr.begin("store.open")
	st, err := store.Open(dir)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.c.boots++
	sp = r.tr.begin("store.pack_replay")
	recs, _, err := st.ReplayPacks()
	if err == nil {
		reg := idioms.NewRegistry()
		for _, rec := range recs {
			var tops []idioms.TopSpec
			if err = json.Unmarshal(rec.Idioms, &tops); err != nil {
				break
			}
			if _, err = reg.Register(rec.Name, rec.Source, tops); err != nil {
				break
			}
		}
	}
	r.tr.end(sp)
	if err != nil {
		st.Close()
		return fmt.Errorf("replaying packs: %w", err)
	}
	r.st = &timedStore{st: st, tr: r.tr}
	r.memo.AttachStore(r.st)
	return nil
}

// closeStore flushes pending spills and closes the state dir. The dir is
// scratch the run deletes, so a close error cannot change a figure.
func (r *replayer) closeStore() {
	if r.st != nil {
		r.st.st.Flush()
		_ = r.st.st.Close()
	}
}

func (r *replayer) allocBytes() uint64 {
	metrics.Read(r.allocSample)
	return r.allocSample[0].Value.Uint64()
}

// module replays one /v1/match of m: compile, analysis, prescreen, memo
// lookup, solve and memo store per (function × idiom), then instances,
// backend selection, transformation and the wire encoding. It checks the
// answer like the HTTP path's.
func (r *replayer) module(m module, req string) {
	tr := r.tr
	if tr != nil {
		tr.req = req
	}
	root := tr.begin(spanModule)
	defer tr.end(root)
	r.c.modules++
	r.c.sourceBytes += len(m.Source)
	fail := func(msg string) {
		r.c.failed++
		if r.c.firstProblem == "" {
			r.c.firstProblem = m.Name + ": " + msg
		}
	}

	sp := tr.begin("cc.parse")
	file, err := cc.Parse(m.Source)
	tr.end(sp)
	if err != nil {
		fail(err.Error())
		return
	}
	sp = tr.begin("cc.lower")
	mod, err := cc.CompileFile(m.Name, file)
	tr.end(sp)
	if err != nil {
		fail(err.Error())
		return
	}

	fns := mod.Functions
	infos := make([]*analysis.Info, len(fns))
	fps := make([]constraint.Fingerprint, len(fns))
	feats := make([]*similarity.Features, len(fns))
	for i, fn := range fns {
		for _, b := range fn.Blocks {
			r.c.instructions += len(b.Instrs)
		}
		sp = tr.begin("analysis.analyze")
		infos[i] = analysis.Analyze(fn)
		tr.end(sp)
		sp = tr.begin("constraint.fingerprint")
		fps[i] = constraint.FingerprintInfo(infos[i])
		tr.end(sp)
		sp = tr.begin("similarity.extract")
		feats[i] = similarity.Extract(infos[i])
		tr.end(sp)
	}
	r.c.functions += len(fns)

	for fi := range fns {
		for si, prob := range r.ros.probs {
			sp = tr.begin("similarity.score")
			score := r.ros.sigs[si].Score(feats[fi])
			tr.end(sp)
			r.c.pairs++
			if score == 0 {
				r.c.zeroScore++
			}
			sp = tr.begin("constraint.memo_get")
			sols, steps, ok := r.memo.Get(prob, fps[fi], infos[fi])
			tr.end(sp)
			r.c.memoGets++
			if ok {
				r.c.memoHits++
				r.c.solutions += len(sols)
				continue
			}
			var a0 uint64
			if tr != nil {
				a0 = r.allocBytes()
			}
			sp = tr.begin("constraint.solve")
			t0 := time.Now()
			solver := constraint.NewSolver(prob, infos[fi])
			sols = solver.Solve()
			took := time.Since(t0)
			tr.end(sp)
			if tr != nil {
				r.c.solveAllocBytes += r.allocBytes() - a0
			}
			steps = solver.Steps
			r.c.freshSolves++
			r.c.solverSteps += steps
			r.c.solutions += len(sols)
			if len(sols) > 0 {
				r.c.productive++
			}
			sp = tr.begin("constraint.memo_put")
			r.memo.Put(prob, fps[fi], infos[fi], sols, steps)
			r.memo.RecordCost(prob, infos[fi], took)
			tr.end(sp)
		}
	}

	// The engine re-derives the instances from the memo (every solve above is
	// now a hit) and claim-merges them; the store is kept off the trace while
	// its goroutines run.
	sp = tr.begin(spanHelper)
	if r.st != nil {
		r.st.tr = nil
	}
	res, err := r.eng.Module(mod)
	if r.st != nil {
		r.st.tr = tr
	}
	tr.end(sp)
	if err != nil {
		fail(err.Error())
		return
	}
	r.c.instances += len(res.Instances)

	plans := make([]idiomatic.PlanCall, 0, len(res.Instances))
	poisoned := map[*ir.Function]bool{}
	for _, inst := range res.Instances {
		plans = append(plans, r.plan(mod, inst, poisoned))
	}
	r.c.plans += len(plans)

	out := idiomatic.MatchResult{
		DetectResult: idiomatic.WireResult(0, m.Name, res, idiomatic.RequestOptions{}),
		Plans:        plans,
	}
	sp = tr.begin("encode.marshal")
	raw, err := json.Marshal(out)
	tr.end(sp)
	if err != nil {
		fail(err.Error())
		return
	}
	r.c.encodedBytes += len(raw)
	if msg := checkResult(out, m); msg != "" {
		fail(msg)
	}
}

var allDevices = []hetero.DeviceKind{hetero.CPU, hetero.IGPU, hetero.GPU}

// plan selects a backend for one instance across all devices and applies
// the code replacement, re-selecting when the outlined kernel turns out to
// branch. It is a copy of idiomatic.planInstances (idiomatic/match.go),
// which is unexported, for an untargeted request, spelled out so each layer
// call gets its own span; poisoned carries planInstances' per-module record
// of functions an earlier failed Apply left partially rewritten. Known
// differences: the device argument is hetero.CPU, the zero DeviceKind that
// planInstances passes for an untargeted request (ignored when every device
// is allowed), and offloadFor is inlined as the ranking loop. A change to
// planInstances does not reach this copy, nor the transform.apply_ms and
// hetero.select_ms figures, until it is mirrored here.
func (r *replayer) plan(mod *ir.Module, inst detect.Instance, poisoned map[*ir.Function]bool) idiomatic.PlanCall {
	tr := r.tr
	pc := idiomatic.PlanCall{Idiom: inst.Idiom.Name, Class: inst.Idiom.Class.String(), Function: inst.Function.Ident}
	kind := inst.Idiom.Kind
	sp := tr.begin("hetero.select")
	backend, selected := "lift", false
	if api, dev, ok := hetero.SelectBackend(kind, hetero.CPU, true, false); ok {
		backend, selected = api, true
		pc.Device = dev.String()
	}
	tr.end(sp)
	if poisoned[inst.Function] {
		pc.Offload = offload(kind, false)
		pc.Err = "skipped: an earlier transformation of this function failed"
		return pc
	}
	sp = tr.begin("transform.apply")
	call, err := transform.Apply(mod, inst, backend)
	tr.end(sp)
	if err != nil {
		poisoned[inst.Function] = true
		pc.Offload = offload(kind, false)
		pc.Err = err.Error()
		return pc
	}
	sp = tr.begin("hetero.select")
	branchy := hetero.KernelHasBranches(call.Kernel)
	if branchy && selected {
		api, dev, ok := hetero.SelectBackend(kind, hetero.CPU, true, true)
		if !ok {
			api, pc.Device = "lift", ""
		} else {
			pc.Device = dev.String()
		}
		if api != backend {
			call.Retarget(mod, api)
		}
		backend = api
	}
	pc.Offload = offload(kind, branchy)
	tr.end(sp)
	pc.Backend = backend
	pc.Extern = call.Extern
	if call.Kernel != nil {
		pc.Kernel = call.Kernel.Ident
	}
	pc.Unsound = call.Unsound
	pc.RuntimeChecks = append([]string(nil), call.RuntimeChecks...)
	pc.Rendering = call.String()
	return pc
}

// offload ranks the APIs serving kind on every device, as the service's
// offloadFor does for an untargeted request.
func offload(kind string, branchy bool) []idiomatic.DeviceOffload {
	if kind == "" {
		return nil
	}
	var out []idiomatic.DeviceOffload
	for _, d := range allDevices {
		ranked := hetero.RankOnDevice(d, kind, branchy)
		if len(ranked) == 0 {
			continue
		}
		do := idiomatic.DeviceOffload{Device: d.String()}
		for _, x := range ranked {
			do.Choices = append(do.Choices, idiomatic.APIChoice{API: x.API, Efficiency: x.Efficiency, EffectiveGFLOPS: x.EffectiveGFLOPS})
		}
		out = append(out, do)
	}
	return out
}
