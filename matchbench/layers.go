package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/idiomatic"
	"repro/internal/constraint"
)

// replayOnce runs the workload's inputs through a fresh replayer in the
// state the service saw them in — an empty memo for cold-suite, a memo
// warmed by one verbatim suite pass for warm-single — and returns it with
// the wall time of the replay (store open included, final flush excluded).
// The cold replay also attaches a new state dir, which the service in the
// workload does not have, so that the store's spill writes are timed.
func (r *run) replayOnce(ros *roster, warm *constraint.SolveCache, tr *tracer, pass int) (*replayer, time.Duration, error) {
	memo := warm
	if memo == nil {
		memo = constraint.NewSolveCache()
	}
	rp, err := newReplayer(ros, memo, tr)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if r.workload == coldSuite {
		if err := rp.openStore(replayDir(r, pass)); err != nil {
			return nil, 0, err
		}
	}
	for i, m := range r.replayInputs {
		rp.module(m, fmt.Sprintf("r%d-%03d", pass, i))
	}
	took := time.Since(start)
	rp.closeStore()
	return rp, took, nil
}

func replayDir(r *run, pass int) string { return filepath.Join(r.work, fmt.Sprintf("replay-%d", pass)) }

// benchPack is the idiom pack the restart pass registers, so that its boot
// replays a non-empty pack log.
var benchPack = []idiomatic.TopSpec{
	{Name: "Dot", Top: "Reduction", Class: "Scalar Reduction", Scheme: "reduction", Kind: "reduction"},
}

// restartPass times the store's read side and boot for cold-suite. It
// registers benchPack on the state dir a traced cold pass filled, through a
// service, then replays the same inputs, traced, through a fresh memo
// attached to that dir: the boot opens the store (temp sweep over every
// blob) and replays the pack log, and every solve is a store read-through.
func (r *run) restartPass(ros *roster, dir string) (*replayer, *tracer, error) {
	svc, err := idiomatic.NewService(idiomatic.ServiceOptions{StateDir: dir})
	if err != nil {
		return nil, nil, err
	}
	_, err = svc.RegisterPack("bench", idiomatic.LibrarySource(), benchPack)
	svc.Close()
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	rp, err := newReplayer(ros, constraint.NewSolveCache(), tr)
	if err != nil {
		return nil, nil, err
	}
	if err := rp.openStore(dir); err != nil {
		return nil, nil, err
	}
	for i, m := range r.replayInputs {
		rp.module(m, fmt.Sprintf("s-%03d", i))
	}
	rp.closeStore()
	r.attempted += rp.c.modules
	r.failed += rp.c.failed
	if rp.c.firstProblem != "" {
		r.note("restart pass: " + rp.c.firstProblem)
	}
	return rp, tr, nil
}

// perLayer replays the workload untraced and traced, writes the spans, and
// renders the per-layer metrics.
func (r *run) perLayer(readyMean, activeMean float64) (map[string]metric, error) {
	if len(r.replayInputs) == 0 {
		return nil, errors.New("no replay inputs recorded")
	}
	ros, err := loadRoster()
	if err != nil {
		return nil, err
	}
	var warm *constraint.SolveCache
	if r.workload == warmSingle {
		warm = constraint.NewSolveCache()
		rp, err := newReplayer(ros, warm, nil)
		if err != nil {
			return nil, err
		}
		for i, m := range verbatimSuite() {
			rp.module(m, fmt.Sprintf("w-%03d", i))
		}
	}
	// Untraced and traced replays alternate; the overhead compares their
	// medians, and the last traced replay supplies the layer figures.
	var plain, traced []float64
	var rp *replayer
	var tr *tracer
	for pass := 0; pass < 2*overheadPairs; pass++ {
		var t *tracer
		if pass%2 == 1 {
			t = newTracer()
		}
		p, took, err := r.replayOnce(ros, warm, t, pass)
		if err != nil {
			return nil, err
		}
		r.attempted += p.c.modules
		r.failed += p.c.failed
		if p.c.firstProblem != "" {
			r.note("replay: " + p.c.firstProblem)
		}
		if t == nil {
			plain = append(plain, took.Seconds())
		} else {
			traced = append(traced, took.Seconds())
			rp, tr = p, t
		}
	}
	c := rp.c
	if err := r.writeSpans(tr, ""); err != nil {
		return nil, err
	}
	// The store's read side comes from the restart pass on cold-suite; it
	// reads 0 on warm-single, whose service has no state dir.
	var loads, loadHits, boots int64
	var openSelf, replayTotal, loadSelf time.Duration
	if r.workload == coldSuite {
		rs, rtr, err := r.restartPass(ros, replayDir(r, 2*overheadPairs-1))
		if err != nil {
			return nil, err
		}
		if err := r.writeSpans(rtr, "-restart"); err != nil {
			return nil, err
		}
		loads, loadHits, boots = rs.st.loads.Load(), rs.st.loadHits.Load(), int64(rs.c.boots)
		openSelf, replayTotal = rtr.selfTimes()["store.open"], rtr.totals()["store.pack_replay"]
		loadSelf = rtr.selfTimes()["store.load"]
	}

	self, total := tr.selfTimes(), tr.totals()
	perMod := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return ms(d) / float64(c.modules)
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perBoot := func(d time.Duration) float64 {
		if boots == 0 {
			return 0
		}
		return ms(d) / float64(boots)
	}
	staged := tr.stagedInModules()
	covered := total[spanModule] - total[spanHelper]

	var writeNs, dropped int64
	if rp.st != nil {
		writeNs, dropped = rp.st.writeNs.Load(), rp.st.dropped.Load()
	}
	mods := float64(c.modules)
	svcMods := float64(r.modulesOK)
	if svcMods == 0 {
		svcMods = 1
	}
	allocPerSolve := 0.0
	if c.freshSolves > 0 {
		allocPerSolve = float64(c.solveAllocBytes) / 1024 / float64(c.freshSolves)
	}

	return map[string]metric{
		"constraint.solve_ms":               {perMod("constraint.solve"), "ms/module"},
		"constraint.fresh_solves":           {float64(c.freshSolves), "count"},
		"constraint.solver_steps":           {float64(c.solverSteps), "count"},
		"constraint.productive_solve_ratio": {ratio(c.productive, c.freshSolves), "ratio"},
		"constraint.alloc_kb_per_solve":     {allocPerSolve, "KB"},
		"similarity.prescreen_ms":           {perMod("similarity.extract", "similarity.score"), "ms/module"},
		"similarity.pairs_scored":           {float64(c.pairs), "count"},
		"similarity.zero_score_share":       {ratio(c.zeroScore, c.pairs), "ratio"},
		"cc.parse_ms":                       {perMod("cc.parse"), "ms/module"},
		"cc.lower_ms":                       {perMod("cc.lower"), "ms/module"},
		"cc.source_kb":                      {float64(c.sourceBytes) / 1024 / mods, "KB/module"},
		"ir.instructions":                   {float64(c.instructions) / mods, "count/module"},
		"analysis.analyze_ms":               {perMod("analysis.analyze"), "ms/module"},
		"analysis.functions":                {float64(c.functions), "count"},
		"constraint.fingerprint_ms":         {perMod("constraint.fingerprint"), "ms/module"},
		"constraint.memo_get_ms":            {perMod("constraint.memo_get"), "ms/module"},
		"constraint.memo_hit_ratio":         {ratio(c.memoHits, c.memoGets), "ratio"},
		"constraint.memo_put_ms":            {perMod("constraint.memo_put"), "ms/module"},
		"transform.apply_ms":                {perMod("transform.apply"), "ms/module"},
		"transform.plans":                   {float64(c.plans), "count"},
		"hetero.select_ms":                  {perMod("hetero.select"), "ms/module"},
		"encode.marshal_ms":                 {perMod("encode.marshal"), "ms/module"},
		"encode.bytes_per_module":           {float64(c.encodedBytes) / mods, "B/module"},
		"store.open_ms":                     {perBoot(openSelf), "ms"},
		"store.pack_replay_ms":              {perBoot(replayTotal), "ms"},
		"store.loads":                       {float64(loadHits), "count"},
		"store.load_ms":                     {ms(loadSelf) / mods, "ms/module"},
		"store.spill_hit_ratio":             {ratio(int(loadHits), int(loads)), "ratio"},
		"store.write_ms":                    {float64(writeNs) / 1e6 / mods, "ms/module"},
		"store.writes_dropped":              {float64(dropped), "count"},
		"pipeline.ready_queue_mean":         {readyMean, "count"},
		"pipeline.solve_active_mean":        {activeMean, "count"},
		"httpapi.wait_ms":                   {percentile(r.waitMs, 50), "ms"},
		"detect.instances":                  {float64(c.instances), "count"},
		"detect.claim_keep_ratio":           {ratio(c.instances, c.solutions), "ratio"},
		"trace.overhead_pct":                {100 * (percentile(traced, 50) - percentile(plain, 50)) / percentile(plain, 50), "%"},
		"trace.coverage":                    {staged.Seconds() / covered.Seconds(), "ratio"},
		"replay.modules":                    {mods, "count"},
		"service.memo_hits":                 {float64(r.svc.memoHits) / svcMods, "count/module"},
		"service.memo_misses":               {float64(r.svc.memoMisses) / svcMods, "count/module"},
		"service.prune_reordered":           {float64(r.svc.pruneReorder) / svcMods, "count/module"},
		"service.prescreen_ms":              {float64(r.svc.prescreenNs) / 1e6 / svcMods, "ms/module"},
	}, nil
}

// writeSpans writes a traced replay's spans, one JSON object a line, to
// <root>/.bench_build/traces/<workload>-seed<seed><suffix>.ndjson.
func (r *run) writeSpans(tr *tracer, suffix string) error {
	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d%s.ndjson", r.workload, r.seed, suffix)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
