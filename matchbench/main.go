// Command matchbench is the match service's benchmark. It boots
// idiomatic.Service behind httpapi.New on a loopback listener in this
// process and drives it over HTTP with one of two closed-loop workloads:
//
//	cold-suite     one client; every iteration boots a fresh service without
//	               a state dir and streams the seeded, renamed suite
//	warm-single    a service warmed by one suite pass; NumCPU clients send
//	               single-module /v1/match requests drawn from the suite
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing
// off. With -trace 1 it runs the same workload (sampling Service.Stats) and
// then replays the workload's inputs serially through each layer's public
// functions, once untraced and once recording spans, and prints the
// per-layer metrics. Every answer is checked; the last line of standard
// output is the result object. Run it from the repository root:
//
//	bash matchbench/run.sh --workload cold-suite --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/idiomatic"
)

const (
	coldSuite  = "cold-suite"
	warmSingle = "warm-single"

	// warmBoots is how many services warm-single boots back to back, before
	// its measured phase, to take the set-up median.
	warmBoots = 25
	// heapIter is the iteration after which cold-suite reads the live heap,
	// so that every run reads it at the same point whatever its length.
	heapIter = 2
	// warmReplayDraws is how many of each client's draws the warm-single
	// replay runs.
	warmReplayDraws = 32
	// overheadPairs is how many untraced and traced replays a traced run
	// alternates to measure the tracing overhead.
	overheadPairs = 3
	// samplePeriod spaces the Service.Stats samples of a traced run.
	samplePeriod = 2 * time.Millisecond
	// warmWindow is the length of one warm-single measurement window, and
	// warmUp the discarded traffic before the measured phase.
	warmWindow = 2 * time.Second
	warmUp     = time.Second
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "cold-suite or warm-single")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced replay")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()

	switch *workload {
	case coldSuite, warmSingle:
	default:
		fmt.Fprintf(os.Stderr, "matchbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "matchbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	// More Ps than CPUs makes the figures depend on the host's scheduler
	// rather than on the code.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "matchbench: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to run\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}

	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root,
	}
	r.work = filepath.Join(*root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "matchbench:", err)
		return 1
	}
	defer os.RemoveAll(r.work)

	host, err := json.Marshal(hostRecord(r))
	if err != nil {
		fmt.Fprintln(os.Stderr, "matchbench:", err)
		return 1
	}
	fmt.Println("host", string(host))

	metrics, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "matchbench:", err)
		return 1
	}
	if r.problem != "" {
		fmt.Fprintln(os.Stderr, "matchbench: first failure:", r.problem)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "matchbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run holds one benchmark run's configuration and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	work     string

	attempted, failed int
	problem           string

	windows               []window
	waitMs                []float64
	setupS                []float64
	modulesOK             int
	allocBytes, liveBytes uint64
	cpu                   time.Duration // process CPU time in the measured brackets

	svc     statsDelta
	sampler *sampler

	// replayInputs are the workload's generated inputs the traced replay
	// runs, in order.
	replayInputs []module
}

// iterSeed derives the seed of one input stream from the run's seed:
// i >= 0 is a suite iteration's renaming, -2 the identity check's, -10-k the order of antithetic pair k, and 1000+c
// warm-single client c's draws.
func iterSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func (r *run) note(problem string) {
	if r.problem == "" {
		r.problem = problem
	}
}

func (r *run) execute() (map[string]metric, error) {
	// Once per run: memo- and store-served answers must equal fresh ones.
	r.attempted++
	if err := checkIdentity(filepath.Join(r.work, "identity"), iterSeed(r.seed, -2)); err != nil {
		r.failed++
		r.note("identity: " + err.Error())
	}
	if r.trace {
		r.sampler = startSampler()
	}
	var err error
	switch r.workload {
	case coldSuite:
		err = r.coldSuite()
	case warmSingle:
		err = r.warmSingle()
	}
	ready, active := r.sampler.finish()
	if err != nil {
		return nil, err
	}
	if !r.trace {
		return r.endToEnd(), nil
	}
	return r.perLayer(ready, active)
}

// window is one slice of the measured phase: one antithetic pair of
// iterations of cold-suite, or one warmWindow of warm-single traffic.
// Latency and throughput are computed per window and reported as the median
// over windows, so CPU taken by other tenants of the host for a few seconds
// moves a few windows rather than the run's figure.
type window struct {
	moduleMs, requestMs []float64
	modules             int
	busy                time.Duration // time with a request in flight
}

// meter brackets work the service does in the measured phase for the CPU
// and allocation metrics. The benchmark's own work between brackets (input
// generation, answer checks, forced GCs) is left out of both.
type meter struct {
	alloc0 uint64
	cpu0   time.Duration
}

func startMeter() meter {
	a := totalAlloc()
	return meter{alloc0: a, cpu0: cpuTime()}
}

// stop adds the CPU time and bytes allocated since startMeter to the run's.
func (m meter) stop(r *run) {
	r.cpu += cpuTime() - m.cpu0
	r.allocBytes += totalAlloc() - m.alloc0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap is the heap in use after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recordSuite checks one suite answer and, when measured, records its
// latencies.
func (r *run) recordSuite(lines []line, total time.Duration, err error, suite []module, measured bool) {
	r.attempted += len(suite)
	if err != nil {
		r.failed += len(suite)
		r.note(err.Error())
		return
	}
	good, problem := checkSuite(lines, suite)
	ok := 0
	for _, g := range good {
		if g {
			ok++
		}
	}
	r.failed += len(suite) - ok
	if problem != "" {
		r.note(problem)
	}
	if !measured {
		return
	}
	// A window is one antithetic pair of iterations (see iterationSuite).
	if n := len(r.windows); n == 0 || len(r.windows[n-1].requestMs) == 2 {
		r.windows = append(r.windows, window{})
	}
	w := &r.windows[len(r.windows)-1]
	w.requestMs = append(w.requestMs, ms(total))
	w.modules += ok
	w.busy += total
	for i, ln := range lines {
		if good[i] {
			w.moduleMs = append(w.moduleMs, ms(ln.latency))
			r.waitMs = append(r.waitMs, ms(ln.latency)-float64(ln.res.ElapsedNs)/1e6)
		}
	}
	r.modulesOK += ok
}

// iterationSuite is the suite cold-suite sends in iteration i: renamed
// under the iteration's seed, in a seeded order that iterations 2k-1 and 2k
// share, the second one reversed.
func iterationSuite(seed int64, i int) ([]module, error) {
	suite, err := renamedSuite(iterSeed(seed, i))
	if err != nil {
		return nil, err
	}
	return seededOrder(suite, iterSeed(seed, -10-(i+1)/2), i%2 == 0), nil
}

// coldSuite runs the cold workload: each iteration boots a service without
// a state dir, timed as set-up, streams the suite renamed under the
// iteration's seed, and closes the service. The CPU and allocation metrics
// cover the boot, the stream and the close; the live heap is read after
// iteration heapIter. Iteration 0 is an unmeasured warm-up; iterations
// continue until the measured phase has lasted r.seconds and its last
// antithetic pair is complete.
//
// The service has no state dir: on a 2-vCPU VM whose ext4 file system other
// tenants share, the CPU cost of the fsynced spill writes followed the file
// system's state and moved cpu_ms_per_module by up to 70% between
// consecutive runs. The traced replay still times the writes.
func (r *run) coldSuite() error {
	var deadline time.Time
	for i := 0; ; i++ {
		suite, err := iterationSuite(r.seed, i)
		if err != nil {
			return err
		}
		if i == 1 {
			r.replayInputs = suite
			deadline = time.Now().Add(r.seconds)
		}
		measured := i > 0
		// Start in a quiet heap, not inside the previous suite's GC cycle.
		runtime.GC()
		m := startMeter()
		t0 := time.Now()
		s, err := boot(idiomatic.ServiceOptions{}, 1)
		if err != nil {
			return err
		}
		setup := time.Since(t0)
		before := s.svc.Stats()
		r.sampler.watch(s.svc)
		lines, total, err := s.stream(suite)
		r.sampler.watch(nil)
		if measured {
			m.stop(r)
		}
		if i == heapIter {
			r.liveBytes = liveHeap()
		}
		m = startMeter()
		s.close()
		if measured {
			m.stop(r)
			r.setupS = append(r.setupS, setup.Seconds())
			r.svc.add(before, s.svc.Stats())
		}
		r.recordSuite(lines, total, err, suite, measured)
		if measured && i%2 == 0 && time.Now().After(deadline) {
			return nil
		}
	}
}

// warmSingle boots warmBoots services (the last one serves), warms it with
// one verbatim suite pass and a discarded second of traffic, then runs
// NumCPU closed-loop clients of single-module requests for r.seconds.
func (r *run) warmSingle() error {
	clients := runtime.NumCPU()
	var s *server
	for i := 0; i < warmBoots; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = boot(idiomatic.ServiceOptions{}, clients); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i < warmBoots-1 {
			s.close()
		}
	}
	suite := verbatimSuite()
	lines, total, err := s.stream(suite)
	r.recordSuite(lines, total, err, suite, false)

	draws := make([]func() module, clients)
	for c := range draws {
		rng := newRand(iterSeed(r.seed, 1000+c))
		draws[c] = func() module { return suite[rng.Intn(len(suite))] }
		rr := newRand(iterSeed(r.seed, 1000+c))
		for k := 0; k < warmReplayDraws; k++ {
			r.replayInputs = append(r.replayInputs, suite[rr.Intn(len(suite))])
		}
	}
	r.clients(s, draws, warmUp, false)
	before := s.svc.Stats()
	runtime.GC()
	m := startMeter()
	r.sampler.watch(s.svc)
	r.clients(s, draws, r.seconds, true)
	r.sampler.watch(nil)
	m.stop(r)
	r.liveBytes = liveHeap()
	s.close()
	r.svc.add(before, s.svc.Stats())
	return nil
}

// clients runs one closed-loop client per draw function for d, each
// sending its next module only after the previous answer arrived. Measured
// answers are split into windows of about warmWindow by completion time.
func (r *run) clients(s *server, draws []func() module, d time.Duration, measured bool) {
	type acc struct {
		attempted, failed, ok int
		problem               string
		moduleMs, waitMs      []float64
		doneAt                []time.Duration
	}
	accs := make([]acc, len(draws))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range draws {
		wg.Add(1)
		go func(a *acc, draw func() module) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				m := draw()
				a.attempted++
				ln, err := s.match(m)
				msg := ""
				if err != nil {
					msg = err.Error()
				} else {
					msg = checkResult(ln.res, m)
				}
				if msg != "" {
					a.failed++
					if a.problem == "" {
						a.problem = m.Name + ": " + msg
					}
					continue
				}
				a.ok++
				a.moduleMs = append(a.moduleMs, ms(ln.latency))
				a.waitMs = append(a.waitMs, ms(ln.latency)-float64(ln.res.ElapsedNs)/1e6)
				a.doneAt = append(a.doneAt, time.Since(start))
			}
		}(&accs[c], draws[c])
	}
	wg.Wait()
	end := time.Since(start)
	n := int(d / warmWindow)
	if n < 1 {
		n = 1
	}
	wlen := d / time.Duration(n)
	ws := make([]window, n)
	for k := range ws {
		ws[k].busy = wlen
	}
	ws[n-1].busy = end - time.Duration(n-1)*wlen
	for _, a := range accs {
		if a.problem != "" {
			r.note(a.problem)
		}
		if !measured {
			// Warm-up answers are checked but not counted unless wrong.
			r.attempted += a.failed
			r.failed += a.failed
			continue
		}
		r.attempted += a.attempted
		r.failed += a.failed
		r.modulesOK += a.ok
		r.waitMs = append(r.waitMs, a.waitMs...)
		for i, at := range a.doneAt {
			k := min(int(at/wlen), n-1)
			ws[k].moduleMs = append(ws[k].moduleMs, a.moduleMs[i])
			ws[k].requestMs = append(ws[k].requestMs, a.moduleMs[i])
			ws[k].modules++
		}
	}
	if measured {
		r.windows = append(r.windows, ws...)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the p-th percentile of xs, interpolating linearly between
// the closest ranks (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	k := int(pos)
	if k+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[k] + (pos-float64(k))*(s[k+1]-s[k])
}

// endToEnd renders the metrics a caller of the service sees.
func (r *run) endToEnd() map[string]metric {
	perModule := func(x float64) float64 {
		if r.modulesOK == 0 {
			return 0
		}
		return x / float64(r.modulesOK)
	}
	// median over windows of a per-window figure
	med := func(f func(w window) float64) float64 {
		xs := make([]float64, len(r.windows))
		for i, w := range r.windows {
			xs[i] = f(w)
		}
		return percentile(xs, 50)
	}
	modulePct := func(p float64) float64 {
		return med(func(w window) float64 { return percentile(w.moduleMs, p) })
	}
	return map[string]metric{
		"module_p50_ms":       {modulePct(50), "ms"},
		"module_p90_ms":       {modulePct(90), "ms"},
		"module_p99_ms":       {modulePct(99), "ms"},
		"request_p50_ms":      {med(func(w window) float64 { return percentile(w.requestMs, 50) }), "ms"},
		"throughput_mps":      {med(func(w window) float64 { return float64(w.modules) / w.busy.Seconds() }), "1/s"},
		"setup_s":             {percentile(r.setupS, 50), "s"},
		"cpu_ms_per_module":   {perModule(ms(r.cpu)), "ms"},
		"alloc_kb_per_module": {perModule(float64(r.allocBytes) / 1024), "KB"},
		"live_heap_mb":        {float64(r.liveBytes) / (1 << 20), "MB"},
	}
}

// statsDelta accumulates Service.Stats() counter deltas over the services
// a run measured. The service's own counts depend on how concurrent solves
// interleave (two services solving the same suite can differ by a few
// misses), so claims about counts use the serial replay's exact figures.
type statsDelta struct {
	memoHits, memoMisses int64
	pruneReorder         int64
	prescreenNs          int64
}

func (d *statsDelta) add(before, after idiomatic.StatsResponse) {
	d.memoHits += after.Memo.Hits - before.Memo.Hits
	d.memoMisses += after.Memo.Misses - before.Memo.Misses
	d.pruneReorder += after.PruneReordered - before.PruneReordered
	d.prescreenNs += after.PrescreenNsTotal - before.PrescreenNsTotal
}

// sampler polls Service.Stats() of the service being measured, while one
// is set, for the pipeline's queue and utilization gauges. A nil sampler
// (untraced runs) does nothing.
type sampler struct {
	cur  atomic.Pointer[idiomatic.Service]
	stop chan struct{}
	done chan struct{}

	n, ready, active float64 // written by the sampling goroutine only
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if svc := s.cur.Load(); svc != nil {
					st := svc.Stats()
					s.n++
					s.ready += float64(st.ReadyQueue)
					s.active += float64(st.SolveActive)
				}
			}
		}
	}()
	return s
}

func (s *sampler) watch(svc *idiomatic.Service) {
	if s != nil {
		s.cur.Store(svc)
	}
}

// finish stops the sampler and returns the mean ready-queue length and
// mean busy solver workers over its samples.
func (s *sampler) finish() (ready, active float64) {
	if s == nil {
		return 0, 0
	}
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0, 0
	}
	return s.ready / s.n, s.active / s.n
}
