package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// host is the record printed before the result: the machine, the Go
// runtime, the seed and a hash of every setting that shapes the figures, so
// two runs can be compared only when their config hashes agree.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	ConfigHash string `json:"config_hash"`
}

// benchConfig is everything besides the seed that determines what a run
// measures; its hash is the config hash.
type benchConfig struct {
	Workload        string `json:"workload"`
	Seconds         int    `json:"seconds"`
	Trace           bool   `json:"trace"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Clients         int    `json:"clients"`
	WarmBoots       int    `json:"warm_boots"`
	HeapIter        int    `json:"heap_iter"`
	WarmReplayDraws int    `json:"warm_replay_draws"`
	WarmupMs        int64  `json:"warmup_ms"`
	WindowMs        int64  `json:"window_ms"`
	OverheadPairs   int    `json:"overhead_pairs"`
	SamplePeriodUs  int64  `json:"sample_period_us"`
	GoVersion       string `json:"go_version"`
}

func hostRecord(r *run) host {
	clients := 1
	if r.workload == warmSingle {
		clients = runtime.NumCPU()
	}
	cfg := benchConfig{
		Workload: r.workload, Seconds: int(r.seconds / time.Second), Trace: r.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		WarmBoots: warmBoots, HeapIter: heapIter, WarmReplayDraws: warmReplayDraws, WarmupMs: warmUp.Milliseconds(),
		WindowMs: warmWindow.Milliseconds(), OverheadPairs: overheadPairs,
		SamplePeriodUs: samplePeriod.Microseconds(), GoVersion: runtime.Version(),
	}
	raw, _ := json.Marshal(cfg) // a struct of plain fields always marshals
	sum := sha256.Sum256(raw)
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Workload: r.workload, Seed: r.seed, Seconds: cfg.Seconds, Trace: r.trace,
		ConfigHash: hex.EncodeToString(sum[:8]),
	}
}

// cpuModel reads the processor name on Linux ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
