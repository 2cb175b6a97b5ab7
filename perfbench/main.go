// Command perfbench is the simulator's benchmark. It generates one
// workload's campaign spec from a seed, drives the simulator through its
// public API (campaign, examon REST and heatmap, public getters), checks
// the outputs against pinned digests and conservation invariants, and
// prints the metrics as one JSON line. Run it from the repository root;
// run.sh builds it and passes its arguments through:
//
//	bash perfbench/run.sh --workload scale --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it repeats the workload for --seconds host
// seconds and reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced executions (spans, a CPU profile,
// getters and probes) and reports the per-layer metrics. Host time is
// what it measures; simulated statistics are correctness data.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds run manifests, spans and the digests recorded per seed.
const outDir = ".bench_build/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: scale, telemetry or chaos")
	seed := fl.Int64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := fl.Float64("seconds", 30, "host seconds to measure for")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced executions")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, man, spans, err := bench(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeRecord(man, res, spans); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if m, err := json.Marshal(man); err == nil {
		fmt.Fprintf(stderr, "manifest %s\n", m)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest says what was run, where and on which sources.
type manifest struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	SpecSHA256   string `json:"spec_sha256"`
	Shards       int    `json:"shards"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Traced       bool   `json:"traced"`
	Executions   int    `json:"executions"`
	// WallS is the host time of each timed execution, in run order.
	WallS []float64 `json:"wall_s"`
	// HostStealS is the CPU time the hypervisor took from this machine's
	// CPUs while the executions ran (-1 where the kernel does not say):
	// a slow run with a large value was slowed from outside.
	HostStealS float64  `json:"host_steal_s"`
	Digests    digests  `json:"digests"`
	Problems   []string `json:"problems,omitempty"`
}

func bench(name string, seed int64, seconds float64, traced bool) (*result, *manifest, []span, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, nil, nil, err
	}
	if seconds <= 0 || math.IsNaN(seconds) {
		return nil, nil, nil, fmt.Errorf("--seconds must be positive")
	}
	pins, err := loadPins(pinsFile)
	if err != nil {
		return nil, nil, nil, err
	}
	src, err := sourceDigest(".")
	if err != nil {
		return nil, nil, nil, err
	}
	nproc := runtime.NumCPU()
	spec := w.spec(seed, nproc)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	man := &manifest{
		Workload: w.name, Seed: seed, SpecSHA256: sha(specJSON), Shards: max(spec.Shards, 1),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc, GoVersion: runtime.Version(),
		Commit: gitCommit("."), SourceSHA256: src, Traced: traced,
	}

	// The reference execution every other one must reproduce: a shards=1
	// run for a sharded workload, else the first timed execution.
	sharded := spec.Shards > 1
	var all []*iteration
	if sharded {
		ref, err := runIteration(specJSON, seed, runOptions{shards: 1})
		if err != nil {
			return nil, nil, nil, err
		}
		all = append(all, ref)
	}

	// A traced run alternates untraced executions, shards=1 twins of them
	// on a sharded workload (for the shard speedup), and traced ones.
	var timed, serial, traces []*iteration
	tr := newTracer()
	steal0 := hostStealS()
	var setups []float64
	for start := time.Now(); len(timed) == 0 || (traced && len(traces) == 0) || time.Since(start).Seconds() < seconds; {
		if !traced {
			// Set-up alone, spread over the run as the executions are, so
			// its median is steady even where one set-up takes a
			// millisecond and the host's speed drifts within seconds.
			if setups, err = timeSetups(specJSON, 300*time.Millisecond, setups); err != nil {
				return nil, nil, nil, err
			}
		}
		it, err := runIteration(specJSON, seed, runOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		timed = append(timed, it)
		if traced && sharded {
			it, err := runIteration(specJSON, seed, runOptions{shards: 1})
			if err != nil {
				return nil, nil, nil, err
			}
			serial = append(serial, it)
		}
		if traced {
			it, err := runIteration(specJSON, seed, runOptions{tr: tr})
			if err == nil {
				err = tr.err
			}
			if err != nil {
				return nil, nil, nil, err
			}
			traces = append(traces, it)
			tr.iter++
		}
	}
	all = append(all, timed...)
	all = append(all, serial...)
	all = append(all, traces...)
	man.HostStealS = -1
	if steal1 := hostStealS(); steal0 >= 0 && steal1 >= 0 {
		man.HostStealS = steal1 - steal0
	}

	// Every execution must reproduce the reference, the digests pinned
	// for the default seed, and those an earlier run of the same sources
	// recorded for this seed.
	want := []digests{all[0].digests}
	if seed == defaultSeed {
		pin, ok := pins[w.name]
		if !ok {
			return nil, nil, nil, fmt.Errorf("%s has no digests for workload %s", pinsFile, w.name)
		}
		want = append(want, pin)
	}
	prev, err := recallDigests(filepath.Join(outDir, "digests", fmt.Sprintf("%s-seed%d-%.16s", w.name, seed, src)), all[0].digests)
	if err != nil {
		return nil, nil, nil, err
	}
	want = append(want, prev)
	res := &result{Metrics: map[string]metric{}}
	for _, it := range all {
		for _, d := range want {
			it.problems = append(it.problems, d.diff(it.digests)...)
		}
		res.Attempted += it.ops()
		res.Failed += it.failed()
		man.Problems = append(man.Problems, it.problems...)
	}
	res.Correct = res.Failed == 0
	man.Executions, man.Digests = len(all), all[0].digests
	for _, it := range timed {
		man.WallS = append(man.WallS, it.wallS)
	}

	var metrics map[string]float64
	if traced {
		metrics, err = layerMetrics(traces, timed, serial, tr.samples)
	} else {
		metrics, err = endToEndMetrics(timed, setups)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, man, tr.spans, nil
}

// timeSetups times set-up alone, each from an empty heap, at least once
// and until d has passed, and appends the host seconds of each to out.
func timeSetups(specJSON []byte, d time.Duration, out []float64) ([]float64, error) {
	for start := time.Now(); ; {
		runtime.GC()
		t := time.Now()
		r, _, err := setup(specJSON, 0)
		if err != nil {
			return out, err
		}
		out = append(out, time.Since(t).Seconds())
		r.Close()
		if time.Since(start) >= d {
			return out, nil
		}
	}
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// hostStealS reads the steal time summed over all CPUs from /proc/stat,
// in seconds, or -1 when it is not available.
func hostStealS() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// writeRecord writes the manifest beside the result, and the spans of a
// traced run, under outDir.
func writeRecord(man *manifest, res *result, spans []span) error {
	dir := filepath.Join(outDir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", man.Workload, man.Seed, man.Traced))
	rec, err := json.MarshalIndent(struct {
		Manifest *manifest `json:"manifest"`
		Result   *result   `json:"result"`
	}{man, res}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(rec, '\n'), 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	sp, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", sp, 0o644)
}
