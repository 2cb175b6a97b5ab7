package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"queries_per_s", "1/s"},
}

// cpuLayers are the simulator packages whose self CPU time in the
// simulation phase a traced run reports as cpu.<layer>; cpu.other holds
// the rest.
var cpuLayers = []string{
	"campaign", "core", "sim", "node", "power", "thermal", "perf", "cluster",
	"sched", "workload", "powerplane", "dtm", "examon", "fault",
}

// physicsLayers are the packages of node physics.
var physicsLayers = []string{"node", "power", "thermal", "perf"}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"node.model_steps", "count"},
		{"cpu.physics", "share"},
		{"node.serial_barrier_share", "share"},
		{"sim.events", "count"},
		{"sim.windows", "count"},
		{"sim.committed_frac", "share"},
		{"sim.shard_speedup", "x"},
		{"sim.drain_growth", "x"},
		{"sched.peak_queue", "count"},
		{"core.boot_s", "s"},
		{"examon.messages", "count"},
		{"examon.series", "count"},
		{"examon.ingest_share", "share"},
		{"examon.window_query_us", "us"},
		{"examon.plane_query_share", "share"},
		{"examon.rest_ms." + classV1Raw, "ms"},
		{"examon.rest_ms." + classV2Agg, "ms"},
		{"examon.heatmap_ms", "ms"},
		{"fault.trips", "count"},
		{"fault.requeues", "count"},
		{"campaign.report_s", "s"},
		{"trace_overhead", "share"},
	}
	for _, l := range append(cpuLayers, "other") {
		defs = append(defs, metricDef{"cpu." + l, "share"})
	}
	return defs
}()

func endToEndMetrics(its []*iteration, setups []float64) (map[string]float64, error) {
	m := map[string]float64{}
	var wall, rate, lat []float64
	var queries int
	var loopS float64
	for _, it := range its {
		wall = append(wall, it.wallS)
		// Every job of the campaign counts: on scale and telemetry all of
		// them finish (an invariant), and on chaos the number a fault draw
		// leaves unfinished would otherwise swing the rate from seed to
		// seed.
		rate = append(rate, float64(it.jobs)/it.drainS)
		for _, q := range it.queries {
			if q.ok {
				lat = append(lat, q.ms)
			}
		}
		queries += len(it.queries)
		loopS += it.loopS
	}
	m["setup_s"] = median(setups)
	m["wall_s"] = median(wall)
	m["jobs_per_s"] = median(rate)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	m["query_p50_ms"], _, _ = percentile(lat, 0.50)
	p99, n, ok := percentile(lat, 0.99)
	if !ok {
		return nil, fmt.Errorf("p99 over %d queries has fewer than %d samples beyond it", n, minBeyond)
	}
	m["query_p99_ms"] = p99
	m["queries_per_s"] = float64(queries) / loopS
	return m, nil
}

// planeQueryFns are the frames under which the simulation queries the
// store — only the power plane's control loop does: QueryAggInto itself
// and, once its filter matches minParallelSeries (8) series or more, the
// per-chunk closure aggSnapshots hands to parallelFor's worker goroutines,
// whose stacks do not reach back to QueryAggInto.
var planeQueryFns = []string{
	"montecimone/internal/examon.QueryAggInto",
	"montecimone/internal/examon.aggSnapshots.func1",
}

// layerMetrics derives the per-layer metrics from the traced executions,
// the CPU profile samples of their simulation phase, the untraced
// executions run alongside them and, for a sharded workload, their
// shards=1 twins. The read phase has its own latency metrics.
func layerMetrics(traces, untraced, serial []*iteration, samples []stackSample) (map[string]float64, error) {
	total := totalNanos(samples)
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	share := func(ns int64) float64 { return float64(ns) / float64(total) }
	m := map[string]float64{}
	self := selfByLayer(samples)
	rest := total
	for _, l := range cpuLayers {
		m["cpu."+l] = share(self[l])
		rest -= self[l]
	}
	m["cpu.other"] = share(rest)
	var physics int64
	for _, l := range physicsLayers {
		physics += self[l]
	}
	m["cpu.physics"] = share(physics)
	m["node.serial_barrier_share"] = 0
	if physics > 0 {
		barrier := underAny(samples, physicsLayers, "montecimone/internal/sched.(*Scheduler).start")
		m["node.serial_barrier_share"] = float64(barrier) / float64(physics)
	}
	m["examon.ingest_share"] = share(underAny(samples, nil, "montecimone/internal/examon.(*Broker).PublishBatch"))
	m["examon.plane_query_share"] = share(underAny(samples, nil, planeQueryFns...))

	// Simulated counters repeat exactly; take them from the last traced
	// execution. Host times are medians over the traced executions.
	last := traces[len(traces)-1]
	m["node.model_steps"] = float64(last.modelSteps)
	m["sim.events"] = float64(last.events)
	m["sim.windows"] = float64(last.windows)
	m["sim.committed_frac"] = last.committedFrac
	m["sched.peak_queue"] = float64(last.peakQueue)
	m["examon.messages"] = float64(last.messages)
	m["examon.series"] = float64(last.series)
	m["fault.trips"] = float64(last.trips)
	m["fault.requeues"] = float64(last.requeues)

	var boot, report, growth, windowQ, tracedWall, untracedWall, untracedDrain []float64
	var queries []queryOutcome
	for _, it := range traces {
		boot = append(boot, it.bootS)
		report = append(report, it.reportS)
		growth = append(growth, it.tenthsS[9]/it.tenthsS[0])
		windowQ = append(windowQ, it.windowQueryUS)
		tracedWall = append(tracedWall, it.wallS)
		queries = append(queries, it.queries...)
	}
	for _, it := range untraced {
		untracedWall = append(untracedWall, it.wallS)
		untracedDrain = append(untracedDrain, it.drainS)
	}
	m["core.boot_s"] = median(boot)
	m["campaign.report_s"] = median(report)
	m["sim.drain_growth"] = median(growth)
	m["examon.window_query_us"] = median(windowQ)
	m["trace_overhead"] = median(tracedWall)/median(untracedWall) - 1
	// 0 marks a workload on the serial engine, where there is no speedup
	// to measure.
	m["sim.shard_speedup"] = 0
	if len(serial) > 0 {
		var serialDrain []float64
		for _, it := range serial {
			serialDrain = append(serialDrain, it.drainS)
		}
		m["sim.shard_speedup"] = median(serialDrain) / median(untracedDrain)
	}
	byClass := classLatencies(queries)
	m["examon.rest_ms."+classV1Raw] = median(byClass[classV1Raw])
	m["examon.rest_ms."+classV2Agg] = median(byClass[classV2Agg])
	m["examon.heatmap_ms"] = median(byClass[classHeatmap])
	return m, nil
}

// sourceDigest hashes the simulator's sources under root — every .go
// file, go.mod and the benchmark's pinned data — so a manifest identifies
// the code it measured even without version-control metadata.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && !strings.HasSuffix(path, ".json") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitCommit reads the checked-out commit from root's .git directory, or
// returns "" when there is none.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref // detached HEAD holds the commit itself
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sum
		}
	}
	return ""
}
