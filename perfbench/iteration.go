package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"montecimone/internal/campaign"
	"montecimone/internal/core"
	"montecimone/internal/examon"
)

// iteration is one execution of a workload: spec to checked report and
// read phase. Times are host seconds.
type iteration struct {
	bootS, drainS, reportS, wallS float64
	// loopS is the host time of the read phase's closed client loop.
	loopS float64
	// tenthsS is the host time of each tenth of the horizon (traced
	// iterations only).
	tenthsS []float64

	jobs     int
	digests  digests
	problems []string
	queries  []queryOutcome

	// Simulated counters, read through public getters after the drain.
	modelSteps, events, windows uint64
	committedFrac               float64
	peakQueue                   int
	messages                    uint64
	series                      int
	trips, requeues             int
	// windowQueryUS is the median host time of the power plane's own
	// aggregating query on the end-of-run store (traced iterations only).
	windowQueryUS float64
}

// runOptions vary one iteration.
type runOptions struct {
	shards int     // > 0 overrides the spec's shard count
	tr     *tracer // non-nil for a traced iteration
}

// ops is the number of operations the iteration attempted: simulated
// jobs plus read-phase queries.
func (it *iteration) ops() int { return it.jobs + len(it.queries) }

// failed counts the failed operations: all of them when a digest or an
// invariant check failed, else the queries that failed.
func (it *iteration) failed() int {
	if len(it.problems) > 0 {
		return it.ops()
	}
	n := 0
	for _, q := range it.queries {
		if !q.ok {
			n++
		}
	}
	return n
}

// setup parses the spec and boots the system: spec to a booted, settled,
// mitigated system with submissions armed. It returns the instant the
// boot (campaign.NewRunner) began.
func setup(specJSON []byte, shards int) (*campaign.Runner, time.Time, error) {
	spec, err := campaign.Parse(specJSON)
	if err != nil {
		return nil, time.Time{}, err
	}
	if shards > 0 {
		spec.Shards = shards
	}
	boot := time.Now()
	r, err := campaign.NewRunner(spec)
	return r, boot, err
}

func runIteration(specJSON []byte, seed int64, o runOptions) (*iteration, error) {
	// Start from an empty heap, as a fresh process would, so garbage from
	// the previous execution does not land in this one's timing.
	runtime.GC()
	it := &iteration{}
	o.tr.startProfile()
	defer o.tr.stopProfile()
	t0 := time.Now()
	r, boot, err := setup(specJSON, o.shards)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	t1 := time.Now()
	it.bootS = t1.Sub(boot).Seconds()
	o.tr.add("campaign.setup", "iteration", t0, t1)
	o.tr.add("core.boot", "campaign.setup", boot, t1)

	sys := r.System()
	if o.tr != nil {
		// Ten equal slices of the horizon show whether the drain slows as
		// stored history grows.
		start, h := r.StartTime(), r.Spec().HorizonS
		prev := t1
		for k := 1; k <= 10; k++ {
			if err := sys.Engine.RunUntil(start + h*float64(k)/10); err != nil {
				return nil, err
			}
			now := time.Now()
			it.tenthsS = append(it.tenthsS, now.Sub(prev).Seconds())
			o.tr.add(fmt.Sprintf("sim.drain.tenth%d", k), "sim.drain", prev, now)
			prev = now
		}
	}
	if err := r.Drain(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	it.drainS = t2.Sub(t1).Seconds()
	o.tr.add("sim.drain", "iteration", t1, t2)

	res := r.Result()
	var rep, evs bytes.Buffer
	if err := res.WriteReport(&rep); err != nil {
		return nil, err
	}
	if err := res.WriteEventLog(&evs); err != nil {
		return nil, err
	}
	t3 := time.Now()
	it.reportS = t3.Sub(t2).Seconds()
	o.tr.add("campaign.report", "iteration", t2, t3)

	o.tr.stopProfile()
	qs := buildQueries(sys, r.StartTime(), sys.Engine.Now(), seed, readQueries)
	var qsum string
	it.queries, qsum, it.loopS, err = readPhase(sys, qs)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	it.wallS = t4.Sub(t0).Seconds()
	o.tr.add("examon.read", "iteration", t3, t4)
	o.tr.add("iteration", "", t0, t4)

	it.jobs = len(res.Jobs)
	it.digests = digests{Report: sha(rep.Bytes()), Events: sha(evs.Bytes()), Queries: qsum}
	it.problems = checkInvariants(res)
	it.modelSteps = sys.Cluster.ModelSteps()
	it.events = sys.Engine.Executed()
	it.windows = res.EngineWindows
	it.committedFrac = res.CommittedParallelFraction()
	it.peakQueue = res.PeakQueueDepth
	it.messages = sys.Broker.Published()
	it.series = res.StoredSeries
	it.requeues = res.Requeues
	if res.Fault != nil {
		it.trips = res.Fault.Trips
	}
	if o.tr != nil {
		if it.windowQueryUS, err = probeWindowQuery(sys); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// probeWindowQuery times the power plane's per-tick filter (power_pub
// board totals over the last 1.5 one-second control windows) on the
// end-of-run store, and returns the median in microseconds.
func probeWindowQuery(sys *core.System) (float64, error) {
	f := examon.Filter{Plugin: "power_pub", Metric: examon.PowerTotalMetric, From: sys.Engine.Now() - 1.5}
	var dst []examon.AggSeries
	var us []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		var err error
		if dst, err = examon.QueryAggInto(dst[:0], sys.DB, f, examon.AggOptions{Op: examon.AggAvg}); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// Query classes of the read phase.
const (
	classV1Raw   = "v1_raw"
	classV2Agg   = "v2_agg"
	classHeatmap = "heatmap"
)

// query is one read-phase request: a REST URL, or heatmap options.
type query struct {
	class string
	url   string
	nodes []string
	hm    examon.HeatmapOptions
}

type queryOutcome struct {
	class string
	ms    float64
	ok    bool
	sum   [32]byte
}

// readQueries is the number of read-phase queries per execution, enough
// for a p99 with more than minBeyond samples beyond it.
const readQueries = 2000

// buildQueries makes n read-phase queries over the run's store between
// campaign start (from) and the end of the run (to). Each has the shape of
// one of the repository's own readers of the store:
//   - the analysis pass that cmd/mcmon and examples/jobcampaign print after
//     a run: whole-cluster, whole-run heatmaps of the pmu_pub instret rate
//     summed over cores and of dstat_pub cpu_temp at (to-from)/48 bins
//     (mcmon), of the instret rate at /72 bins, and a v2 batch average of
//     cpu_temp per node (jobcampaign);
//   - the power plane's control filter (internal/powerplane), as a v2
//     query: power_pub board totals averaged over the 1.5 s before an
//     instant;
//   - the selective pair of the REST benchmark in bench_test.go: for one
//     host, a v2 average of pmu_pub instret on core 1 at step=60 over 240 s
//     and a v1 raw range of cycle on core 2 over 40 s with limit=100000.
//
// They repeat in sweeps: one analysis pass and one plane query, then a
// selective pair for each host in turn. No caller fixes how often the
// three shapes come relative to each other; once each per sweep is this
// benchmark's choice. The seed places each window in the run, which none
// of the callers fixes either. A store without these series (monitoring or the power plane off)
// answers them empty.
func buildQueries(sys *core.System, from, to float64, seed int64, n int) []query {
	hosts := sys.Cluster.Hostnames()
	rng := rand.New(rand.NewSource(seed))
	fmtT := func(t float64) string { return strconv.FormatFloat(t, 'f', 3, 64) }
	window := func(length float64) string {
		l := math.Min(length, to-from)
		a := from + l + math.Floor(rng.Float64()*(to-from-l))
		return "&from=" + fmtT(a-l) + "&to=" + fmtT(a)
	}
	v1 := func(params string) query { return query{class: classV1Raw, url: "/api/v1/query?" + params} }
	v2 := func(params string) query { return query{class: classV2Agg, url: "/api/v2/query?" + params} }
	heatmap := func(plugin, metric string, rate bool, bins float64) query {
		return query{class: classHeatmap, nodes: hosts, hm: examon.HeatmapOptions{
			Plugin: plugin, Metric: metric, Rate: rate, SumCores: rate,
			From: from, To: to, BinWidth: (to - from) / bins,
		}}
	}
	var qs []query
	for len(qs) < n {
		qs = append(qs,
			heatmap("pmu_pub", "instret", true, 48),
			heatmap("dstat_pub", "temperature.cpu_temp", false, 48),
			heatmap("pmu_pub", "instret", true, 72),
			v2("plugin=dstat_pub&metric=temperature.cpu_temp&agg=avg&from="+fmtT(from)+"&to="+fmtT(to)),
			v2("plugin=power_pub&metric="+examon.PowerTotalMetric+"&agg=avg"+window(1.5)),
		)
		for _, h := range hosts {
			qs = append(qs,
				v2("node="+h+"&plugin=pmu_pub&metric=instret&core=1&agg=avg&step=60"+window(240)),
				v1("node="+h+"&metric=cycle&core=2&limit=100000"+window(40)),
			)
		}
	}
	return qs[:n]
}

// readPhase runs the queries through a closed loop of GOMAXPROCS
// in-process clients — each sends its next query when the previous one
// has answered — against the run's store, and returns each query's
// outcome, the digest of all replies in query order and the host seconds
// the loop took.
func readPhase(sys *core.System, qs []query) ([]queryOutcome, string, float64, error) {
	srv, err := examon.NewRESTServer(sys.DB)
	if err != nil {
		return nil, "", 0, err
	}
	out := make([]queryOutcome, len(qs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
				out[i] = runQuery(srv, sys.DB, qs[i])
			}
		}()
	}
	wg.Wait()
	loopS := time.Since(start).Seconds()
	sums := make([]byte, 0, len(out)*sha256.Size)
	for _, o := range out {
		sums = append(sums, o.sum[:]...)
	}
	return out, sha(sums), loopS, nil
}

func runQuery(srv *examon.RESTServer, st examon.Storage, q query) queryOutcome {
	t := time.Now()
	o := queryOutcome{class: q.class}
	if q.class == classHeatmap {
		hm, err := examon.BuildHeatmap(st, q.nodes, q.hm)
		o.ms = float64(time.Since(t).Nanoseconds()) / 1e6
		if err == nil {
			o.ok, o.sum = true, heatmapSum(hm)
		}
		return o
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.url, nil))
	o.ms = float64(time.Since(t).Nanoseconds()) / 1e6
	o.ok = rec.Code == http.StatusOK
	o.sum = sha256.Sum256(rec.Body.Bytes())
	return o
}

func heatmapSum(hm *examon.Heatmap) [32]byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v %v %v\n", hm.Nodes, hm.BinStart, hm.BinWidth)
	for _, row := range hm.Values {
		for _, v := range row {
			fmt.Fprintf(&b, "%x ", math.Float64bits(v))
		}
	}
	return sha256.Sum256(b.Bytes())
}

// classLatencies groups the successful queries' latencies by class.
func classLatencies(qs []queryOutcome) map[string][]float64 {
	out := map[string][]float64{}
	for _, q := range qs {
		if q.ok {
			out[q.class] = append(out[q.class], q.ms)
		}
	}
	return out
}
