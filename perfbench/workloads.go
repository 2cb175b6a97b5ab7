package main

import (
	"fmt"
	"math/rand"
	"sort"

	"montecimone/internal/campaign"
	"montecimone/internal/fault"
)

// A workload turns a seed into a campaign spec. The seed changes the job
// order, the Poisson submission instants and the campaign seed (node
// noise, fault timeline); the job classes, their counts, widths and
// durations are fixed, so the simulated work — and with it the host time
// the benchmark measures — stays nearly the same from seed to seed.
type workload struct {
	name string
	spec func(seed int64, nproc int) campaign.Spec
}

// defaultSeed is the seed whose digests are pinned in digests.json.
const defaultSeed = 1

var workloads = []workload{
	{name: "scale", spec: scaleSpec},
	{name: "telemetry", spec: telemetrySpec},
	{name: "chaos", spec: chaosSpec},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// jobClass is one slot of a stratified job list: count jobs of one
// workload model, with widths cycling through widths.
type jobClass struct {
	workload  string
	count     int
	widths    []int
	durationS float64
}

// stratifiedJobs draws the explicit job list: every class contributes
// exactly its count, the order is a seeded shuffle and the submission
// instants a seeded Poisson process of the given rate from t=0.
func stratifiedJobs(rng *rand.Rand, classes []jobClass, ratePerHour float64) []campaign.JobEntry {
	var jobs []campaign.JobEntry
	for _, c := range classes {
		for i := 0; i < c.count; i++ {
			jobs = append(jobs, campaign.JobEntry{
				Workload:  c.workload,
				Nodes:     c.widths[i%len(c.widths)],
				DurationS: c.durationS,
			})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	t := 0.0
	for i := range jobs {
		t += rng.ExpFloat64() * 3600 / ratePerHour
		jobs[i].SubmitS = float64(int64(t*10)) / 10 // decisecond grid keeps the spec JSON short
		jobs[i].Name = fmt.Sprintf("%s-%03d", jobs[i].Workload, i)
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].SubmitS < jobs[j].SubmitS })
	return jobs
}

// scaleSpec is a wide campaign in the scale10k mix (hpl/stream.ddr/qe)
// on the sharded engine, with monitoring, power plane and faults off:
// node physics, window/commit and placement over a large free set do the
// work.
func scaleSpec(seed int64, nproc int) campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	return campaign.Spec{
		Name: "bench-scale", Nodes: 1000, Seed: seed, HorizonS: 2400,
		Mitigated: true, Shards: nproc,
		Jobs: stratifiedJobs(rng, []jobClass{
			{workload: "hpl", count: 171, widths: []int{2, 3, 4, 5, 6, 7, 8}, durationS: 600},
			{workload: "stream.ddr", count: 115, widths: []int{1, 2}, durationS: 180},
			{workload: "qe", count: 114, widths: []int{1}, durationS: 40},
		}, 2000),
	}
}

// telemetrySpec is a monitored (pmu_pub/stats_pub), power-budgeted
// powercap campaign on a modest partition, on the serial engine: broker
// ingest and the plane's per-tick aggregating query dominate the drain.
func telemetrySpec(seed int64, _ int) campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	return campaign.Spec{
		Name: "bench-telemetry", Nodes: 16, Seed: seed, HorizonS: 2400,
		Mitigated: true, Monitor: true, Policy: "powercap", PowerBudgetW: 80,
		Jobs: stratifiedJobs(rng, []jobClass{
			{workload: "hpl", count: 8, widths: []int{2, 4, 8, 6}, durationS: 300},
			{workload: "stream.ddr", count: 8, widths: []int{1, 2}, durationS: 120},
			{workload: "qe", count: 8, widths: []int{1}, durationS: 40},
		}, 90),
	}
}

// chaosSpec has the shape of the committed chaos.json: eight budgeted
// nodes with every fault class — crashes, thermal-runaway injections,
// brownout power steps, a network window, a straggler — plus requeue and
// checkpoint. Its 9000 s horizon keeps the plane's history-growing query
// visible.
func chaosSpec(seed int64, _ int) campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	return campaign.Spec{
		Name: "bench-chaos", Nodes: 8, Seed: seed, HorizonS: 9000,
		Mitigated: true, Policy: "easy", PowerBudgetW: 40,
		Faults: &fault.Spec{
			Crash:      &fault.Crash{MTBFHours: 2, RebootS: 120},
			Thermal:    &fault.Thermal{Injections: 2, RepairS: 300, ExtraRthKW: 7, ExtraAirC: 20},
			PowerSteps: []fault.PowerStep{{AtS: 5000, BudgetW: 24}, {AtS: 6500, BudgetW: 40}},
			Network:    []fault.NetWindow{{StartS: 1000, DurationS: 800, LatencyMult: 8, BandwidthMult: 0.25}},
			Stragglers: &fault.Stragglers{Count: 1, Slowdown: 1.3},
			Checkpoint: true, CheckpointS: 200,
		},
		Jobs: stratifiedJobs(rng, []jobClass{
			{workload: "hpl", count: 2, widths: []int{8, 4}, durationS: 1800},
			{workload: "stream.ddr", count: 2, widths: []int{2, 1}, durationS: 300},
			{workload: "stream.l2", count: 1, widths: []int{1}, durationS: 300},
			{workload: "qe", count: 2, widths: []int{1}, durationS: 38},
		}, 4),
	}
}
