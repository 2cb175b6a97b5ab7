package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"montecimone/internal/campaign"
	"montecimone/internal/fault"
	"montecimone/internal/sched"
)

func TestSHA(t *testing.T) {
	const abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if got := sha([]byte("abc")); got != abc {
		t.Errorf("sha(abc) = %s, want %s", got, abc)
	}
}

func TestDigestDiff(t *testing.T) {
	want := digests{Report: "r", Events: "e", Queries: "q"}
	if d := want.diff(want); len(d) != 0 {
		t.Errorf("identical digests differ: %v", d)
	}
	got := want
	got.Events, got.Queries = "E", "Q"
	d := want.diff(got)
	if len(d) != 2 || !strings.HasPrefix(d[0], "event log digest") || !strings.HasPrefix(d[1], "query reply digest") {
		t.Errorf("diff = %v, want the event log and query reply digests named", d)
	}
}

func TestRecallDigestsKeepsTheFirstRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "scale-seed7")
	first := digests{Report: "a", Events: "b", Queries: "c"}
	got, err := recallDigests(dir, first)
	if err != nil || got != first {
		t.Fatalf("first recall = %v, %v; want %v", got, err, first)
	}
	got, err = recallDigests(dir, digests{Report: "x"})
	if err != nil || got != first {
		t.Fatalf("second recall = %v, %v; want the first run's %v", got, err, first)
	}
}

func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p, ok := pins[w.name]
		if !ok || len(p.Report) != 64 || len(p.Events) != 64 || len(p.Queries) != 64 {
			t.Errorf("workload %s: pinned digests %+v incomplete", w.name, p)
		}
	}
}

// smallResult runs a two-node campaign to completion.
func smallResult(t *testing.T) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(campaign.Spec{
		Name: "check", Nodes: 2, Seed: 3, HorizonS: 900, Mitigated: true,
		Jobs: []campaign.JobEntry{
			{Name: "qe", Workload: "qe", Nodes: 1, DurationS: 40},
			{Name: "stream", Workload: "stream.ddr", Nodes: 2, SubmitS: 10, DurationS: 120},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInvariantsHoldOnARealCampaign(t *testing.T) {
	res := smallResult(t)
	if bad := checkInvariants(res); len(bad) != 0 {
		t.Fatalf("violations on a clean campaign: %v", bad)
	}
}

func TestInvariantsCatchViolations(t *testing.T) {
	faults := func(r *campaign.Result) { r.Spec.Faults = &fault.Spec{} }
	// editEnd replaces the first end line of the event log by the lines
	// edit returns.
	editEnd := func(edit func(line string) []string) func(r *campaign.Result) {
		return func(r *campaign.Result) {
			for i, line := range r.Events {
				if strings.Contains(line, " end ") {
					rest := append(edit(line), r.Events[i+1:]...)
					r.Events = append(r.Events[:i], rest...)
					return
				}
			}
			t.Fatal("no end line in the event log")
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *campaign.Result)
		want   string
	}{
		{"counts", func(r *campaign.Result) { r.Completed++ }, "want the spec's 2 jobs"},
		{"count by class", func(r *campaign.Result) { r.Completed--; r.TimedOut++ }, "leaves 2 jobs completed, the result counts 1"},
		{"unknown state", func(r *campaign.Result) { r.Jobs[0].State = "LOST" }, "unknown state"},
		{"end without start", func(r *campaign.Result) { r.Jobs[1].StartS = -1 }, "without a start/end"},
		{"running with an end", func(r *campaign.Result) { r.Jobs[0].State = sched.StateRunning }, "has an end"},
		{"state the log does not show", func(r *campaign.Result) { r.Jobs[0].State = sched.StateTimeout }, "in the event log"},
		{"end line lost", editEnd(func(string) []string { return nil }), "COMPLETED in the result but RUNNING in the event log"},
		{"end line doubled", editEnd(func(l string) []string { return []string{l, l} }), "1 start and 2 end lines"},
		{"job the result lacks", func(r *campaign.Result) { r.Events = append(r.Events, "t=     2.0 submit ghost job=9") }, "does not hold"},
		{"requeue not counted", func(r *campaign.Result) { r.Jobs[0].Requeues = 1 }, "requeue lines"},
		{"node-seconds", func(r *campaign.Result) { r.UtilizationPct *= 1.01 }, "disagree with utilization"},
		{"logged end moved", editEnd(func(l string) []string {
			return []string{strings.Replace(l, strings.Fields(l[2:])[0], "500.0", 1)}
		}), "logged node-seconds"},
		{"used node-seconds", func(r *campaign.Result) { r.Jobs[1].UsedNodeS += 5 }, "used node-seconds"},
		{"unfinished", func(r *campaign.Result) { r.Completed--; r.Unfinished++ }, "unfinished at the horizon"},
		{"fault stats missing", faults, "fault stats present = false"},
		{"fault stats unexpected", func(r *campaign.Result) { r.Fault = &fault.Stats{} }, "fault stats present = true"},
	} {
		res := smallResult(t)
		tc.mutate(res)
		bad := checkInvariants(res)
		found := false
		for _, b := range bad {
			found = found || strings.Contains(b, tc.want)
		}
		if !found {
			t.Errorf("%s: violations %v do not mention %q", tc.name, bad, tc.want)
		}
	}
}

// TestInvariantsReadARealFaultedCampaign runs the chaos workload, whose
// crashes requeue jobs and may leave some unfinished, and checks that the
// event log the invariants replay accounts for every requeue and attempt.
func TestInvariantsReadARealFaultedCampaign(t *testing.T) {
	res, err := campaign.Run(chaosSpec(defaultSeed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkInvariants(res); len(bad) != 0 {
		t.Fatalf("violations on the chaos campaign: %v", bad)
	}
	logs, err := readJobLogs(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	requeues, used := 0, 0.0
	for _, l := range logs {
		requeues += l.requeues
		used += l.usedNodeS
	}
	if res.Requeues == 0 || requeues != res.Requeues {
		t.Errorf("event log holds %d requeues, the result %d; want the same, above 0", requeues, res.Requeues)
	}
	if used <= 0 {
		t.Errorf("event log accounts %v node-seconds", used)
	}
}

func TestWorkloadSpecsAreSeededAndValid(t *testing.T) {
	for _, w := range workloads {
		a, _ := json.Marshal(w.spec(5, 2))
		b, _ := json.Marshal(w.spec(5, 2))
		c, _ := json.Marshal(w.spec(6, 2))
		if string(a) != string(b) {
			t.Errorf("%s: the same seed gave two specs", w.name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 5 and 6 gave the same spec", w.name)
		}
		spec, err := campaign.Parse(a)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if (spec.Faults != nil) != (w.name == "chaos") {
			t.Errorf("%s: fault block present = %v, want it on chaos alone", w.name, spec.Faults != nil)
		}
	}
	if _, err := lookupWorkload("fleet"); err == nil {
		t.Error("lookupWorkload accepted an unknown workload")
	}
}

func TestReadPhaseRepeatsAcrossConcurrentClients(t *testing.T) {
	r, err := campaign.NewRunner(campaign.Spec{
		Name: "read", Nodes: 2, Seed: 4, HorizonS: 300, Mitigated: true, Monitor: true, PowerBudgetW: 12,
		Jobs: []campaign.JobEntry{{Name: "qe", Workload: "qe", Nodes: 1, DurationS: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	sys := r.System()
	qs := buildQueries(sys, r.StartTime(), sys.Engine.Now(), 9, 300)
	classes := map[string]int{}
	for _, q := range qs {
		classes[q.class]++
	}
	if classes[classV1Raw] == 0 || classes[classV2Agg] == 0 || classes[classHeatmap] == 0 {
		t.Fatalf("query mix %v lacks a class", classes)
	}
	first, sum1, _, err := readPhase(sys, qs)
	if err != nil {
		t.Fatal(err)
	}
	_, sum2, _, err := readPhase(sys, buildQueries(sys, r.StartTime(), sys.Engine.Now(), 9, 300))
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 {
		t.Error("the same queries on the same store gave different reply digests")
	}
	for i, o := range first {
		if !o.ok || o.class != qs[i].class {
			t.Fatalf("query %d (%s %s) failed or was misfiled: %+v", i, qs[i].class, qs[i].url, o)
		}
	}
}
