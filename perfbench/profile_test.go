package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const (
	fnStep    = "montecimone/internal/node.(*Node).step"
	fnRails   = "montecimone/internal/power.(*Model).RailMilliwattsScaled"
	fnStart   = "montecimone/internal/sched.(*Scheduler).start"
	fnWStart  = "montecimone/internal/workload.Start"
	fnRun     = "montecimone/internal/sim.(*Engine).RunUntil"
	fnPublish = "montecimone/internal/examon.(*Broker).PublishBatch"
	fnQuery   = "montecimone/internal/examon.QueryAggInto"
	fnChunk   = "montecimone/internal/examon.aggSnapshots.func1"
	fnFor     = "montecimone/internal/examon.parallelFor"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		fnStep:  "node",
		fnRails: "power",
		"montecimone/internal/examon.QueryAggInto":      "examon",
		"montecimone/internal/sim.NewLocalTicker.func1": "sim",
		"math.Exp":              "",
		"runtime.mallocgc":      "",
		"main.runIteration":     "",
		"montecimone/cmd/x.run": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// samples is a hand-built profile: leaf first, nanoseconds.
var samples = []stackSample{
	{stack: []string{"math.Exp", fnStep, fnRun}, nanos: 30},                 // node, via the stdlib
	{stack: []string{fnRails, fnStep, fnWStart, fnStart, fnRun}, nanos: 20}, // power, under the barrier
	{stack: []string{fnStep, fnWStart, fnStart, fnRun}, nanos: 10},          // node, under the barrier
	{stack: []string{"runtime.memmove", fnPublish, fnRun}, nanos: 25},       // examon ingest
	{stack: []string{fnStart, fnRun}, nanos: 5},                             // scheduler itself
	{stack: []string{"runtime.gcBgMarkWorker"}, nanos: 10},                  // no simulator frame
	// The power plane's query, inline below minParallelSeries matched
	// series, and on a parallelFor worker goroutine above it, whose stack
	// does not reach back to QueryAggInto.
	{stack: []string{"montecimone/internal/examon.aggregateView", fnChunk, fnFor, fnQuery, fnRun}, nanos: 7},
	{stack: []string{"runtime.mallocgc", "montecimone/internal/examon.bucketPoints", fnChunk, fnFor + ".func1", fnFor + ".gowrap1"}, nanos: 3},
}

func TestSelfByLayer(t *testing.T) {
	got := selfByLayer(samples)
	want := map[string]int64{"node": 40, "power": 20, "examon": 35, "sched": 5, "other": 10}
	if len(got) != len(want) {
		t.Fatalf("selfByLayer = %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("selfByLayer[%s] = %d, want %d", l, got[l], ns)
		}
	}
	if total := totalNanos(samples); total != 110 {
		t.Errorf("totalNanos = %d, want 110", total)
	}
}

func TestUnderAnyByStackPath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layers []string
		fns    []string
		want   int64
	}{
		{"physics under the scheduler barrier", physicsLayers, []string{fnStart}, 30},
		{"everything under the scheduler barrier", nil, []string{fnStart}, 35},
		{"all physics", physicsLayers, []string{fnRun}, 60},
		{"ingest", nil, []string{fnPublish}, 25},
		{"either of two paths", nil, []string{fnPublish, fnWStart}, 55},
		{"plane query, inline and on workers", nil, planeQueryFns, 10},
		{"no match", nil, []string{"montecimone/internal/fault.(*Controller).crash"}, 0},
	} {
		if got := underAny(samples, tc.layers, tc.fns...); got != tc.want {
			t.Errorf("%s: underAny = %d, want %d", tc.name, got, tc.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			n += i % 7
		}
	}
	return n
}

func TestParseProfileOfRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range got {
		if s.nanos <= 0 || len(s.stack) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spinForProfile")
		}
	}
	if !found {
		t.Fatalf("no sample of %d holds spinForProfile", len(got))
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}
