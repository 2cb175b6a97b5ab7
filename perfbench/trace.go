package main

import (
	"bytes"
	"runtime/pprof"
	"time"
)

// tracer records what a traced execution does: spans at the benchmark's
// calls into each layer, kept in memory, and a CPU profile of the
// simulation phase (set-up, drain, report). A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	iter  int
	spans []span

	profiling bool
	buf       bytes.Buffer
	samples   []stackSample
	err       error // first profiling error
}

type span struct {
	Iter   int     `json:"iter"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Iter: t.iter, Name: name, Parent: parent,
		StartS: start.Sub(t.t0).Seconds(), EndS: end.Sub(t.t0).Seconds()})
}

// startProfile starts the CPU profile.
func (t *tracer) startProfile() {
	if t == nil || t.err != nil {
		return
	}
	t.buf.Reset()
	t.err = pprof.StartCPUProfile(&t.buf)
	t.profiling = t.err == nil
}

// stopProfile stops the CPU profile, if one runs, and keeps its samples.
func (t *tracer) stopProfile() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
	samples, err := parseProfile(t.buf.Bytes())
	if err != nil {
		t.err = err
		return
	}
	t.samples = append(t.samples, samples...)
}
