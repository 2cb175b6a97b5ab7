package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"montecimone/internal/campaign"
	"montecimone/internal/sched"
)

// digests are the SHA-256 sums of one workload execution's outputs: the
// campaign report, its event log and the read phase's reply bodies (in
// query order).
type digests struct {
	Report  string `json:"report"`
	Events  string `json:"events"`
	Queries string `json:"queries"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// diff names the outputs on which got differs from want.
func (want digests) diff(got digests) []string {
	var out []string
	if got.Report != want.Report {
		out = append(out, "report digest "+got.Report+" != "+want.Report)
	}
	if got.Events != want.Events {
		out = append(out, "event log digest "+got.Events+" != "+want.Events)
	}
	if got.Queries != want.Queries {
		out = append(out, "query reply digest "+got.Queries+" != "+want.Queries)
	}
	return out
}

// pinsFile holds the digests pinned at defaultSeed, by workload.
const pinsFile = "perfbench/digests.json"

func loadPins(path string) (map[string]digests, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pinned digests: %w", err)
	}
	var pins map[string]digests
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return pins, nil
}

// recallDigests returns the digests an earlier run of the same sources,
// workload and seed recorded under dir, recording got when there is none
// yet, so that every run of a set is checked against the first.
func recallDigests(dir string, got digests) (digests, error) {
	path := filepath.Join(dir, "digests.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return got, err
		}
		data, err := json.Marshal(got)
		if err != nil {
			return got, err
		}
		return got, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return got, err
	}
	var prev digests
	if err := json.Unmarshal(data, &prev); err != nil {
		return got, fmt.Errorf("parse %s: %w", path, err)
	}
	return prev, nil
}

// jobLog is one job's life as the campaign's event log tells it.
type jobLog struct {
	starts, ends, requeues int
	rejected, running      bool
	state                  sched.JobState // of the last end line
	startS, endS           float64        // last start and last end
	usedNodeS              float64        // nodes x (end - start), over attempts
	slackNodeS             float64        // bound on usedNodeS's rounding error
}

// finalState is the state the log leaves the job in.
func (l *jobLog) finalState() sched.JobState {
	switch {
	case l.rejected:
		return sched.StateCancelled
	case l.running:
		return sched.StateRunning
	case l.ends > 0:
		return l.state
	}
	return sched.StatePending
}

// readJobLogs replays the job lines of a campaign event log ("t=<s>
// <verb> <job> ..."; fault lines are skipped), by job name. Times are
// printed to 0.1 s, so every attempt's node-seconds carry a rounding
// error of at most nodes x 0.1.
func readJobLogs(events []string) (map[string]*jobLog, error) {
	logs := map[string]*jobLog{}
	nodes := map[string]int{}
	for _, line := range events {
		rest, ok := strings.CutPrefix(line, "t=")
		f := strings.Fields(rest)
		if !ok || len(f) < 3 {
			return nil, fmt.Errorf("event line %q has no time, verb and subject", line)
		}
		t, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("event line %q: %w", line, err)
		}
		verb, name := f[1], f[2]
		if verb == "fault" {
			continue
		}
		l := logs[name]
		if l == nil {
			l = &jobLog{}
			logs[name] = l
		}
		switch verb {
		case "start":
			n, err := strconv.Atoi(keyValue(f, "nodes="))
			if err != nil {
				return nil, fmt.Errorf("start line %q: %w", line, err)
			}
			nodes[name] = n
			l.starts++
			l.running, l.startS = true, t
		case "end":
			l.ends++
			l.running, l.endS = false, t
			l.state = sched.JobState(keyValue(f, "state="))
			l.usedNodeS += float64(nodes[name]) * (t - l.startS)
			l.slackNodeS += float64(nodes[name]) * 0.1
		case "requeue":
			l.requeues++
		case "reject":
			l.rejected = true
		}
	}
	return logs, nil
}

func ended(s sched.JobState) bool { return s != sched.StatePending && s != sched.StateRunning }

// keyValue returns the value of the first "key=value" token with the prefix.
func keyValue(tokens []string, prefix string) string {
	for _, tok := range tokens {
		if v, ok := strings.CutPrefix(tok, prefix); ok {
			return v
		}
	}
	return ""
}

// checkInvariants checks a campaign result's conservation laws from
// outside and returns one line per violation. The aggregates are checked
// against bookkeeping kept apart from them: the job list the spec expands
// to, the event log the job callbacks write line by line, and the
// node-seconds each job accumulates at its end callbacks (UsedNodeS).
// Only a faulted campaign (chaos) may leave jobs unfinished, and it alone
// reports fault stats.
func checkInvariants(res *campaign.Result) []string {
	var bad []string
	spec := res.Spec
	entries, err := spec.GenerateJobs()
	if err != nil {
		return []string{fmt.Sprintf("expand the spec's jobs: %v", err)}
	}
	if sum := res.Completed + res.Failed + res.TimedOut + res.Unfinished; sum != len(entries) {
		bad = append(bad, fmt.Sprintf("completed+failed+timeout+unfinished = %d, want the spec's %d jobs", sum, len(entries)))
	}
	logs, err := readJobLogs(res.Events)
	if err != nil {
		return append(bad, err.Error())
	}
	var completed, failed, timedOut, unfinished int
	var finalNodeS, finalSlack, usedLog, usedRows, usedSlack float64
	for _, j := range res.Jobs {
		switch j.State {
		case sched.StateCompleted, sched.StateTimeout, sched.StateNodeFail:
			if j.StartS < 0 || j.EndS < j.StartS {
				bad = append(bad, fmt.Sprintf("job %s ended %s without a start/end (%v..%v)", j.Name, j.State, j.StartS, j.EndS))
			}
		case sched.StatePending, sched.StateRunning:
			if j.EndS >= 0 {
				bad = append(bad, fmt.Sprintf("job %s is %s but has an end at %v", j.Name, j.State, j.EndS))
			}
		case sched.StateCancelled:
		default:
			bad = append(bad, fmt.Sprintf("job %s has unknown state %q", j.Name, j.State))
		}

		// Every job has exactly one end state: the one its last log
		// line leaves it in, with one end line per started attempt. A job
		// still queued or running at the horizon has none, and its row
		// may show either.
		l := logs[j.Name]
		if l == nil {
			l = &jobLog{}
		}
		delete(logs, j.Name)
		state := l.finalState()
		if state != j.State && (ended(state) || ended(j.State)) {
			bad = append(bad, fmt.Sprintf("job %s is %s in the result but %s in the event log", j.Name, j.State, state))
		}
		if open := l.starts - l.ends; open != 0 && !(open == 1 && l.running) {
			bad = append(bad, fmt.Sprintf("job %s has %d start and %d end lines in the event log", j.Name, l.starts, l.ends))
		}
		if l.requeues != j.Requeues {
			bad = append(bad, fmt.Sprintf("job %s has %d requeue lines, the result counts %d", j.Name, l.requeues, j.Requeues))
		}
		switch state {
		case sched.StateCompleted:
			completed++
		case sched.StateNodeFail, sched.StateCancelled:
			failed++
		case sched.StateTimeout:
			timedOut++
		default:
			unfinished++
		}

		// Node-seconds of the last attempt, as the log tells them.
		if l.starts > 0 {
			end := l.endS
			if l.running {
				end = spec.HorizonS
			}
			finalNodeS += float64(j.Nodes) * (end - l.startS)
			finalSlack += float64(j.Nodes) * 0.1
		}
		usedLog += l.usedNodeS
		usedSlack += l.slackNodeS
		usedRows += j.UsedNodeS
		if j.Requeues == 0 && j.StartS >= 0 && j.EndS > j.StartS {
			if want := float64(j.Nodes) * (j.EndS - j.StartS); math.Abs(j.UsedNodeS-want) > 1e-9*want {
				bad = append(bad, fmt.Sprintf("job %s used %.3f node-seconds, its one attempt spans %.3f", j.Name, j.UsedNodeS, want))
			}
		}
	}
	if len(logs) > 0 {
		bad = append(bad, fmt.Sprintf("the event log names %d jobs the result does not hold", len(logs)))
	}
	for _, c := range []struct {
		what      string
		log, aggr int
	}{
		{"completed", completed, res.Completed},
		{"failed", failed, res.Failed},
		{"timed out", timedOut, res.TimedOut},
		{"unfinished", unfinished, res.Unfinished},
	} {
		if c.log != c.aggr {
			bad = append(bad, fmt.Sprintf("the event log leaves %d jobs %s, the result counts %d", c.log, c.what, c.aggr))
		}
	}

	capacity := float64(spec.Nodes) * spec.HorizonS
	if want := res.UtilizationPct / 100 * capacity; math.Abs(finalNodeS-want) > finalSlack+1e-9*capacity {
		bad = append(bad, fmt.Sprintf("logged node-seconds %.3f disagree with utilization %.6f%% x capacity (%.3f)", finalNodeS, res.UtilizationPct, want))
	}
	if math.Abs(usedLog-usedRows) > usedSlack+1e-9*capacity {
		bad = append(bad, fmt.Sprintf("logged node-seconds over all attempts %.3f disagree with the jobs' used node-seconds %.3f", usedLog, usedRows))
	}
	faulted := spec.Faults != nil
	if !faulted && res.Unfinished != 0 {
		bad = append(bad, fmt.Sprintf("%d jobs unfinished at the horizon", res.Unfinished))
	}
	if (res.Fault != nil) != faulted {
		bad = append(bad, fmt.Sprintf("fault stats present = %v, want %v", res.Fault != nil, faulted))
	}
	return bad
}
