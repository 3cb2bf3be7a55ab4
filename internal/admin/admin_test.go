package admin

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"fedsparse/internal/fl"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// event builds a transport-style round event (engine metrics NaN).
func event(round int, bytesUp, bytesDown uint64) fl.RoundEvent {
	return fl.RoundEvent{
		Round: round, K: 40, KCont: 40, Loss: 1.5 / float64(round),
		RoundTime: 2, Time: 2 * float64(round), DownlinkElems: 80, Participants: 4,
		TestAcc: math.NaN(), TestLoss: math.NaN(), TrainLoss: math.NaN(),
		BytesUp: bytesUp, BytesDown: bytesDown,
		ShardReduceSeconds: []float64{0.001, 0.002},
	}
}

var metricName = regexp.MustCompile(`^fedsparse_[a-z0-9_]+$`)

// lintMetrics parses a Prometheus text body: every sample's metric name
// must match ^fedsparse_[a-z0-9_]+$ and be introduced by HELP and TYPE
// lines. It returns the sample values by series.
func lintMetrics(t *testing.T, body string) map[string]string {
	t.Helper()
	help, typ := map[string]bool{}, map[string]bool{}
	samples := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			if !metricName.MatchString(name) {
				t.Errorf("HELP for bad metric name %q", name)
			}
			if strings.TrimSpace(text) == "" {
				t.Errorf("empty HELP text for %q", name)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if kind != "gauge" && kind != "counter" {
				t.Errorf("metric %q has type %q", name, kind)
			}
			typ[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if !metricName.MatchString(name) {
			t.Errorf("sample name %q does not match ^fedsparse_[a-z0-9_]+$", name)
		}
		if !help[name] || !typ[name] {
			t.Errorf("sample %q lacks HELP/TYPE", name)
		}
		if value == "NaN" || strings.Contains(value, "Inf") {
			t.Errorf("sample %q serialized a non-finite value %q", name, value)
		}
		samples[series] = value
	}
	return samples
}

func TestHealthz(t *testing.T) {
	s := startServer(t)
	if code, body := get(t, s, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

// TestMetrics feeds a short synthetic run and checks the exposition:
// lint-clean names, monotone round counter, nonzero byte gauges, shard
// timings, and evaluation gauges appearing once evaluated.
func TestMetrics(t *testing.T) {
	s := startServer(t)

	// Before any event: structural gauges only, still lint-clean.
	_, body := get(t, s, "/metrics")
	base := lintMetrics(t, body)
	if base["fedsparse_round"] != "0" || base["fedsparse_rounds_total"] != "0" {
		t.Fatalf("fresh server reports round %q / rounds_total %q", base["fedsparse_round"], base["fedsparse_rounds_total"])
	}
	if _, ok := base["fedsparse_test_accuracy"]; ok {
		t.Fatal("test_accuracy exposed before any evaluation")
	}

	prevRound := 0.0
	for m := 1; m <= 3; m++ {
		s.OnRoundStart(m)
		s.OnRoundEnd(event(m, 1000, 500))
		_, body := get(t, s, "/metrics")
		samples := lintMetrics(t, body)
		var round float64
		fmt.Sscan(samples["fedsparse_round"], &round)
		if round != float64(m) || round <= prevRound-1 {
			t.Fatalf("after round %d: fedsparse_round = %v (prev %v)", m, round, prevRound)
		}
		if round < prevRound {
			t.Fatalf("round counter went backwards: %v -> %v", prevRound, round)
		}
		prevRound = round
		if samples["fedsparse_rounds_total"] != fmt.Sprint(m) {
			t.Fatalf("after round %d: rounds_total = %q", m, samples["fedsparse_rounds_total"])
		}
		if samples["fedsparse_round_bytes_up"] != "1000" || samples["fedsparse_round_bytes_down"] != "500" {
			t.Fatalf("byte gauges = %q/%q", samples["fedsparse_round_bytes_up"], samples["fedsparse_round_bytes_down"])
		}
		if samples["fedsparse_bytes_up_total"] != fmt.Sprint(1000*m) {
			t.Fatalf("bytes_up_total = %q after %d rounds", samples["fedsparse_bytes_up_total"], m)
		}
		if _, ok := samples[`fedsparse_shard_reduce_seconds{shard="1"}`]; !ok {
			t.Fatal("missing per-shard reduce time series")
		}
		if samples["fedsparse_window_depth"] != "0" {
			t.Fatalf("window_depth = %q for a synchronous event", samples["fedsparse_window_depth"])
		}
	}

	// An evaluated engine round surfaces the evaluation gauges.
	ev := event(4, 0, 0)
	ev.TestAcc, ev.TestLoss, ev.TrainLoss = 0.75, 0.9, 1.1
	s.OnRoundStart(4)
	s.OnRoundEnd(ev)
	_, body = get(t, s, "/metrics")
	samples := lintMetrics(t, body)
	if samples["fedsparse_test_accuracy"] != "0.75" {
		t.Fatalf("test_accuracy = %q", samples["fedsparse_test_accuracy"])
	}
	if samples["fedsparse_run_done"] != "0" {
		t.Fatalf("run_done = %q before OnRunEnd", samples["fedsparse_run_done"])
	}
	s.OnRunEnd(nil)
	_, body = get(t, s, "/metrics")
	samples = lintMetrics(t, body)
	if samples["fedsparse_run_done"] != "1" || samples["fedsparse_run_failed"] != "0" {
		t.Fatalf("run_done/run_failed = %q/%q", samples["fedsparse_run_done"], samples["fedsparse_run_failed"])
	}
}

// TestMetricsStaleness feeds a bounded-staleness event and checks its
// window depth on both surfaces: the fedsparse_window_depth gauge and
// the /rounds NDJSON key.
func TestMetricsStaleness(t *testing.T) {
	s := startServer(t)
	ev := event(1, 0, 0)
	ev.WindowDepth = 2
	s.OnRoundStart(1)
	s.OnRoundEnd(ev)

	_, body := get(t, s, "/metrics")
	samples := lintMetrics(t, body)
	if samples["fedsparse_window_depth"] != "2" {
		t.Fatalf("window_depth = %q", samples["fedsparse_window_depth"])
	}

	_, dump := get(t, s, "/rounds")
	var row map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(dump)), &row); err != nil {
		t.Fatalf("/rounds: %v (%q)", err, dump)
	}
	if row["window_depth"] != 2.0 {
		t.Fatalf("/rounds window_depth = %v", row["window_depth"])
	}
}

// TestReadyz walks the readiness lifecycle: not started → waiting on
// enrollment → ready once rounds run → failed when the run dies (the
// shard-kill flip as /readyz sees it).
func TestReadyz(t *testing.T) {
	s := startServer(t)
	code, body := get(t, s, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "run not started") {
		t.Fatalf("fresh /readyz = %d %q", code, body)
	}
	s.SetExpected(4, 2)
	s.SetResumed(true)
	if code, body = get(t, s, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "waiting for clients") {
		t.Fatalf("unenrolled /readyz = %d %q", code, body)
	}
	s.SetEnrolled(4, 1)
	if code, body = get(t, s, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "waiting for shards") {
		t.Fatalf("shardless /readyz = %d %q", code, body)
	}
	s.SetEnrolled(4, 2)
	s.OnRoundStart(1)
	s.OnRoundEnd(event(1, 0, 0))
	code, body = get(t, s, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("live /readyz = %d %q", code, body)
	}
	var st readyState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/readyz body not JSON: %v\n%s", err, body)
	}
	if !st.Ready || st.Round != 1 || st.RoundsDone != 1 || !st.Resumed || st.ClientsEnrolled != 4 {
		t.Fatalf("ready state %+v", st)
	}
	s.OnRunEnd(errors.New("shard 1 died"))
	code, body = get(t, s, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "shard 1 died") {
		t.Fatalf("failed /readyz = %d %q", code, body)
	}
}

// TestReadyzUnderWindow drives the observer in the order a W = 1 engine
// run publishes — each round starts one step before the previous one
// ends — and stops it the way MaxTime does, with round 3 started and
// never ended. "round" (and the fedsparse_round gauge) is the highest
// round started, "rounds_done" the rounds sealed; their gap is the
// in-flight depth, and it survives the end of the run.
func TestReadyzUnderWindow(t *testing.T) {
	s := startServer(t)
	s.OnRoundStart(1)
	s.OnRoundStart(2)
	s.OnRoundEnd(event(1, 0, 0))
	s.OnRoundStart(3)
	s.OnRoundEnd(event(2, 0, 0))
	s.OnRunEnd(nil)

	code, body := get(t, s, "/readyz")
	var st readyState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/readyz body not JSON: %v\n%s", err, body)
	}
	if code != http.StatusOK || !st.Ready || !st.Done || st.Round != 3 || st.RoundsDone != 2 {
		t.Fatalf("windowed /readyz = %d %+v, want ready, done, round 3, rounds_done 2", code, st)
	}
	_, metrics := get(t, s, "/metrics")
	samples := lintMetrics(t, metrics)
	if samples["fedsparse_round"] != "3" || samples["fedsparse_rounds_total"] != "2" {
		t.Fatalf("fedsparse_round = %q, fedsparse_rounds_total = %q, want 3 and 2",
			samples["fedsparse_round"], samples["fedsparse_rounds_total"])
	}
}

// TestRoundsDump covers the one-shot (non-follow) NDJSON dump: one line
// per completed round, NaN metrics omitted instead of serialized.
func TestRoundsDump(t *testing.T) {
	s := startServer(t)
	s.OnRoundStart(1)
	s.OnRoundEnd(event(1, 7, 3))
	ev := event(2, 0, 0)
	ev.TestAcc, ev.TestLoss = 0.5, 0.25
	s.OnRoundStart(2)
	s.OnRoundEnd(ev)

	_, body := get(t, s, "/rounds")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("/rounds returned %d lines, want 2:\n%s", len(lines), body)
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if first["round"] != 1.0 || second["round"] != 2.0 {
		t.Fatalf("rounds %v, %v", first["round"], second["round"])
	}
	if _, ok := first["test_acc"]; ok {
		t.Fatal("NaN test_acc serialized on round 1")
	}
	if second["test_acc"] != 0.5 {
		t.Fatalf("round 2 test_acc = %v", second["test_acc"])
	}
	if first["bytes_up"] != 7.0 || first["bytes_down"] != 3.0 {
		t.Fatalf("round 1 bytes %v/%v", first["bytes_up"], first["bytes_down"])
	}
}

// TestRoundsFollow is the exactly-once contract of the streaming mode:
// a follower sees every round exactly once — the backlog at connect
// time, then each new round as it completes — and the stream closes
// when the run ends.
func TestRoundsFollow(t *testing.T) {
	s := startServer(t)
	s.OnRoundStart(1)
	s.OnRoundEnd(event(1, 0, 0))

	resp, err := http.Get("http://" + s.Addr() + "/rounds?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	next := func() int {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return int(row["round"].(float64))
	}
	if r := next(); r != 1 {
		t.Fatalf("backlog round %d, want 1", r)
	}
	for m := 2; m <= 4; m++ {
		s.OnRoundStart(m)
		s.OnRoundEnd(event(m, 0, 0))
		if r := next(); r != m {
			t.Fatalf("streamed round %d, want %d", r, m)
		}
	}
	s.OnRunEnd(nil)
	if sc.Scan() {
		t.Fatalf("extra line after run end: %q", sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error after run end: %v", err)
	}
}

// TestFollowerDisconnect: a hung-up follower must not wedge the server
// or the event stream.
func TestFollowerDisconnect(t *testing.T) {
	s := startServer(t)
	s.OnRoundStart(1)
	s.OnRoundEnd(event(1, 0, 0))
	resp, err := http.Get("http://" + s.Addr() + "/rounds?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	// Read the backlog, then hang up with the handler parked in Wait.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The server keeps accepting events and serving other endpoints.
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		s.OnRoundStart(2)
		s.OnRoundEnd(event(2, 0, 0))
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("observer callback blocked after follower disconnect")
	}
	if code, _ := get(t, s, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after disconnect = %d", code)
	}
}

// TestPprof pins the profiler surface: the index serves, and a CPU
// profile comes back as a valid gzip stream (the pprof proto encoding).
func TestPprof(t *testing.T) {
	s := startServer(t)
	if code, body := get(t, s, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %d", code)
	}
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d", resp.StatusCode)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("profile gzip stream: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty profile")
	}
}
