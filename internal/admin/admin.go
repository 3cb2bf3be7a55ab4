// Package admin embeds an HTTP observability surface into a fedsparse
// process.  A Server implements fl.Observer: it is attached to an engine
// run (fl.Config.Observer) or a transport coordinator
// (transport.ServerConfig.Observer) and mirrors the round-event stream
// into state that four endpoint families read:
//
//	GET /metrics        Prometheus text exposition (fedsparse_* families)
//	GET /healthz        liveness (always 200 while the process serves)
//	GET /readyz         readiness: enrollment complete, run live, not failed
//	GET /rounds         NDJSON round dump; ?follow=1 streams rounds live
//	GET /debug/pprof/*  standard net/http/pprof handlers
//
// The server is strictly a consumer: observer callbacks only copy the
// event into guarded state and broadcast a condition variable.  They
// run synchronously at round boundaries on the engine/coordinator
// goroutine, so handlers never block a callback for longer than a
// mutex critical section, and attaching the server never changes a
// run's results (the passivity contract pinned by the fl and transport
// observer tests).
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"fedsparse/internal/fl"
)

// Server holds the mirrored run state and the embedded HTTP server.
// Create one with Serve; it is ready to use as an fl.Observer
// immediately.  All exported methods are safe for concurrent use.
type Server struct {
	mu   sync.Mutex
	cond *sync.Cond

	// startedRound is the highest round passed to OnRoundStart. Under a
	// bounded-staleness window W it leads len(events) by up to W — the
	// rounds in flight — and stays ahead after a MaxTime/HaltAfter stop,
	// whose last W starts never get an end (see fl.Observer).
	startedRound int
	started      bool // at least one OnRoundStart observed
	done         bool // OnRunEnd observed
	runErr       error

	events    []fl.RoundEvent // every completed round, in order
	last      fl.RoundEvent   // == events[len(events)-1] when haveEvent
	haveEvent bool

	bytesUpTotal   uint64
	bytesDownTotal uint64
	churnEvents    uint64
	walAppends     uint64 // high-water marks: per-run counters, keep max
	walSnapshots   uint64

	// Last non-NaN evaluation metrics (engine runs evaluate every
	// EvalEvery rounds; transport events carry NaN here).
	testAcc, testLoss, trainLoss float64
	haveEval, haveTrain          bool

	expClients, expShards int
	enrClients, enrShards int
	resumed               bool

	ln     net.Listener
	srv    *http.Server
	closed bool
}

// Serve starts an admin server listening on addr (host:port; use port 0
// for an ephemeral port).  The HTTP server runs in a background
// goroutine until Close.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	s.cond = sync.NewCond(&s.mu)
	s.testAcc, s.testLoss, s.trainLoss = math.NaN(), math.NaN(), math.NaN()

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/rounds", s.handleRounds)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the address the server is listening on, for clients to
// dial after an ephemeral-port Serve.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the HTTP server down, terminating any live /rounds
// followers, and wakes all waiters.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.srv.Close()
}

// SetExpected records how many clients and shards the run waits for
// before it can start; /readyz reports 503 until enrollment reaches it.
func (s *Server) SetExpected(clients, shards int) {
	s.mu.Lock()
	s.expClients, s.expShards = clients, shards
	s.mu.Unlock()
}

// SetEnrolled records current enrollment progress.
func (s *Server) SetEnrolled(clients, shards int) {
	s.mu.Lock()
	s.enrClients, s.enrShards = clients, shards
	s.mu.Unlock()
}

// SetResumed marks the run as resumed from a durable log; surfaced on
// /readyz and as the fedsparse_resumed gauge.
func (s *Server) SetResumed(v bool) {
	s.mu.Lock()
	s.resumed = v
	s.mu.Unlock()
}

// OnRoundStart implements fl.Observer.
func (s *Server) OnRoundStart(round int) {
	s.mu.Lock()
	s.started = true
	if round > s.startedRound {
		s.startedRound = round
	}
	s.mu.Unlock()
}

// OnRoundEnd implements fl.Observer.
func (s *Server) OnRoundEnd(ev fl.RoundEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.last = ev
	s.haveEvent = true
	s.bytesUpTotal += ev.BytesUp
	s.bytesDownTotal += ev.BytesDown
	s.churnEvents += uint64(ev.ChurnEvents)
	if ev.WALAppends > s.walAppends {
		s.walAppends = ev.WALAppends
	}
	if ev.WALSnapshots > s.walSnapshots {
		s.walSnapshots = ev.WALSnapshots
	}
	if !math.IsNaN(ev.TestAcc) {
		s.testAcc, s.testLoss = ev.TestAcc, ev.TestLoss
		s.haveEval = true
	}
	if !math.IsNaN(ev.TrainLoss) {
		s.trainLoss = ev.TrainLoss
		s.haveTrain = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// OnRunEnd implements fl.Observer.
func (s *Server) OnRunEnd(err error) {
	s.mu.Lock()
	s.done = true
	s.runErr = err
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyState is the /readyz response body.
type readyState struct {
	Ready           bool   `json:"ready"`
	Reason          string `json:"reason,omitempty"`
	Round           int    `json:"round"`
	RoundsDone      int    `json:"rounds_done"`
	ClientsExpected int    `json:"clients_expected"`
	ClientsEnrolled int    `json:"clients_enrolled"`
	ShardsExpected  int    `json:"shards_expected"`
	ShardsEnrolled  int    `json:"shards_enrolled"`
	Resumed         bool   `json:"resumed"`
	Done            bool   `json:"done"`
	Error           string `json:"error,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := readyState{
		Round:           s.startedRound,
		RoundsDone:      len(s.events),
		ClientsExpected: s.expClients,
		ClientsEnrolled: s.enrClients,
		ShardsExpected:  s.expShards,
		ShardsEnrolled:  s.enrShards,
		Resumed:         s.resumed,
		Done:            s.done,
	}
	switch {
	case s.done && s.runErr != nil:
		st.Reason = "run failed"
		st.Error = s.runErr.Error()
	case s.expClients > 0 && s.enrClients < s.expClients:
		st.Reason = "waiting for clients"
	case s.expShards > 0 && s.enrShards < s.expShards:
		st.Reason = "waiting for shards"
	case !s.started && !s.done:
		st.Reason = "run not started"
	default:
		st.Ready = true
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.Encode(st)
}

// roundJSON is the NDJSON shape served by /rounds.  The evaluation
// fields are pointers so that NaN (not evaluated this round) becomes an
// omitted key instead of a json.Marshal error.
type roundJSON struct {
	Round              int       `json:"round"`
	K                  int       `json:"k"`
	KCont              float64   `json:"k_cont"`
	RoundTime          float64   `json:"round_time"`
	Time               float64   `json:"time"`
	Loss               float64   `json:"loss"`
	DownlinkElems      int       `json:"downlink_elems"`
	Participants       int       `json:"participants"`
	Population         int       `json:"population,omitempty"`
	CohortSize         int       `json:"cohort_size,omitempty"`
	ChurnEvents        int       `json:"churn_events,omitempty"`
	TestAcc            *float64  `json:"test_acc,omitempty"`
	TestLoss           *float64  `json:"test_loss,omitempty"`
	TrainLoss          *float64  `json:"train_loss,omitempty"`
	BytesUp            uint64    `json:"bytes_up"`
	BytesDown          uint64    `json:"bytes_down"`
	ShardReduceSeconds []float64 `json:"shard_reduce_seconds,omitempty"`
	WALAppends         uint64    `json:"wal_appends,omitempty"`
	WALSnapshots       uint64    `json:"wal_snapshots,omitempty"`
	WindowDepth        int       `json:"window_depth,omitempty"`
}

func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func toRoundJSON(ev fl.RoundEvent) roundJSON {
	return roundJSON{
		Round:              ev.Round,
		K:                  ev.K,
		KCont:              ev.KCont,
		RoundTime:          ev.RoundTime,
		Time:               ev.Time,
		Loss:               ev.Loss,
		DownlinkElems:      ev.DownlinkElems,
		Participants:       ev.Participants,
		Population:         ev.Population,
		CohortSize:         ev.CohortSize,
		ChurnEvents:        ev.ChurnEvents,
		TestAcc:            finitePtr(ev.TestAcc),
		TestLoss:           finitePtr(ev.TestLoss),
		TrainLoss:          finitePtr(ev.TrainLoss),
		BytesUp:            ev.BytesUp,
		BytesDown:          ev.BytesDown,
		ShardReduceSeconds: ev.ShardReduceSeconds,
		WALAppends:         ev.WALAppends,
		WALSnapshots:       ev.WALSnapshots,
		WindowDepth:        ev.WindowDepth,
	}
}

// handleRounds serves every completed round as one JSON object per
// line.  With ?follow=1 the response stays open and new rounds are
// appended as they complete, until the run ends or the client hangs up.
// Each round is written exactly once per connection: the handler tracks
// an index into the event slice and waits on the condition variable for
// more.
func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A follower blocked in cond.Wait would never notice its client
	// hanging up; poke the condition variable when the request dies.
	stop := context.AfterFunc(r.Context(), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	i := 0
	for {
		s.mu.Lock()
		for follow && i >= len(s.events) && !s.done && !s.closed && r.Context().Err() == nil {
			s.cond.Wait()
		}
		batch := s.events[i:]
		i = len(s.events)
		ended := s.done || s.closed
		s.mu.Unlock()

		for _, ev := range batch {
			if err := enc.Encode(toRoundJSON(ev)); err != nil {
				return
			}
		}
		if flusher != nil && len(batch) > 0 {
			flusher.Flush()
		}
		if !follow || ended || r.Context().Err() != nil {
			return
		}
	}
}

// metricsSnapshot renders the Prometheus text exposition under the
// lock into a buffer so the lock is released before any network write.
func (s *Server) metricsSnapshot() string {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		writeMetric(&b, name, help, "gauge", v)
	}
	counter := func(name, help string, v float64) {
		writeMetric(&b, name, help, "counter", v)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	gauge("fedsparse_round", "Highest round started.", float64(s.startedRound))
	counter("fedsparse_rounds_total", "Rounds completed.", float64(len(s.events)))
	if s.haveEvent {
		ev := s.last
		gauge("fedsparse_k", "Sparsification degree k used in the last round.", float64(ev.K))
		gauge("fedsparse_k_continuous", "Continuous (pre-rounding) k estimate for the last round.", ev.KCont)
		gauge("fedsparse_round_time", "Normalized duration of the last round.", ev.RoundTime)
		counter("fedsparse_time_total", "Cumulative normalized time over all rounds.", ev.Time)
		gauge("fedsparse_train_loss", "Sampled training loss at the last round boundary.", ev.Loss)
		gauge("fedsparse_downlink_elems", "Gradient elements broadcast on the downlink in the last round.", float64(ev.DownlinkElems))
		gauge("fedsparse_participants", "Clients that participated in the last round.", float64(ev.Participants))
		gauge("fedsparse_population", "Drawable population after churn in the last round.", float64(ev.Population))
		gauge("fedsparse_cohort_size", "Clients the cohort draw selected in the last round, before deadline dropouts.", float64(ev.CohortSize))
		counter("fedsparse_churn_events", "Cumulative population membership changes (joins plus leaves).", float64(s.churnEvents))
		gauge("fedsparse_round_bytes_up", "Uplink wire bytes received by the server in the last round.", float64(ev.BytesUp))
		gauge("fedsparse_round_bytes_down", "Downlink wire bytes sent by the server in the last round.", float64(ev.BytesDown))
		gauge("fedsparse_window_depth", "Bounded-staleness pipeline depth realized in the last round (0 = synchronous).", float64(ev.WindowDepth))
		if len(ev.ShardReduceSeconds) > 0 {
			fmt.Fprintf(&b, "# HELP fedsparse_shard_reduce_seconds Time the last round spent receiving each shard's partial reduction.\n")
			fmt.Fprintf(&b, "# TYPE fedsparse_shard_reduce_seconds gauge\n")
			for i, v := range ev.ShardReduceSeconds {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				fmt.Fprintf(&b, "fedsparse_shard_reduce_seconds{shard=%q} %s\n", strconv.Itoa(i), formatFloat(v))
			}
		}
	}
	counter("fedsparse_bytes_up_total", "Cumulative uplink wire bytes received by the server.", float64(s.bytesUpTotal))
	counter("fedsparse_bytes_down_total", "Cumulative downlink wire bytes sent by the server.", float64(s.bytesDownTotal))
	counter("fedsparse_wal_appends_total", "Round records appended to the write-ahead log this run.", float64(s.walAppends))
	counter("fedsparse_wal_snapshots_total", "Model snapshots written to the write-ahead log this run.", float64(s.walSnapshots))
	if s.haveEval {
		gauge("fedsparse_test_accuracy", "Test accuracy at the most recent evaluation.", s.testAcc)
		gauge("fedsparse_test_loss", "Test loss at the most recent evaluation.", s.testLoss)
	}
	if s.haveTrain {
		gauge("fedsparse_full_train_loss", "Full training loss at the most recent evaluation.", s.trainLoss)
	}
	gauge("fedsparse_clients_expected", "Clients the run waits to enroll.", float64(s.expClients))
	gauge("fedsparse_clients_enrolled", "Clients currently enrolled.", float64(s.enrClients))
	gauge("fedsparse_shards_expected", "Shards the run waits to enroll.", float64(s.expShards))
	gauge("fedsparse_shards_enrolled", "Shards currently enrolled.", float64(s.enrShards))
	gauge("fedsparse_resumed", "1 if this run resumed from a durable log.", boolVal(s.resumed))
	gauge("fedsparse_run_done", "1 once the run has ended.", boolVal(s.done))
	gauge("fedsparse_run_failed", "1 if the run ended with an error.", boolVal(s.done && s.runErr != nil))
	return b.String()
}

func boolVal(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeMetric emits one single-series family with its HELP and TYPE
// lines.  NaN and infinite values are skipped entirely (family and
// all) rather than serialized.
func writeMetric(b *strings.Builder, name, help, typ string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
	fmt.Fprintf(b, "%s %s\n", name, formatFloat(v))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := s.metricsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, body)
}
