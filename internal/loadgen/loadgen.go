// Package loadgen is an open-loop HTTP load-generation engine for the
// /sched serving surface.
//
// Open loop means arrivals follow the configured schedule, not the
// server's pace: each request has an intended arrival time derived from
// the QPS ramp, and its latency is measured from that intended time, so
// queueing delay inside a saturated server (or inside the generator's own
// bounded worker pool) counts against it. This is the standard defense
// against coordinated omission — a closed loop that waits for each reply
// before sending the next request under-reports tail latency exactly when
// the server struggles.
//
// The engine hammers two endpoints: POST /sched/submit (admissions) and
// GET /sched/status (reads of previously admitted runs), mixed by
// StatusRatio. Backpressure is part of the protocol: a 429 with a
// Retry-After header is honored — the worker sleeps the advertised delay
// and retries, with the wait still charged to the request's latency.
// Per-endpoint latencies go into telemetry histograms; the Report derives
// p50/p95/p99 from them via Histogram.Quantile.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pragma-grid/pragma/internal/telemetry"
)

// Stage is one rung of the load schedule: hold QPS for Duration.
type Stage struct {
	QPS      float64       `json:"qps"`
	Duration time.Duration `json:"duration"`
}

// Ramp builds the common two-stage schedule: a warmup at half the peak
// rate, then the measured stage at peak. Zero warmup omits the first
// stage.
func Ramp(peakQPS float64, warmup, duration time.Duration) []Stage {
	var stages []Stage
	if warmup > 0 {
		stages = append(stages, Stage{QPS: peakQPS / 2, Duration: warmup})
	}
	return append(stages, Stage{QPS: peakQPS, Duration: duration})
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the target server root, e.g. "http://127.0.0.1:9600"
	// (required). The engine appends /sched/submit and /sched/status.
	BaseURL string
	// Stages is the open-loop schedule (required, in order).
	Stages []Stage
	// Workers bounds in-flight requests (default 64). When every worker
	// is busy the backlog queues; latency keeps counting from the
	// intended arrival time. QueueDepth bounds that backlog (default
	// 4*Workers); arrivals past it are counted as dropped, never
	// silently discarded.
	Workers    int
	QueueDepth int
	// StatusRatio is the fraction of requests that read /sched/status
	// of a previously admitted run instead of submitting (default 0.8).
	// Before any admission succeeds, status requests fall back to
	// submits.
	StatusRatio float64
	// SubmitParams are appended to every /sched/submit query — the spec
	// the target's SpecBuilder materializes.
	SubmitParams url.Values
	// Retries bounds how many times one request follows a 429's
	// Retry-After before counting as an error (default 2). RetryCap
	// clamps a single advertised wait (default 1s).
	Retries  int
	RetryCap time.Duration
	// Seed seeds the request-mix RNG (0 = 1) for reproducible runs.
	Seed int64
	// Client overrides the HTTP client (default: 10s timeout).
	Client *http.Client
}

func (c *Config) fill() error {
	if c.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL required")
	}
	if len(c.Stages) == 0 {
		return fmt.Errorf("loadgen: at least one stage required")
	}
	for i, st := range c.Stages {
		if st.QPS <= 0 || st.Duration <= 0 {
			return fmt.Errorf("loadgen: stage %d: qps and duration must be positive", i)
		}
	}
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.StatusRatio < 0 || c.StatusRatio > 1 {
		return fmt.Errorf("loadgen: StatusRatio must be in [0,1]")
	}
	if c.StatusRatio == 0 {
		c.StatusRatio = 0.8
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return nil
}

// latencyBuckets cover 0.25ms to ~4s in powers of two — tight enough for
// interpolated p99s at serving scale.
var latencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032,
	0.064, 0.128, 0.256, 0.512, 1.024, 2.048, 4.096,
}

// EndpointReport is the client-side view of one endpoint under load.
type EndpointReport struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// Backpressure429 counts 429 responses seen (each retried per
	// Retry-After; only exhausted retries also count as errors).
	Backpressure429 int64   `json:"backpressure429"`
	P50Ms           float64 `json:"p50Ms"`
	P95Ms           float64 `json:"p95Ms"`
	P99Ms           float64 `json:"p99Ms"`
	// ThroughputRPS is completed (non-error) requests per wall second.
	ThroughputRPS float64 `json:"throughputRps"`
}

// Report is the engine's result — schema pragma-loadgen/v1.
type Report struct {
	Schema      string  `json:"schema"`
	BaseURL     string  `json:"baseURL"`
	Stages      []Stage `json:"stages"`
	WallSeconds float64 `json:"wallSeconds"`
	// Intended is the schedule's arrival count; Issued were actually
	// started; Dropped is the difference (generator backlog overflow —
	// the bounded queue filled because the server fell too far behind).
	Intended int64 `json:"intended"`
	Issued   int64 `json:"issued"`
	Dropped  int64 `json:"dropped"`

	Endpoints []EndpointReport `json:"endpoints"`
}

// P99 returns the worst per-endpoint p99 as a duration — the -slo-p99
// gate input.
func (r *Report) P99() time.Duration {
	worst := 0.0
	for _, ep := range r.Endpoints {
		if ep.P99Ms > worst {
			worst = ep.P99Ms
		}
	}
	return time.Duration(worst * float64(time.Millisecond))
}

// CheckSLO returns an error when any endpoint's p99 exceeds slo
// (slo <= 0 disables the gate).
func (r *Report) CheckSLO(slo time.Duration) error {
	if slo <= 0 {
		return nil
	}
	for _, ep := range r.Endpoints {
		if got := time.Duration(ep.P99Ms * float64(time.Millisecond)); got > slo {
			return fmt.Errorf("loadgen: %s p99 %v exceeds SLO %v", ep.Endpoint, got, slo)
		}
	}
	return nil
}

// engine is one run's shared state.
type engine struct {
	cfg    Config
	reg    *telemetry.Registry
	lat    *telemetry.HistogramVec
	errs   *telemetry.CounterVec
	backp  *telemetry.CounterVec
	reqs   *telemetry.CounterVec
	issued atomic.Int64

	mu  sync.Mutex
	ids []string // ring of admitted run IDs for status reads
	pos int
}

const idRing = 1024

func (e *engine) recordID(id string) {
	if id == "" {
		return
	}
	e.mu.Lock()
	if len(e.ids) < idRing {
		e.ids = append(e.ids, id)
	} else {
		e.ids[e.pos%idRing] = id
		e.pos++
	}
	e.mu.Unlock()
}

func (e *engine) pickID(rng *rand.Rand) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ids) == 0 {
		return ""
	}
	return e.ids[rng.Intn(len(e.ids))]
}

// Run executes the schedule against cfg.BaseURL and reports. ctx cancels
// early (the report covers what ran).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &engine{cfg: cfg, reg: telemetry.NewRegistry()}
	e.lat = e.reg.HistogramVec("loadgen_latency_seconds",
		"request latency from intended arrival time", latencyBuckets, "endpoint")
	e.errs = e.reg.CounterVec("loadgen_errors_total", "failed requests", "endpoint")
	e.backp = e.reg.CounterVec("loadgen_backpressure_total", "429 responses", "endpoint")
	e.reqs = e.reg.CounterVec("loadgen_requests_total", "completed requests", "endpoint")

	// Arrival queue: the scheduler goroutine pushes intended times; the
	// bounded pool consumes. A full queue drops (and counts) arrivals.
	queue := make(chan time.Time, cfg.QueueDepth)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := range queue {
				e.issued.Add(1)
				e.do(ctx, rng, t0)
			}
		}()
	}

	var intended, dropped int64
	start := time.Now()
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
schedule:
	for _, st := range cfg.Stages {
		interval := time.Duration(float64(time.Second) / st.QPS)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		stageEnd := time.Now().Add(st.Duration)
		next := time.Now()
		for time.Now().Before(stageEnd) {
			if ctx.Err() != nil {
				break schedule
			}
			// Emit every arrival whose intended time has passed — a
			// coarse tick must not silently thin the schedule.
			for now := time.Now(); !next.After(now); next = next.Add(interval) {
				intended++
				select {
				case queue <- next:
				default:
					dropped++
				}
			}
			select {
			case <-ticker.C:
			case <-ctx.Done():
				break schedule
			}
		}
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := &Report{
		Schema:      "pragma-loadgen/v1",
		BaseURL:     cfg.BaseURL,
		Stages:      cfg.Stages,
		WallSeconds: wall,
		Intended:    intended,
		Issued:      e.issued.Load(),
		Dropped:     dropped,
	}
	for _, ep := range []string{"submit", "status"} {
		h := e.lat.With(ep)
		n := int64(e.reqs.With(ep).Value())
		errs := int64(e.errs.With(ep).Value())
		er := EndpointReport{
			Endpoint:        ep,
			Requests:        n,
			Errors:          errs,
			Backpressure429: int64(e.backp.With(ep).Value()),
			P50Ms:           1e3 * h.Quantile(0.50),
			P95Ms:           1e3 * h.Quantile(0.95),
			P99Ms:           1e3 * h.Quantile(0.99),
		}
		if wall > 0 {
			er.ThroughputRPS = float64(n-errs) / wall
		}
		rep.Endpoints = append(rep.Endpoints, er)
	}
	return rep, nil
}

// do issues one request (mix decided by rng), honoring 429 Retry-After,
// and records its latency from the intended arrival time t0.
func (e *engine) do(ctx context.Context, rng *rand.Rand, t0 time.Time) {
	endpoint := "submit"
	reqURL := ""
	if rng.Float64() < e.cfg.StatusRatio {
		if id := e.pickID(rng); id != "" {
			endpoint = "status"
			reqURL = e.cfg.BaseURL + "/sched/status?id=" + url.QueryEscape(id)
		}
	}
	if reqURL == "" {
		v := url.Values{}
		for k, vs := range e.cfg.SubmitParams {
			v[k] = vs
		}
		reqURL = e.cfg.BaseURL + "/sched/submit?" + v.Encode()
	}

	ok := false
	for attempt := 0; attempt <= e.cfg.Retries; attempt++ {
		method := http.MethodGet
		if endpoint == "submit" {
			method = http.MethodPost
		}
		req, err := http.NewRequestWithContext(ctx, method, reqURL, nil)
		if err != nil {
			break
		}
		resp, err := e.cfg.Client.Do(req)
		if err != nil {
			break
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			e.backp.With(endpoint).Inc()
			wait := retryAfter(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if wait > e.cfg.RetryCap {
				wait = e.cfg.RetryCap
			}
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
			}
			break
		}
		if endpoint == "submit" && resp.StatusCode == http.StatusAccepted {
			var st struct {
				ID string `json:"id"`
			}
			if json.NewDecoder(resp.Body).Decode(&st) == nil {
				e.recordID(st.ID)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		ok = resp.StatusCode < 400
		break
	}
	e.reqs.With(endpoint).Inc()
	if !ok {
		e.errs.With(endpoint).Inc()
	}
	e.lat.With(endpoint).Observe(time.Since(t0).Seconds())
}

// retryAfter parses a 429's Retry-After (delay-seconds form; the sched
// surface always sends an integer). Missing or malformed → 100ms.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 100 * time.Millisecond
}
