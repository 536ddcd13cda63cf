package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/server"
	"repro/internal/workload"
)

// The daemon under test: the cmd/clipd defaults.
const (
	serveNodes      = 8
	serveBudgetW    = 1200
	serveSigma      = 0.02
	serveQueueDepth = 64
	serveReqTimeout = 5 * time.Second

	// conns is the number of keep-alive connections (serve_mixed) and
	// closed-loop feeders (serve_burst): the load is sized for two CPUs.
	conns = 2

	// mixedTimescale lets the simulated cluster finish jobs as fast as
	// they arrive, so serve_mixed's queue stays short and run length
	// changes only precision.
	mixedTimescale = 1e6
	// nominalRate is the open-loop step's offered rate in ops/s.
	nominalRate = 4000
	// p99Window is the span over which one p99 is taken; a step
	// reports the median of its windows' p99s, so that a hypervisor
	// stall spoils one window rather than the whole tail.
	p99Window = 250 * time.Millisecond
	// capacityScheduleRate sizes the closed-loop step's schedule: more
	// operations than two connections can send in the step.
	capacityScheduleRate = 60000
	// targetLag keeps a status or cancel at least this many operations
	// behind the submission it names, so the job exists by then.
	targetLag = 32
	// maxEndQueue is the longest queue a serve_mixed step may leave
	// behind; a longer one means the cluster no longer keeps up and the
	// step would measure run length.
	maxEndQueue = 32

	burstTimescale = 120
	// burstJobs is serve_burst's fixed burst size. Admission cost under
	// the default policy grows with its square, so it is part of the
	// workload's definition and never changes.
	burstJobs = 16384
	batchSize = 1024
)

// daemon is one in-process clipd.
type daemon struct {
	srv   *server.Server
	base  string
	setup time.Duration
}

// startDaemon builds the cmd/clipd stack and serves it on loopback.
// Set-up ends when the daemon is ready, including the warm-up that
// fills CLIP's profile and predictor caches for every application the
// workloads submit, which a user pays once per start.
func startDaemon(tr *tracer, timescale float64) (*daemon, error) {
	t0 := time.Now()
	root := tr.begin("setup", 0, 0)
	cl := hw.NewCluster(serveNodes, hw.HaswellSpec(), serveSigma, 42)
	sp := tr.begin("core.New", root, 0)
	clip, err := core.New(cl)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, app := range workload.Suite() {
		if _, _, err := clip.Predictor(app); err != nil {
			return nil, err
		}
	}
	sp = tr.begin("jobsched.New", root, 0)
	sched, err := jobsched.New(cl, clip, jobsched.Config{
		Bound: serveBudgetW, Policy: jobsched.AggressiveBackfill, Reallocate: true, Preempt: true,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("server.New", root, 0)
	srv, err := server.New(sched, server.Options{
		Timescale: timescale, QueueDepth: serveQueueDepth, RequestTimeout: serveReqTimeout,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("server.Start", root, 0)
	addr, err := srv.Start("127.0.0.1:0")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	return &daemon{srv: srv, base: "http://" + addr, setup: time.Since(t0)}, nil
}

// finish drains the daemon and checks its outputs: every admitted job
// terminal and accounted for, no other job present, and no sticky
// driver failure. It returns the final job list.
func (d *daemon) finish(tr *tracer, admitted map[string]bool) ([]jobsched.JobStatus, []string) {
	var problems []string
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sp := tr.begin("server.Drain", 0, 0)
	jobs, err := d.srv.Drain(ctx)
	tr.end(sp)
	if err != nil {
		problems = append(problems, fmt.Sprintf("drain: %v", err))
	}
	if err := d.srv.Failed(); err != nil {
		problems = append(problems, fmt.Sprintf("driver failed: %v", err))
	}
	if err := d.srv.Close(ctx); err != nil {
		problems = append(problems, fmt.Sprintf("close: %v", err))
	}
	seen := 0
	for _, js := range jobs {
		if !js.State.Terminal() {
			problems = append(problems, fmt.Sprintf("job %s not terminal after drain: %s", js.ID, js.State))
			break
		}
		if !admitted[js.ID] {
			problems = append(problems, fmt.Sprintf("job %s present but never admitted", js.ID))
			break
		}
		seen++
	}
	if seen != len(admitted) {
		problems = append(problems, fmt.Sprintf("%d jobs admitted, %d after drain: jobs lost", len(admitted), seen))
	}
	return jobs, problems
}

// meanWait is the mean virtual queue wait of the completed jobs.
func meanWait(jobs []jobsched.JobStatus) float64 {
	var w []float64
	for _, js := range jobs {
		if js.State == jobsched.JobCompleted {
			w = append(w, js.Start-js.Arrival)
		}
	}
	return mean(w)
}

// jobQueueSpans turns a drained job list into queue spans.
func jobQueueSpans(jobs []jobsched.JobStatus) []queueSpan {
	spans := make([]queueSpan, 0, len(jobs))
	for _, js := range jobs {
		out := js.Finish
		if js.State == jobsched.JobCompleted {
			out = js.Start
		}
		spans = append(spans, queueSpan{In: js.Arrival, Out: out})
	}
	return spans
}

// runningMean is Σ run time over the makespan: the mean number of jobs
// running at once.
func runningMean(jobs []jobsched.JobStatus) float64 {
	first, last, busy := math.Inf(1), 0.0, 0.0
	for _, js := range jobs {
		first = math.Min(first, js.Arrival)
		last = math.Max(last, js.Finish)
		if js.State == jobsched.JobCompleted {
			busy += js.Finish - js.Start
		}
	}
	if last <= first {
		return 0
	}
	return busy / (last - first)
}

// opKind is one kind of serve_mixed operation.
type opKind uint8

const (
	opSubmit opKind = iota
	opStatus
	opCancel
	opCluster
	numOpKinds
)

var opNames = [numOpKinds]string{"submit", "status", "cancel", "cluster"}

// opShare is the intended share of each kind in the mix.
var opShare = [numOpKinds]float64{0.60, 0.30, 0.05, 0.05}

// op is one scheduled request.
type op struct {
	kind   opKind
	due    time.Duration // offset from the step's start
	target int           // submit op whose job a status/cancel names, else -1
	id     string        // job id (submit) or target job id
	body   []byte        // submit body
}

// mixSchedule builds one step's seeded open-loop schedule: evenly
// spaced due times at rate ops/s for dur, kinds drawn in the opShare
// proportions, applications drawn from the suite, and status and
// cancel aimed at a random job submitted at least targetLag
// operations earlier (a cluster read while no job is old enough).
func mixSchedule(seed uint64, step int, rate float64, dur time.Duration) []op {
	r := rand.New(rand.NewPCG(seed, uint64(step)+1))
	apps := workload.Suite()
	n := int(rate * dur.Seconds())
	ops := make([]op, n)
	var submits []int
	old := 0 // submits[:old] are at least targetLag operations back
	for i := range ops {
		o := &ops[i]
		o.due = time.Duration(float64(i) / rate * float64(time.Second))
		o.target = -1
		u := r.Float64()
		switch {
		case u < opShare[opSubmit]:
			o.kind = opSubmit
		case u < opShare[opSubmit]+opShare[opStatus]:
			o.kind = opStatus
		case u < opShare[opSubmit]+opShare[opStatus]+opShare[opCancel]:
			o.kind = opCancel
		default:
			o.kind = opCluster
		}
		for old < len(submits) && submits[old] <= i-targetLag {
			old++
		}
		if o.kind == opStatus || o.kind == opCancel {
			if old == 0 {
				o.kind = opCluster
			} else {
				o.target = submits[r.IntN(old)]
				o.id = ops[o.target].id
			}
		}
		if o.kind == opSubmit {
			o.id = "m" + strconv.Itoa(step) + "-" + strconv.Itoa(i)
			app := apps[r.IntN(len(apps))].Name
			o.body = []byte(`{"id":"` + o.id + `","app":"` + app + `"}`)
			submits = append(submits, i)
		}
	}
	return ops
}

// opRecord is what the generator observed for one operation.
type opRecord struct {
	sent, done time.Duration // offsets from the step's start
	// slept is set when the worker was idle and slept until the due
	// time. Its request is then timed from the send, so the host
	// timer's overshoot, the generator's error, stays out; a request
	// sent late because the worker was still busy is timed from its due
	// time, so the wait the daemon imposed counts.
	slept bool
	code  int
	ok    bool
}

// client is a keep-alive HTTP client with at most conns connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: serveReqTimeout + time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}
}

// do sends one request and reads the whole body into buf. A transport
// error reports code 0.
func do(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) int {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// stepResult is one serve_mixed step.
type stepResult struct {
	rate     float64 // offered ops/s; 0 for the closed-loop capacity step
	setup    time.Duration
	lat      []float64 // ms, +Inf for a failed operation; see opRecord.slept
	late     []float64 // due → sent, ms (open loop)
	behind   []float64 // latency clock start → sent, ms: the wait the daemon imposed
	xfer     []float64 // sent → done, ms (successful operations)
	sent     [numOpKinds]int
	failed   int
	admitted int
	wall     time.Duration // start → last done
	endQueue int
	heapMB   float64
	jobs     []jobsched.JobStatus
	tele     delta
	problems []string
}

// p99 is the median over the step's p99 windows of each window's p99.
func (s *stepResult) p99() float64 {
	return windowQuantile(s.lat, int(s.rate*p99Window.Seconds()), 0.99)
}

// runMixedStep starts a fresh daemon and plays one step of the mix
// over conns keep-alive connections for dur. With rate > 0 the step is
// open loop: each request is due at its scheduled time, and a worker
// that falls behind sends late rather than skipping, so no send is
// dropped and the wait a slow daemon imposes on later requests counts
// (see opRecord.slept). With rate 0 the step is closed loop: both
// connections send back to back, which measures the daemon's capacity.
func runMixedStep(tr *tracer, seed uint64, step int, rate float64, dur time.Duration) (*stepResult, error) {
	open := rate > 0
	schedRate := rate
	if !open {
		schedRate = capacityScheduleRate
	}
	ops := mixSchedule(seed, step, schedRate, dur)
	d, err := startDaemon(tr, mixedTimescale)
	if err != nil {
		return nil, err
	}
	res := &stepResult{rate: rate, setup: d.setup}
	stepSpan := tr.begin(fmt.Sprintf("step %.0f ops/s", rate), 0, 0)
	c := newClient()
	urls := [numOpKinds]string{d.base + "/v1/jobs", d.base + "/v1/jobs/", d.base + "/v1/jobs/", d.base + "/v1/cluster"}
	methods := [numOpKinds]string{http.MethodPost, http.MethodGet, http.MethodDelete, http.MethodGet}
	recs := make([]opRecord, len(ops))
	done := make([]atomic.Bool, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup

	before := takeProbe()
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || (!open && time.Since(start) >= dur) {
					return
				}
				o := &ops[i]
				slept := false
				if wait := time.Until(start.Add(o.due)); open && wait > 0 {
					time.Sleep(wait)
					slept = true
				}
				for o.target >= 0 && !done[o.target].Load() {
					time.Sleep(50 * time.Microsecond)
				}
				url := urls[o.kind]
				if o.kind == opStatus || o.kind == opCancel {
					url += o.id
				}
				sent := time.Now()
				code := do(c, methods[o.kind], url, o.body, &buf)
				end := time.Now()
				ok := false
				switch o.kind {
				case opSubmit:
					ok = code == http.StatusCreated && bytes.Contains(buf.Bytes(), []byte(`"`+o.id+`"`))
				case opStatus:
					ok = code == http.StatusOK && bytes.Contains(buf.Bytes(), []byte(`"`+o.id+`"`))
				case opCancel:
					// A 409 answers a cancel of a job that already
					// finished or was already cancelled.
					ok = code == http.StatusOK || code == http.StatusConflict
				case opCluster:
					ok = code == http.StatusOK
				}
				recs[i] = opRecord{sent: sent.Sub(start), done: end.Sub(start), slept: slept, code: code, ok: ok}
				done[i].Store(true)
				tr.record("http."+opNames[o.kind], stepSpan, int64(i), sent, end)
			}
		}()
	}
	wg.Wait()
	res.heapMB = liveHeapMB()
	res.tele = takeProbe().since(before)
	tr.end(stepSpan)

	// Operations are taken in index order and the clock only moves
	// forward, so a closed-loop step sends a prefix of its schedule.
	sentOps := 0
	for sentOps < len(ops) && done[sentOps].Load() {
		sentOps++
	}
	if !open {
		ops = ops[:sentOps]
	}
	admitted := map[string]bool{}
	for i, r := range recs[:sentOps] {
		o := &ops[i]
		res.sent[o.kind]++
		from := r.sent
		if open {
			res.late = append(res.late, ms(r.sent-o.due))
			if !r.slept {
				from = o.due
			}
		}
		res.behind = append(res.behind, ms(r.sent-from))
		res.wall = max(res.wall, r.done)
		if !r.ok {
			res.failed++
			res.lat = append(res.lat, math.Inf(1))
			continue
		}
		res.lat = append(res.lat, ms(r.done-from))
		res.xfer = append(res.xfer, ms(r.done-r.sent))
		if o.kind == opSubmit {
			admitted[o.id] = true
		}
	}
	res.admitted = len(admitted)

	var cs server.ClusterJSON
	var buf bytes.Buffer
	if code := do(c, http.MethodGet, d.base+"/v1/cluster", nil, &buf); code != http.StatusOK {
		res.problems = append(res.problems, fmt.Sprintf("step %.0f: end-of-step cluster read got %d", rate, code))
	} else if err := json.Unmarshal(buf.Bytes(), &cs); err != nil {
		res.problems = append(res.problems, fmt.Sprintf("step %.0f: cluster body: %v", rate, err))
	}
	res.endQueue = cs.Queued
	if cs.Queued > maxEndQueue {
		res.problems = append(res.problems, fmt.Sprintf(
			"step %.0f: %d jobs queued at the end of the step (limit %d): the cluster no longer keeps up",
			rate, cs.Queued, maxEndQueue))
	}
	c.CloseIdleConnections()
	jobs, probs := d.finish(tr, admitted)
	res.problems = append(res.problems, probs...)
	res.jobs = jobs
	res.problems = append(res.problems, checkMix(ops, res.sent, rate)...)
	return res, nil
}

// checkMix verifies that every scheduled operation was sent and that
// the seed's schedule has the intended mix: each kind's share within
// five binomial standard deviations of its target, plus the few
// operations at the start that name no job yet.
func checkMix(ops []op, sent [numOpKinds]int, rate float64) []string {
	var want [numOpKinds]int
	for _, o := range ops {
		want[o.kind]++
	}
	var p []string
	n := float64(len(ops))
	for k := opKind(0); k < numOpKinds; k++ {
		if sent[k] != want[k] {
			p = append(p, fmt.Sprintf("step %.0f: %d of %d %s operations sent", rate, sent[k], want[k], opNames[k]))
		}
		tol := 5*math.Sqrt(opShare[k]*(1-opShare[k])/n) + targetLag/n
		if share := float64(want[k]) / n; math.Abs(share-opShare[k]) > tol {
			p = append(p, fmt.Sprintf("step %.0f: %s is %.3f of the mix, want %.2f", rate, opNames[k], share, opShare[k]))
		}
	}
	return p
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mixedChunk is the length of one serve_mixed step. The run
// interleaves many short open- and closed-loop steps and reports
// medians over them, so a slow spell of the host spoils a few steps
// instead of a whole metric.
const mixedChunk = 1500 * time.Millisecond

// serveMixed plays rounds of an open-loop step at the nominal rate and
// a closed-loop step, each on a fresh daemon, until the run's time is
// spent (at least three rounds). The open-loop step gives the heap
// and, per layer, the open-loop latency; the closed-loop step gives
// capacity, the jobs admitted per second at capacity and the request
// round trip, lat_p50_ms: the median over rounds of the step's mean
// round trip. With two requests always outstanding the mean is two
// over the rate, so it follows the daemon's work; a step's median
// request did not follow the host's speed, and across ten runs of the
// same code it spread by a third. The open loop admits jobs at the
// offered rate whatever the daemon's speed, so its rate is only a
// note. Open-loop latency at moderate load is set by how fast the host
// wakes an idle virtual CPU, which swung 2× within minutes on a 2-vCPU
// virtual machine, so it is not gated. The traced run replaces each
// closed-loop step by a traced open-loop step.
func serveMixed(cfg runConfig) (*result, error) {
	res := newResult()
	rounds := max(3, int(cfg.seconds/(2*mixedChunk)))
	var setups, openP50s, openTputs, lats, p50s, tputs, rates, heaps []float64
	var traced []*stepResult
	for r := 0; r < rounds; r++ {
		cfg.host.tick()
		open, err := runMixedStep(nil, cfg.seed, 2*r, nominalRate, mixedChunk)
		if err != nil {
			return nil, err
		}
		var tr *tracer
		rate := 0.0
		if cfg.trace {
			if res.tracer == nil {
				res.tracer = newTracer()
			}
			tr, rate = res.tracer, nominalRate
		}
		cfg.host.tick()
		second, err := runMixedStep(tr, cfg.seed, 2*r+1, rate, mixedChunk)
		if err != nil {
			return nil, err
		}
		for _, st := range []*stepResult{open, second} {
			res.attempted += len(st.lat)
			res.failed += st.failed
			res.problems = append(res.problems, st.problems...)
			setups = append(setups, st.setup.Seconds())
		}
		openP50s = append(openP50s, median(open.lat))
		openTputs = append(openTputs, float64(open.admitted)/open.wall.Seconds())
		heaps = append(heaps, open.heapMB)
		if cfg.trace {
			traced = append(traced, second)
			res.note("round %d: open loop p50 %.3f ms untraced, %.3f ms traced", r, median(open.lat), median(second.lat))
			continue
		}
		rates = append(rates, float64(len(second.lat))/second.wall.Seconds())
		tputs = append(tputs, float64(second.admitted)/second.wall.Seconds())
		lats = append(lats, mean(second.lat))
		p50s = append(p50s, median(second.lat))
		res.note("round %d: open loop %d ops/s p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms, queue %d; closed loop %.0f ops/s, p50 %.3f ms, queue %d",
			r, nominalRate, median(open.lat), open.p99(), quantile(open.late, 0.99), open.endQueue,
			rates[r], median(second.lat), second.endQueue)
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["heap_peak_mb"] = median(heaps)
	if !cfg.trace {
		res.e2e["lat_p50_ms"] = median(lats)
		res.e2e["max_rate_ops_s"] = median(rates)
		res.e2e["jobs_per_s"] = median(tputs)
		res.note("closed loop over rounds: request p50 %.4f ms, mean %.4f ms", median(p50s), median(lats))
		res.note("open loop over rounds: p50 %.4f ms (per-layer client.open_p50_ms), %.1f jobs admitted/s",
			median(openP50s), median(openTputs))
		return res, nil
	}
	// Per-layer rows from the traced steps, summed over rounds.
	var tele delta
	var js jobStats
	var lat, late, behind, xfer []float64
	var wall time.Duration
	for _, st := range traced {
		tele.add(st.tele)
		js.add(st.jobs)
		lat = append(lat, st.lat...)
		late = append(late, st.late...)
		behind = append(behind, st.behind...)
		xfer = append(xfer, st.xfer...)
		wall += st.wall
	}
	l := res.layer
	l["client.late_p99_ms"] = quantile(late, 0.99)
	l["client.open_p50_ms"] = median(openP50s)
	l["client.lat_p99_ms"] = windowQuantile(lat, int(nominalRate*p99Window.Seconds()), 0.99)
	l["client.ops"] = float64(len(lat))
	serverLayers(l, tele, xfer)
	jobLayers(l, tele, wall, js)
	scaleCounts(l, float64(len(traced)))
	l["trace.overhead_frac"] = median(finite(lat))/median(openP50s) - 1
	whole := mean(finite(lat))
	lateMean := mean(behind)
	handler := l["split.server_handler_ms"]
	transport := mean(xfer) - handler
	l["split.whole_ms"] = whole
	l["split.client_late_ms"] = lateMean
	l["split.server_transport_ms"] = transport
	l["split.remainder_ms"] = whole - lateMean - handler - transport
	return res, nil
}

// finite drops infinite samples (failed operations).
func finite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// serverLayers fills the server rows from a phase's telemetry delta and
// the client-side request times (ms) of its successful requests.
func serverLayers(l map[string]float64, d delta, xfer []float64) {
	var sum float64
	var n uint64
	for _, route := range []string{"submit", "status", "cancel", "cluster", "batch"} {
		name := `clip_http_request_seconds{route="` + route + `"}`
		c, s := d.histCount[name], d.histSum[name]
		sum += s
		n += c
		if c > 0 {
			l["server.handler_ms."+route] = s / float64(c) * 1e3
		}
	}
	if n > 0 {
		l["split.server_handler_ms"] = sum / float64(n) * 1e3
		l["server.transport_ms"] = mean(xfer) - l["split.server_handler_ms"]
	}
	l["server.rejected"] = float64(d.counters["clip_http_rejected_total"])
}

// burstRep is one serve_burst repetition.
type burstRep struct {
	setup    time.Duration
	timed    time.Duration
	batchMs  []float64
	admitted int
	failed   int
	heapMB   float64
	waitMean float64
	jobs     []jobsched.JobStatus
	tele     delta
	problems []string
}

// burstBodies renders the burst as batch request bodies: burstJobs
// jobs with seeded applications, batchSize per request.
func burstBodies(seed uint64) ([][]byte, []string) {
	r := rand.New(rand.NewPCG(seed, 0xb0057))
	apps := workload.Suite()
	var bodies [][]byte
	var ids []string
	for b := 0; b < burstJobs/batchSize; b++ {
		req := server.BatchSubmitRequest{}
		for j := 0; j < batchSize; j++ {
			id := "b" + strconv.Itoa(b*batchSize+j)
			ids = append(ids, id)
			req.Jobs = append(req.Jobs, server.SubmitRequest{ID: id, App: apps[r.IntN(len(apps))].Name})
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a plain struct always marshals
		}
		bodies = append(bodies, body)
	}
	return bodies, ids
}

// runBurst starts a fresh daemon at timescale 120 and pushes the whole
// burst through conns closed-loop feeders; the timed phase ends when
// the last batch returns. The daemon is then drained and checked.
func runBurst(tr *tracer, bodies [][]byte) (*burstRep, error) {
	d, err := startDaemon(tr, burstTimescale)
	if err != nil {
		return nil, err
	}
	rep := &burstRep{setup: d.setup, batchMs: make([]float64, len(bodies))}
	c := newClient()
	url := d.base + "/v1/jobs:batch"
	codes := make([]int, len(bodies))
	admitted := make([]int, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	burstSpan := tr.begin("burst", 0, 0)
	before := takeProbe()
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				sent := time.Now()
				codes[i] = do(c, http.MethodPost, url, bodies[i], &buf)
				end := time.Now()
				rep.batchMs[i] = ms(end.Sub(sent))
				tr.record("http.batch", burstSpan, int64(i), sent, end)
				var out struct {
					Admitted int `json:"admitted"`
				}
				if codes[i] == http.StatusOK && json.Unmarshal(buf.Bytes(), &out) == nil {
					admitted[i] = out.Admitted
				}
			}
		}()
	}
	wg.Wait()
	rep.timed = time.Since(start)
	rep.heapMB = liveHeapMB()
	rep.tele = takeProbe().since(before)
	tr.end(burstSpan)
	c.CloseIdleConnections()

	ids := map[string]bool{}
	for i := range bodies {
		if codes[i] != http.StatusOK || admitted[i] != batchSize {
			rep.failed++
			rep.problems = append(rep.problems, fmt.Sprintf(
				"batch %d: status %d, %d of %d jobs admitted", i, codes[i], admitted[i], batchSize))
			continue
		}
		rep.admitted += admitted[i]
		for j := 0; j < batchSize; j++ {
			ids["b"+strconv.Itoa(i*batchSize+j)] = true
		}
	}
	if rep.admitted != burstJobs {
		rep.problems = append(rep.problems, fmt.Sprintf("burst admitted %d of %d jobs", rep.admitted, burstJobs))
	}
	jobs, probs := d.finish(tr, ids)
	rep.problems = append(rep.problems, probs...)
	rep.jobs = jobs
	rep.waitMean = meanWait(jobs)
	return rep, nil
}

// serveBurst plays one untimed warm-up burst, then repeats the burst
// until the run's time is spent (at least three times) and reports
// medians over repetitions. Its latency is each burst's mean batch
// latency: the two feeders contend for the daemon, and how their
// batches interleave moves single batch latencies, and so their
// median, by a quarter between bursts, while the mean follows the
// work done.
func serveBurst(cfg runConfig) (*result, error) {
	res := newResult()
	bodies, _ := burstBodies(cfg.seed)
	warm, err := runBurst(nil, bodies)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, warm.problems...)
	res.note("warm-up burst: %d jobs in %.3f s", warm.admitted, warm.timed.Seconds())
	var setups, lat, batchMeans, tput, heaps []float64
	var plainLat, tracedLat []float64
	var tele delta
	var tracedWall time.Duration
	var xfer []float64
	var js jobStats
	begin := time.Now()
	for rep := 0; rep < 3 || time.Since(begin) < cfg.seconds; rep++ {
		var tr *tracer
		if cfg.trace && rep%2 == 1 {
			if res.tracer == nil {
				res.tracer = newTracer()
			}
			tr = res.tracer
		}
		cfg.host.tick()
		r, err := runBurst(tr, bodies)
		if err != nil {
			return nil, err
		}
		res.attempted += len(bodies)
		res.failed += r.failed
		res.problems = append(res.problems, r.problems...)
		setups = append(setups, r.setup.Seconds())
		lat = append(lat, r.batchMs...)
		batchMeans = append(batchMeans, mean(r.batchMs))
		tput = append(tput, float64(r.admitted)/r.timed.Seconds())
		heaps = append(heaps, r.heapMB)
		res.note("burst %d: %d jobs in %.3f s (%.0f jobs/s), batch p50 %.2f ms, mean %.2f ms, heap %.1f MB, mean wait %.1f s",
			rep, r.admitted, r.timed.Seconds(), tput[len(tput)-1], median(r.batchMs), mean(r.batchMs), r.heapMB, r.waitMean)
		if tr != nil {
			tracedLat = append(tracedLat, r.batchMs...)
			tele.add(r.tele)
			tracedWall += r.timed
			xfer = append(xfer, r.batchMs...)
			js.add(r.jobs)
		} else {
			plainLat = append(plainLat, r.batchMs...)
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["lat_p50_ms"] = median(batchMeans)
	res.e2e["jobs_per_s"] = median(tput)
	res.e2e["max_rate_ops_s"] = median(tput)
	res.e2e["heap_peak_mb"] = median(heaps)
	res.note("%d batches of %d jobs, batch p50 %.2f ms", len(lat), batchSize, median(lat))
	if cfg.trace {
		l := res.layer
		reps := float64(len(js.running))
		l["client.ops"] = float64(len(tracedLat))
		serverLayers(l, tele, xfer)
		jobLayers(l, tele, tracedWall, js)
		scaleCounts(l, reps)
		l["trace.overhead_frac"] = median(tracedLat)/median(plainLat) - 1
		whole := mean(tracedLat)
		handler := l["split.server_handler_ms"]
		l["split.whole_ms"] = whole
		l["split.server_transport_ms"] = whole - handler
		l["split.remainder_ms"] = 0
	}
	return res, nil
}
