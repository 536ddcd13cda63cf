package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fed"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The federation under test: cmd/clipfed's shard layout.
const (
	fedShards  = 64
	fedNodes   = 4
	fedBudgetW = 400
	fedSigma   = 0.02
	hipri      = 10

	// maxMeanWaitS bounds a federation's mean queue wait: queues that
	// grow without bound would make the run measure its own length.
	maxMeanWaitS = 600
)

// fedWorkload defines one federation workload.
type fedWorkload struct {
	routing   fed.Policy
	lend      bool
	hipriFrac float64 // share of jobs at priority hipri (turns on preemption)
	gap       float64 // mean virtual seconds between arrivals
	jobs      int     // jobs in the arrival trace, fixed per workload
	// parallel times RunParallel(nproc) instead of the serial Run.
	parallel bool
}

var (
	// fedLending: the lending broker and the priority pipeline busy.
	// Locality routing leaves some shards queued while others idle, so
	// leases flow at a load the shards can sustain. Least-loaded
	// routing queues only once all 64 shards are busy, which makes the
	// load a knife edge: at gap 2.5 the mean wait over seeds 1–8 ranged
	// from 0.8 s to 110 s, and at gap 3 no job waited.
	fedLending = fedWorkload{routing: fed.Locality, lend: true, hipriFrac: 0.1, gap: 4, jobs: 16384}
	// fedPartitioned: locality routing with lending off, so RunParallel
	// takes the partitioned executor and the broker stays inert.
	fedPartitioned = fedWorkload{routing: fed.Locality, gap: 3, jobs: 65536, parallel: true}
)

// arrival is one job of the federation's input trace.
type arrival struct {
	t   float64
	id  string
	app *workload.Spec
	pri int
}

// fedTrace is cmd/clipfed's seeded arrival generator: uniform gaps of
// mean gap over the workload suite, ids doubling as locality keys, and
// priorities drawn from their own stream.
func fedTrace(seed uint64, w fedWorkload) []arrival {
	mix := workload.Suite()
	r := rng.New(seed)
	pr := rng.New(seed + 0x9e3779b97f4a7c15)
	out := make([]arrival, w.jobs)
	now := 0.0
	for i := range out {
		now += r.Range(0, 2*w.gap)
		pri := 0
		if w.hipriFrac > 0 && pr.Float64() < w.hipriFrac {
			pri = hipri
		}
		out[i] = arrival{t: now, id: fmt.Sprintf("job-%05d", i), app: mix[r.Intn(len(mix))], pri: pri}
	}
	return out
}

func (w fedWorkload) config() fed.Config {
	cfg := fed.Config{Routing: w.routing, Lending: fed.Lending{Enabled: w.lend, TTL: 240, QuantumW: 60}}
	for i := 0; i < fedShards; i++ {
		cfg.Shards = append(cfg.Shards, fed.ShardConfig{
			Nodes: fedNodes, BudgetW: fedBudgetW, Sigma: fedSigma, Seed: int64(1000 + i),
			Policy: jobsched.AggressiveBackfill, Reallocate: true, Preempt: w.hipriFrac > 0,
		})
	}
	return cfg
}

// fedRep is one federation run.
type fedRep struct {
	setup, newDur, wall time.Duration
	workers             int
	completed, failed   int
	routed, lost        int
	events              uint64
	audits, leases      int
	preempted, hiPri    int
	waitMean            float64
	digest              string
	heapMB              float64
	jobs                jobStats // filled on traced runs only
	tele                delta
	problems            []string
}

// runFed builds a federation, schedules the trace and runs it to the
// end with workers (0: serial Run; traced serial runs step it). The
// outputs are then checked: audit-clean, zero jobs lost.
func runFed(w fedWorkload, trace []arrival, workers int, tr *tracer) (*fedRep, error) {
	rep := &fedRep{workers: workers}
	t0 := time.Now()
	setupSpan := tr.begin("setup", 0, 0)
	sp := tr.begin("fed.New", setupSpan, 0)
	f, err := fed.New(w.config())
	rep.newDur = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, a := range trace {
		if err := f.ScheduleArrivalPri(a.t, a.id, a.app, a.id, a.pri); err != nil {
			return nil, err
		}
	}
	tr.end(setupSpan)
	rep.setup = time.Since(t0)

	before := takeProbe()
	start := time.Now()
	switch {
	case workers > 0:
		sp = tr.begin("fed.RunParallel", 0, 0)
		err = f.RunParallel(workers)
		tr.end(sp)
	case tr != nil:
		// Run is Step until quiescent, then Drain; stepping here puts a
		// span around every Step.
		run := tr.begin("fed.Run", 0, 0)
		for err == nil {
			sp = tr.begin("fed.Step", run, 0)
			var ok bool
			ok, err = f.Step()
			tr.end(sp)
			if !ok {
				break
			}
		}
		if err == nil {
			sp = tr.begin("fed.Drain", run, 0)
			err = f.Drain()
			tr.end(sp)
		}
		tr.end(run)
	default:
		err = f.Run()
	}
	rep.wall = time.Since(start)
	rep.heapMB = liveHeapMB()
	rep.tele = takeProbe().since(before)
	if err != nil {
		rep.problems = append(rep.problems, fmt.Sprintf("federation run: %v", err))
	}
	if f.Err() != nil {
		rep.problems = append(rep.problems, fmt.Sprintf("federation failed: %v", f.Err()))
	}

	rep.events = f.Events()
	var violations int
	rep.audits, violations = f.AuditStats()
	if violations > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d audit violations", violations))
	}
	rep.leases = len(f.Leases())
	var rows []schedRow
	var waits []float64
	for _, sh := range f.Shards() {
		jobs := sh.Online.Jobs()
		if tr != nil {
			rep.jobs.add(jobs)
		}
		for _, js := range jobs {
			rep.routed++
			switch js.State {
			case jobsched.JobCompleted:
				rep.completed++
				waits = append(waits, js.Start-js.Arrival)
			case jobsched.JobFailed:
				rep.failed++
			}
			if js.Preemptions > 0 {
				rep.preempted++
			}
			if js.Priority == hipri {
				rep.hiPri++
			}
			rows = append(rows, schedRow{ID: js.ID, Shard: sh.ID, Start: js.Start, Finish: js.Finish})
		}
	}
	rep.lost = rep.routed - rep.completed - rep.failed
	if rep.routed != len(trace) {
		rep.lost += len(trace) - rep.routed
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d jobs routed", rep.routed, len(trace)))
	}
	if rep.lost != 0 || rep.failed != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d jobs lost, %d failed", rep.lost, rep.failed))
	}
	rep.waitMean = mean(waits)
	rep.digest = scheduleDigest(rows)
	return rep, nil
}

// guard checks that the run still exercises the workload's path.
func (w fedWorkload) guard(rep *fedRep) []string {
	var p []string
	if !(rep.waitMean <= maxMeanWaitS) {
		p = append(p, fmt.Sprintf("mean wait %.1f s exceeds %d s: queues grow", rep.waitMean, maxMeanWaitS))
	}
	if w.lend {
		if rep.leases == 0 {
			p = append(p, "no lease granted: the broker is not exercised")
		}
		if rep.preempted == 0 {
			p = append(p, "no job preempted: the priority pipeline is not exercised")
		}
		if rep.hiPri == 0 {
			p = append(p, "no priority job routed")
		}
	}
	if w.parallel && rep.workers > 0 {
		windows := rep.tele.counters["clip_fed_windows_total"]
		inWindow := rep.tele.counters["clip_fed_window_events_total"]
		if windows != 1 || inWindow+uint64(rep.routed) != rep.events {
			p = append(p, fmt.Sprintf("%d windows, %d of %d events in windows: not the partitioned executor",
				windows, inWindow, rep.events))
		}
		if rep.leases != 0 {
			p = append(p, fmt.Sprintf("%d leases on a partitioned run", rep.leases))
		}
	}
	return p
}

// runFedWorkload runs one untimed warm-up on the other executor, then
// timed repetitions until the run's time is spent (at least three). Every
// repetition must produce the warm-up's schedule digest, which must
// equal the recorded digest for the seed when there is one.
func runFedWorkload(cfg runConfig, name string, w fedWorkload) (*result, error) {
	res := newResult()
	res.hostScaled["setup_s"] = 1
	trace := fedTrace(cfg.seed, w)
	nproc := runtime.NumCPU()
	timedWorkers, warmWorkers := 0, nproc
	if w.parallel {
		timedWorkers, warmWorkers = nproc, 1
	}
	warm, err := runFed(w, trace, warmWorkers, nil)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, warm.problems...)
	res.problems = append(res.problems, w.guard(warm)...)
	digest := warm.digest
	// A schedule that differs from the recorded one, or from another
	// repetition's, fails the run, unless seeds.json lists the workload
	// as one the program does not yet schedule reproducibly; then the
	// difference is reported as that defect.
	defect, known := loadSeeds().Nondeterministic[name]
	scheduleDiffers := func(msg string) {
		if known {
			res.note("KNOWN DEFECT (%s): %s", defect, msg)
			return
		}
		res.problems = append(res.problems, msg)
	}
	if want, ok := recordedDigest(name, cfg.seed); ok && want != digest {
		scheduleDiffers(fmt.Sprintf(
			"schedule digest %s differs from the recorded %s for seed %d: the schedule changed", digest, want, cfg.seed))
	}
	res.note("warm-up (workers %d): digest %s, mean wait %.3f s, %d leases, %d preempted",
		warmWorkers, digest, warm.waitMean, warm.leases, warm.preempted)

	var setups, walls, tput, heaps []float64
	var plainWall, tracedWall []float64
	var tele delta
	var traced []*fedRep
	var stepTime time.Duration
	var steps int
	begin := time.Now()
	for rep := 0; rep < 3 || time.Since(begin) < cfg.seconds; rep++ {
		var tr *tracer
		if cfg.trace && rep%2 == 1 {
			tr = newTracer()
		}
		cfg.host.tick()
		r, err := runFed(w, trace, timedWorkers, tr)
		if err != nil {
			return nil, err
		}
		res.attempted += r.routed
		res.failed += r.failed + r.lost
		res.problems = append(res.problems, r.problems...)
		res.problems = append(res.problems, w.guard(r)...)
		if r.digest != digest {
			scheduleDiffers(fmt.Sprintf("repetition %d (workers %d): digest %s, mean wait %v s; warm-up (workers %d) had %s, %v s",
				rep, timedWorkers, r.digest, r.waitMean, warmWorkers, digest, warm.waitMean))
		}
		res.note("run %d: wall %.1f ms, setup %.1f ms, %d events, %d leases, %d preempted, mean wait %.3f s, heap %.1f MB",
			rep, ms(r.wall), ms(r.setup), r.events, r.leases, r.preempted, r.waitMean, r.heapMB)
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, ms(r.wall))
		tput = append(tput, float64(r.completed)/r.wall.Seconds())
		heaps = append(heaps, r.heapMB)
		if tr != nil {
			traced = append(traced, r)
			tracedWall = append(tracedWall, ms(r.wall))
			tele.add(r.tele)
			d, n := tr.total("fed.Step")
			stepTime += d
			steps += n
			if res.tracer == nil {
				res.tracer = tr // keep the first traced repetition's spans
			}
		} else {
			plainWall = append(plainWall, ms(r.wall))
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["lat_p50_ms"] = median(walls)
	res.e2e["jobs_per_s"] = median(tput)
	res.e2e["max_rate_ops_s"] = median(tput)
	res.e2e["heap_peak_mb"] = median(heaps)
	res.note("%d timed runs of %d jobs (workers %d), wall p50 %.1f ms", len(walls), w.jobs, timedWorkers, median(walls))

	if cfg.trace {
		n := float64(len(traced))
		l := res.layer
		var wall time.Duration
		var newDur time.Duration
		var js jobStats
		for _, r := range traced {
			wall += r.wall
			newDur += r.newDur
			js.queuePeak = max(js.queuePeak, r.jobs.queuePeak)
			js.running = append(js.running, r.jobs.running...)
			js.waitSum += r.jobs.waitSum
			js.waitN += r.jobs.waitN
			l["fed.events"] += float64(r.events)
			l["fed.audits"] += float64(r.audits)
			l["fed.leases"] += float64(r.leases)
		}
		l["client.ops"] = float64(w.jobs) * n
		jobLayers(l, tele, wall, js)
		scaleCounts(l, n)
		l["fed.leases_per_job"] = l["fed.leases"] / float64(w.jobs)
		if steps > 0 {
			l["fed.step_us"] = float64(stepTime.Microseconds()) / float64(steps)
		}
		workers := float64(max(timedWorkers, 1))
		busy := tele.histSum["clip_jobsched_event_seconds"]
		barrier := tele.histSum["clip_fed_barrier_seconds"]
		whole := wall.Seconds() * workers
		l["fed.self_frac"] = (whole - busy - barrier) / whole
		l["fed.windows"] = float64(tele.counters["clip_fed_windows_total"]) / n
		l["fed.window_event_frac"] = float64(tele.counters["clip_fed_window_events_total"]) / n / l["fed.events"]
		l["fed.barrier_s"] = barrier / n
		l["fed.new_s"] = newDur.Seconds() / n
		l["split.whole_ms"] = whole * 1e3 / n
		l["split.jobsched_ms"] = busy * 1e3 / n
		l["split.fed_barrier_ms"] = barrier * 1e3 / n
		l["split.remainder_ms"] = (whole - busy - barrier) * 1e3 / n
		l["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	}
	return res, nil
}
