// Command perfbench is the repository's benchmark. It drives the real
// public entry points — an in-process clipd (server.New + Start) over
// loopback HTTP, and the federation (fed.New + Run / RunParallel) — on
// four named workloads, checks every run's outputs, and prints each
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// repeats the workload with spans around every call it makes into a
// layer, plus before/after deltas of the program's telemetry and of
// runtime/metrics, and reports the per-layer metrics. --workload all
// runs the four workloads in turn. See METRICS.md for the definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/jobsched"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"max_rate_ops_s", "ops/s"},
	{"jobs_per_s", "jobs/s"},
	{"heap_peak_mb", "MB"},
}

// layerMetrics are reported by every workload with --trace 1; a layer
// the workload does not touch reads 0.
var layerMetrics = []metricDef{
	{"client.late_p99_ms", "ms"},
	{"client.open_p50_ms", "ms"},
	{"client.lat_p99_ms", "ms"},
	{"client.ops", "count"},
	{"server.handler_ms.submit", "ms"},
	{"server.handler_ms.status", "ms"},
	{"server.handler_ms.cancel", "ms"},
	{"server.handler_ms.cluster", "ms"},
	{"server.handler_ms.batch", "ms"},
	{"server.transport_ms", "ms"},
	{"server.rejected", "count"},
	{"jobsched.event_us", "us"},
	{"jobsched.busy_frac", "ratio"},
	{"jobsched.events", "count"},
	{"jobsched.queue_peak", "count"},
	{"jobsched.running_mean", "jobs"},
	{"jobsched.wait_mean_s", "virtual_s"},
	{"jobsched.preemptions", "count"},
	{"jobsched.started", "count"},
	{"coordinator.places", "count"},
	{"coordinator.places_per_start", "ratio"},
	{"coordinator.rebalances", "count"},
	{"core.profile_runs", "count"},
	{"fed.events", "count"},
	{"fed.audits", "count"},
	{"fed.leases", "count"},
	{"fed.leases_per_job", "ratio"},
	{"fed.step_us", "us"},
	{"fed.self_frac", "ratio"},
	{"fed.windows", "count"},
	{"fed.window_event_frac", "ratio"},
	{"fed.barrier_s", "s"},
	{"fed.new_s", "s"},
	{"des.events", "count"},
	{"des.compactions", "count"},
	{"telemetry.events", "count"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"split.whole_ms", "ms"},
	{"split.client_late_ms", "ms"},
	{"split.server_handler_ms", "ms"},
	{"split.server_transport_ms", "ms"},
	{"split.jobsched_ms", "ms"},
	{"split.fed_barrier_ms", "ms"},
	{"split.remainder_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"host.ref_ms", "ms"},
}

// countMetrics are summed over traced repetitions and reported per
// repetition.
var countMetrics = []string{
	"client.ops", "server.rejected", "jobsched.events", "jobsched.preemptions", "jobsched.started",
	"coordinator.places", "coordinator.rebalances", "core.profile_runs",
	"fed.events", "fed.audits", "fed.leases", "des.events", "des.compactions",
	"telemetry.events", "go.alloc_mb", "go.allocs", "go.gc_cycles",
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	host    *hostClock // workloads tick it between repetitions
}

// result is one workload's outcome.
type result struct {
	attempted, failed int
	e2e, layer        map[string]float64
	problems          []string // failed output checks and shape guards
	notes             []string
	tracer            *tracer
	// hostScaled names the end-to-end metrics scaled to the reference
	// host (see host.go), with the power of the host factor applied.
	hostScaled map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, hostScaled: maps.Clone(speedMetrics)}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"serve_mixed":     serveMixed,
	"serve_burst":     serveBurst,
	"fed_lending":     func(c runConfig) (*result, error) { return runFedWorkload(c, "fed_lending", fedLending) },
	"fed_partitioned": func(c runConfig) (*result, error) { return runFedWorkload(c, "fed_partitioned", fedPartitioned) },
}

var workloadOrder = []string{"serve_mixed", "serve_burst", "fed_lending", "fed_partitioned"}

// scaleCounts turns the count metrics summed over n repetitions into
// per-repetition values.
func scaleCounts(l map[string]float64, n float64) {
	for _, name := range countMetrics {
		if v, ok := l[name]; ok {
			l[name] = v / n
		}
	}
}

// jobStats accumulates what the per-layer rows need from finished job
// lists, so a traced run need not keep the lists themselves.
type jobStats struct {
	queuePeak int
	running   []float64 // one per scheduler (daemon or shard)
	waitSum   float64
	waitN     int
}

// add folds in the final job list of one scheduler.
func (s *jobStats) add(jobs []jobsched.JobStatus) {
	s.queuePeak = max(s.queuePeak, queuePeak(jobQueueSpans(jobs)))
	s.running = append(s.running, runningMean(jobs))
	for _, js := range jobs {
		if js.State == jobsched.JobCompleted {
			s.waitSum += js.Start - js.Arrival
			s.waitN++
		}
	}
}

// jobLayers fills the scheduler, coordinator, core, des, telemetry and
// Go runtime rows from a phase's delta, the phase's wall time, and the
// statistics of the jobs it ran.
func jobLayers(l map[string]float64, d delta, wall time.Duration, js jobStats) {
	events := float64(d.histCount["clip_jobsched_event_seconds"])
	busy := d.histSum["clip_jobsched_event_seconds"]
	if events > 0 {
		l["jobsched.event_us"] = busy / events * 1e6
	}
	l["jobsched.busy_frac"] = busy / wall.Seconds()
	l["jobsched.events"] = events
	l["jobsched.queue_peak"] = float64(js.queuePeak)
	l["jobsched.running_mean"] = mean(js.running)
	if js.waitN > 0 {
		l["jobsched.wait_mean_s"] = js.waitSum / float64(js.waitN)
	}
	l["jobsched.preemptions"] = float64(d.counters["clip_jobs_preempted_total"])
	started := float64(d.counters["clip_jobsched_jobs_started_total"])
	l["jobsched.started"] = started
	places := float64(d.counters["clip_coordinator_schedules_total"])
	l["coordinator.places"] = places
	if started > 0 {
		l["coordinator.places_per_start"] = places / started
	}
	l["coordinator.rebalances"] = float64(d.counters["clip_coordinator_rebalances_total"])
	l["core.profile_runs"] = float64(d.counters["clip_profile_sample_runs_total"])
	l["des.events"] = float64(d.counters["clip_des_events_total"])
	l["des.compactions"] = float64(d.counters["clip_des_compactions_total"])
	l["telemetry.events"] = float64(d.eventsTotal)
	l["go.alloc_mb"] = d.rt[rtAllocBytes] / (1 << 20)
	l["go.allocs"] = d.rt[rtAllocObjs]
	l["go.gc_cycles"] = d.rt[rtGCCycles]
	if cpu := d.rt[rtTotalCPU]; cpu > 0 {
		l["go.gc_cpu_frac"] = d.rt[rtGCCPU] / cpu
	}
}

// fingerprint describes the host and the code a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Source: sourceDigest("."),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			fp.Commit = rev + dirty
		}
	}
	return fp
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// hidden directories), so a result names the code it measured even in
// a checkout without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries only weaken the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints a workload's notes and metrics and returns its metrics
// for the result line. A metric that is missing or not finite is
// recorded as a problem instead.
func report(name string, cfg runConfig, res *result) map[string]metricJSON {
	defs, vals := e2eMetrics, res.e2e
	if cfg.trace {
		defs, vals = layerMetrics, res.layer
		vals["trace.spans"] = float64(res.tracer.count())
	}
	fmt.Printf("== %s (seed %d, %s, trace %v)\n", name, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	out := map[string]metricJSON{}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok && !cfg.trace {
			res.problems = append(res.problems, fmt.Sprintf("metric %s not measured", m.name))
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", m.name, v))
			continue
		}
		fmt.Printf("  %-30s %16.6g %s\n", m.name, v, m.unit)
		out[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	fmt.Printf("  failed_frac %.6g (%d of %d operations)\n", float64(res.failed)/float64(max(res.attempted, 1)),
		res.failed, res.attempted)
	if cfg.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := res.tracer.write(path); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("spans: %v", err))
		} else {
			fmt.Printf("  spans written to %s\n", path)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload: serve_mixed, serve_burst, fed_lending, fed_partitioned or all")
	seed := flag.Uint64("seed", defaultSeed(), "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n",
			*name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	fp := hostFingerprint()
	host, _ := json.Marshal(fp)
	fmt.Printf("host %s\n", host)

	final := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, n := range names {
		cfg.host = newHostClock()
		res, err := workloads[n](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		res.layer["host.ref_ms"] = cfg.host.refMs()
		if !cfg.trace {
			raw := fmt.Sprintf("raw setup_s %.6g, lat_p50_ms %.6g, max_rate_ops_s %.6g, jobs_per_s %.6g",
				res.e2e["setup_s"], res.e2e["lat_p50_ms"], res.e2e["max_rate_ops_s"], res.e2e["jobs_per_s"])
			f := cfg.host.scale(res.e2e, res.hostScaled)
			res.note("host: reference task %.3f ms (%d samples, %.3f ms nominal), factor %.4f; %s",
				res.layer["host.ref_ms"], len(cfg.host.chunks), refNominalMs, f, raw)
		}
		ms := report(n, cfg, res)
		final.Attempted += res.attempted
		final.Failed += res.failed
		if len(res.problems) > 0 || res.failed > 0 {
			final.Correct = false
		}
		for k, v := range ms {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	if !final.Correct {
		final.Metrics = map[string]metricJSON{}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}
