package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.99, 3.97},
	}
	for _, c := range cases {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
}

func TestQuantileCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[98], xs[99] = math.Inf(1), math.Inf(1)
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures in 100 = %v, want +Inf", got)
	}
}

func TestWindowQuantileIgnoresAStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if w == 2 && i >= 50 {
				v = 40 // a host stall spoils half of one window
			}
			xs = append(xs, v)
		}
	}
	if got := windowQuantile(xs, 100, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := quantile(xs, 0.99); got != 40 {
		t.Errorf("plain p99 = %v, want 40", got)
	}
	if got := windowQuantile(xs[:50], 100, 0.5); got != 1 {
		t.Errorf("short sample should fall back to one window, got %v", got)
	}
}

func TestScheduleDigest(t *testing.T) {
	a := []schedRow{{"job-1", 0, 1.5, 10}, {"job-0", 3, 0, 2.25}}
	b := []schedRow{a[1], a[0]}
	if scheduleDigest(a) != scheduleDigest(b) {
		t.Error("digest depends on row order")
	}
	c := []schedRow{a[0], {"job-0", 3, 0, math.Nextafter(2.25, 3)}}
	if scheduleDigest(a) == scheduleDigest(c) {
		t.Error("digest misses a one-ulp change of a finish time")
	}
	d := []schedRow{a[0], {"job-0", 2, 0, 2.25}}
	if scheduleDigest(a) == scheduleDigest(d) {
		t.Error("digest misses a change of shard")
	}
}

func TestQueuePeak(t *testing.T) {
	spans := []queueSpan{
		{0, 10}, {1, 5}, {2, 3}, // three waiting during [2,3)
		{5, 6},   // arrives as job 2 leaves: departure first
		{7, 7},   // started on arrival: never queued
		{20, 21}, // later, alone
	}
	if got := queuePeak(spans); got != 3 {
		t.Errorf("queuePeak = %d, want 3", got)
	}
}

func TestProbeDeltaCountsPackageHandles(t *testing.T) {
	// A handle cached before the first probe, as instrumented packages
	// cache theirs at init.
	c := telemetry.Default.Counter("perfbench_test_events_total", "test")
	h := telemetry.Default.Histogram("perfbench_test_seconds", "test", nil)
	c.Add(5)
	before := takeProbe()
	c.Add(3)
	h.Observe(0.25)
	h.Observe(0.5)
	d := takeProbe().since(before)
	if got := d.counters["perfbench_test_events_total"]; got != 3 {
		t.Errorf("counter delta = %d, want 3", got)
	}
	if d.histCount["perfbench_test_seconds"] != 2 || d.histSum["perfbench_test_seconds"] != 0.75 {
		t.Errorf("histogram delta = %d / %v, want 2 / 0.75",
			d.histCount["perfbench_test_seconds"], d.histSum["perfbench_test_seconds"])
	}
	var sum delta
	sum.add(d)
	sum.add(d)
	if sum.counters["perfbench_test_events_total"] != 6 {
		t.Errorf("summed delta = %d, want 6", sum.counters["perfbench_test_events_total"])
	}
}

// TestResetDropsCachedHandles pins why the benchmark reads deltas
// instead of resetting the registry: after Reset, a handle cached
// earlier still counts but no longer shows in snapshots.
func TestResetDropsCachedHandles(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.Counter("cached_total", "")
	r.Reset()
	c.Inc()
	if _, ok := r.Snapshot().Counters["cached_total"]; ok {
		t.Fatal("Reset kept the cached handle; the delta rule can be relaxed")
	}
}

func TestMixScheduleIsSeededAndShaped(t *testing.T) {
	a := mixSchedule(1, 3, 4000, 2*time.Second)
	b := mixSchedule(1, 3, 4000, 2*time.Second)
	c := mixSchedule(2, 3, 4000, 2*time.Second)
	if len(a) != 8000 {
		t.Fatalf("%d ops, want 8000", len(a))
	}
	same, differ := true, false
	var count [numOpKinds]int
	for i := range a {
		if a[i].kind != b[i].kind || a[i].id != b[i].id || a[i].due != b[i].due {
			same = false
		}
		if a[i].kind != c[i].kind || a[i].id != c[i].id {
			differ = true
		}
		count[a[i].kind]++
		if tg := a[i].target; tg >= 0 && (tg > i-targetLag || a[tg].kind != opSubmit || a[tg].id != a[i].id) {
			same = false
		}
	}
	if !same {
		t.Error("same seed gave a different schedule, or a target is not an earlier submit")
	}
	if !differ {
		t.Error("different seeds gave the same schedule")
	}
	for k := range count {
		if share := float64(count[k]) / float64(len(a)); math.Abs(share-opShare[k]) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", opNames[k], share, opShare[k])
		}
	}
}

func TestFedTraceIsSeeded(t *testing.T) {
	w := fedLending
	w.jobs = 2000
	a, b := fedTrace(1, w), fedTrace(1, w)
	hi := 0
	for i := range a {
		if a[i].t != b[i].t || a[i].id != b[i].id || a[i].app.Name != b[i].app.Name || a[i].pri != b[i].pri {
			t.Fatalf("arrival %d differs between equal seeds", i)
		}
		if i > 0 && a[i].t < a[i-1].t {
			t.Fatalf("arrival %d goes back in time", i)
		}
		if a[i].pri == hipri {
			hi++
		}
	}
	if share := float64(hi) / float64(len(a)); math.Abs(share-w.hipriFrac) > 0.03 {
		t.Errorf("priority share %.3f, want %.2f", share, w.hipriFrac)
	}
}

// TestHostScaleSlowsTimesAndRates checks the host scaling on a host
// that ran the reference task at half the nominal speed: times halve,
// rates double, and set-up time and heap keep their raw values.
func TestHostScaleSlowsTimesAndRates(t *testing.T) {
	h := &hostClock{start: time.Now(), chunks: []float64{2 * refNominalMs, 1, 3 * refNominalMs}}
	h.spent = time.Hour // no further reference samples
	e2e := map[string]float64{"setup_s": 0.5, "lat_p50_ms": 10, "max_rate_ops_s": 100, "jobs_per_s": 60, "heap_peak_mb": 7}
	if f := h.scale(e2e, speedMetrics); f != 0.5 {
		t.Fatalf("factor %v, want 0.5", f)
	}
	want := map[string]float64{"setup_s": 0.5, "lat_p50_ms": 5, "max_rate_ops_s": 200, "jobs_per_s": 120, "heap_peak_mb": 7}
	for k, v := range want {
		if math.Abs(e2e[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, e2e[k], v)
		}
	}
	for name := range speedMetrics {
		found := false
		for _, m := range e2eMetrics {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("host-scaled metric %s is not an end-to-end metric", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadOrder[i])
		}
	}
}

func TestSeedsRecordDigests(t *testing.T) {
	s := loadSeeds()
	if s.DefaultSeed == s.HeldOutSeed {
		t.Fatal("the held-out seed must differ from the default seed")
	}
	for _, w := range []string{"fed_lending", "fed_partitioned"} {
		if _, ok := s.Nondeterministic[w]; ok {
			continue
		}
		for _, seed := range []uint64{s.DefaultSeed, s.HeldOutSeed} {
			if _, ok := recordedDigest(w, seed); !ok {
				t.Errorf("no %s digest recorded for seed %d", w, seed)
			}
		}
	}
}
