package fed

import (
	"fmt"
	"testing"

	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/workload"
)

// lendingSchedule runs cmd/clipfed's lending configuration — shards of
// 4 nodes at 400 W, least-loaded routing, the lending broker on, and a
// tenth of the jobs at priority 10 with preemption — over its seeded
// trace of arrivals, and returns every job's (id, shard, start,
// finish).
func lendingSchedule(t *testing.T, shards, jobs int) []string {
	t.Helper()
	cfg := Config{Routing: LeastLoaded, Lending: Lending{Enabled: true, TTL: 240, QuantumW: 60}}
	for i := 0; i < shards; i++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{
			Nodes: 4, BudgetW: 400, Sigma: 0.02, Seed: int64(1000 + i),
			Policy: jobsched.AggressiveBackfill, Reallocate: true, Preempt: true,
		})
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Suite()
	r := rng.New(1)
	pr := rng.New(1 + 0x9e3779b97f4a7c15)
	now := 0.0
	for i := 0; i < jobs; i++ {
		now += r.Range(0, 2*2.5)
		id := fmt.Sprintf("job-%05d", i)
		pri := 0
		if pr.Float64() < 0.1 {
			pri = 10
		}
		if err := f.ScheduleArrivalPri(now, id, mix[r.Intn(len(mix))], id, pri); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, js := range f.Jobs() {
		sh, _ := f.JobShard(js.ID)
		out = append(out, fmt.Sprintf("%s %d %v %v", js.ID, sh, js.Start, js.Finish))
	}
	return out
}

// TestLendingScheduleRepeatable: a lending federation whose lease
// recalls shed power from running jobs schedules identically run after
// run. Shedding must sum the running watts in a fixed order: a float
// sum in map order rounds differently from run to run and moves finish
// times.
// The full 16384-job trace exposes the defect in most pairs of runs;
// -short shrinks it to a quarter.
func TestLendingScheduleRepeatable(t *testing.T) {
	jobs := 16384
	if testing.Short() {
		jobs = 4096
	}
	first := lendingSchedule(t, 64, jobs)
	second := lendingSchedule(t, 64, jobs)
	if len(first) != len(second) {
		t.Fatalf("runs listed %d and %d jobs", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("schedules diverge at job %d:\n first  %s\n second %s", i, first[i], second[i])
		}
	}
}
