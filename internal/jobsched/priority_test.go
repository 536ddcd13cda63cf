package jobsched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

// pinnedApp clones CoMD restricted to the node range [lo, hi]; distinct
// names keep the dispatch cache honest about spec identity.
func pinnedApp(lo, hi int) *workload.Spec {
	a := *workload.CoMD()
	a.Name = fmt.Sprintf("comd-pin%d-%d", lo, hi)
	var ids []int
	for i := lo; i <= hi; i++ {
		ids = append(ids, i)
	}
	a.Constraint = workload.NodeConstraint{AllowedNodes: ids}
	return &a
}

func TestPriorityDispatchOrder(t *testing.T) {
	o := online(t, Config{Bound: 1200})
	if _, err := o.Submit("filler", workload.CoMD()); err != nil {
		t.Fatal(err)
	}
	// Three blocked arrivals with distinct priorities, submitted in
	// inverse priority order.
	for _, j := range []struct {
		id  string
		pri int
	}{{"c0", 0}, {"b1", 1}, {"d2", 2}} {
		if js, err := o.SubmitPri(j.id, workload.CoMD(), j.pri); err != nil || js.State != JobQueued {
			t.Fatalf("%s: state %v err %v", j.id, js.State, err)
		}
	}
	// Queue positions follow priority, not arrival: d2, b1, c0.
	for i, id := range []string{"d2", "b1", "c0"} {
		js, err := o.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.QueuePos != i {
			t.Errorf("%s queue_pos = %d, want %d", id, js.QueuePos, i)
		}
	}
	// Freeing the cluster dispatches the highest priority first.
	if _, err := o.Cancel("filler"); err != nil {
		t.Fatal(err)
	}
	js, err := o.Status("d2")
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobRunning {
		t.Fatalf("d2 state = %v after cancel, want running", js.State)
	}
	for _, id := range []string{"b1", "c0"} {
		js, _ := o.Status(id)
		if js.State != JobQueued {
			t.Errorf("%s state = %v, want queued behind d2", id, js.State)
		}
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptionMinimalVictimSet: four low-priority jobs pinned to
// disjoint node pairs, then a high-priority job needing exactly one
// pair. Only the job holding that pair may be evicted.
func TestPreemptionMinimalVictimSet(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill, Preempt: true})
	for i := 0; i < 4; i++ {
		js, err := o.SubmitPri(fmt.Sprintf("lo%d", i), pinnedApp(2*i, 2*i+1), 0)
		if err != nil || js.State != JobRunning {
			t.Fatalf("lo%d: state %v err %v", i, js.State, err)
		}
	}
	hi, err := o.SubmitPri("hi", pinnedApp(0, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if hi.State != JobRunning {
		t.Fatalf("hi state = %v, want running via preemption", hi.State)
	}
	if len(hi.Nodes) != 2 || hi.Nodes[0] != 0 || hi.Nodes[1] != 1 {
		t.Fatalf("hi nodes = %v, want [0 1]", hi.Nodes)
	}
	for i := 0; i < 4; i++ {
		js, _ := o.Status(fmt.Sprintf("lo%d", i))
		if i == 0 {
			if js.State != JobQueued || js.Preemptions != 1 {
				t.Errorf("lo0 state=%v preemptions=%d, want queued/1", js.State, js.Preemptions)
			}
		} else if js.State != JobRunning || js.Preemptions != 0 {
			t.Errorf("lo%d state=%v preemptions=%d, want running/0 (not a victim)", i, js.State, js.Preemptions)
		}
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNoPreemptionOfEqualOrHigherPriority: a job may only evict
// strictly lower priorities; when the plan cannot become feasible that
// way, nothing is evicted at all.
func TestNoPreemptionOfEqualOrHigherPriority(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill, Preempt: true})
	if js, err := o.SubmitPri("low", pinnedApp(0, 3), 0); err != nil || js.State != JobRunning {
		t.Fatalf("low: %v %v", js.State, err)
	}
	if js, err := o.SubmitPri("peer", pinnedApp(4, 7), 5); err != nil || js.State != JobRunning {
		t.Fatalf("peer: %v %v", js.State, err)
	}
	// hi needs peer's nodes, but peer (equal priority) can never be a
	// victim, so the plan is infeasible — and the planner must not
	// evict "low" pointlessly.
	js, err := o.SubmitPri("hi", pinnedApp(4, 7), 5)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobQueued {
		t.Fatalf("hi state = %v, want queued (equal-priority peer is not evictable)", js.State)
	}
	for _, id := range []string{"low", "peer"} {
		js, _ := o.Status(id)
		if js.State != JobRunning || js.Preemptions != 0 {
			t.Errorf("%s state=%v preemptions=%d, want running/0", id, js.State, js.Preemptions)
		}
	}
}

// TestUniformPriorityMatchesAllZero: priority only orders jobs against
// each other, so a run in which every job has the same non-zero
// priority schedules exactly like the all-zero run, and preemption
// never fires even when enabled.
func TestUniformPriorityMatchesAllZero(t *testing.T) {
	apps := []*workload.Spec{workload.CoMD(), workload.SPMZ(), workload.LUMZ(), workload.AMG()}
	r := rng.New(3)
	zero := make([]Job, 120)
	at := 0.0
	for i := range zero {
		at += r.Range(0, 60)
		zero[i] = Job{ID: fmt.Sprintf("j%03d", i), App: apps[i%len(apps)], Arrival: at}
	}
	uniform := append([]Job(nil), zero...)
	for i := range uniform {
		uniform[i].Priority = 7
	}
	for _, pol := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		cfg := Config{Bound: 1400, Policy: pol, Reallocate: true, Preempt: true}
		base, err := sched(t, cfg).Run(zero)
		if err != nil {
			t.Fatal(err)
		}
		if base.AvgWait == 0 {
			t.Fatalf("%v: trace never queues a job", pol)
		}
		got, err := sched(t, cfg).Run(uniform)
		if err != nil {
			t.Fatal(err)
		}
		if got.Preemptions != 0 {
			t.Errorf("%v: %d preemptions among equal-priority jobs", pol, got.Preemptions)
		}
		for i := range got.Jobs {
			if got.Jobs[i].Priority != 7 {
				t.Fatalf("%v: %s has priority %d, want 7", pol, got.Jobs[i].ID, got.Jobs[i].Priority)
			}
			got.Jobs[i].Priority = 0
		}
		if got.Makespan != base.Makespan || got.AvgWait != base.AvgWait || !reflect.DeepEqual(got.Jobs, base.Jobs) {
			t.Errorf("%v: priority 7 run differs from the all-zero run (makespan %.2f vs %.2f, wait %.2f vs %.2f)",
				pol, got.Makespan, base.Makespan, got.AvgWait, base.AvgWait)
		}
	}
}

// TestEmptyQueueDispatchWithPreempt: with preemption on, a dispatch over
// an empty queue must be a no-op, both before anything was ever
// enqueued (no priority levels) and after every queued job was
// cancelled (levels exist, all empty). The federation reconciles
// rejoining shards, which may be in either state.
func TestEmptyQueueDispatchWithPreempt(t *testing.T) {
	settle := func(o *Online, when string) {
		t.Helper()
		if err := o.Reconcile(); err != nil {
			t.Fatalf("%s: reconcile: %v", when, err)
		}
		for _, w := range []float64{900, 1200} {
			if err := o.SetBound(w); err != nil {
				t.Fatalf("%s: set bound %.0f: %v", when, w, err)
			}
		}
		if err := o.Err(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if o.QueueLen() != 0 {
			t.Fatalf("%s: queue length %d, want 0", when, o.QueueLen())
		}
	}
	cfg := Config{Bound: 1200, Policy: AggressiveBackfill, Reallocate: true, Preempt: true}
	settle(online(t, cfg), "fresh session")

	o := online(t, cfg)
	if js, err := o.SubmitPri("run", workload.CoMD(), 9); err != nil || js.State != JobRunning {
		t.Fatalf("run: %v %v", js.State, err)
	}
	for _, q := range []struct {
		id  string
		pri int
	}{{"a", 5}, {"b", -1}} {
		if js, err := o.SubmitPri(q.id, workload.CoMD(), q.pri); err != nil || js.State != JobQueued {
			t.Fatalf("%s: %v %v, want queued", q.id, js.State, err)
		}
		if _, err := o.Cancel(q.id); err != nil {
			t.Fatal(err)
		}
	}
	settle(o, "queue cancelled")
	if _, err := o.Cancel("run"); err != nil {
		t.Fatal(err)
	}
	settle(o, "everything cancelled")
}

// TestPreemptionDisabledByDefault: without Config.Preempt a
// higher-priority job waits like everyone else.
func TestPreemptionDisabledByDefault(t *testing.T) {
	o := online(t, Config{Bound: 1200})
	if _, err := o.Submit("low", workload.CoMD()); err != nil {
		t.Fatal(err)
	}
	js, err := o.SubmitPri("hi", workload.CoMD(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobQueued {
		t.Fatalf("hi state = %v with preemption off, want queued", js.State)
	}
	low, _ := o.Status("low")
	if low.State != JobRunning || low.Preemptions != 0 {
		t.Errorf("low was disturbed: state=%v preemptions=%d", low.State, low.Preemptions)
	}
}

func TestConstraintPlacementAndInfeasibility(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill})
	js, err := o.Submit("pinned", pinnedApp(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range js.Nodes {
		if n < 2 || n > 5 {
			t.Errorf("node %d outside AllowedNodes [2..5]", n)
		}
	}
	// A constraint no cluster node satisfies fails fast, not forever
	// queued.
	bad := *workload.CoMD()
	bad.Name = "comd-bad"
	bad.Constraint = workload.NodeConstraint{AllowedNodes: []int{99}}
	js, err = o.Submit("nofit", &bad)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobFailed || !strings.Contains(js.Reason, "constraint") {
		t.Fatalf("nofit state=%v reason=%q, want failed with constraint reason", js.State, js.Reason)
	}
}

func TestPreferNodesRanking(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill})
	a := *workload.CoMD()
	a.Name = "comd-pref"
	a.Constraint = workload.NodeConstraint{
		AllowedNodes: []int{0, 1, 6, 7},
		PreferNodes:  []int{7, 6},
	}
	js, err := o.Submit("pref", &a)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobRunning {
		t.Fatalf("pref state = %v, want running", js.State)
	}
	if len(js.Nodes) < 2 {
		t.Fatalf("pref nodes = %v, want at least the preferred pair", js.Nodes)
	}
	got := map[int]bool{}
	for _, n := range js.Nodes {
		got[n] = true
	}
	if !got[6] || !got[7] {
		t.Errorf("preferred nodes 6,7 not used: placed on %v", js.Nodes)
	}
}

// TestQueuePosDenseAcrossChurn: queue positions stay dense, 0-based and
// gap-free through cancel tombstones, evacuation and preemption
// re-enqueues — the accounting the status endpoint surfaces.
func TestQueuePosDenseAcrossChurn(t *testing.T) {
	o := online(t, Config{Bound: 1200, Policy: AggressiveBackfill, Preempt: true})
	if _, err := o.Submit("filler", workload.CoMD()); err != nil {
		t.Fatal(err)
	}
	queued := []string{"q0", "q1", "q2", "q3", "q4"}
	for _, id := range queued {
		if _, err := o.Submit(id, workload.CoMD()); err != nil {
			t.Fatal(err)
		}
	}
	checkDense := func(ids []string) {
		t.Helper()
		seen := make([]string, len(ids))
		for _, id := range ids {
			js, err := o.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if js.State != JobQueued {
				t.Fatalf("%s state = %v, want queued", id, js.State)
			}
			if js.QueuePos < 0 || js.QueuePos >= len(ids) {
				t.Fatalf("%s queue_pos %d out of [0,%d)", id, js.QueuePos, len(ids))
			}
			if seen[js.QueuePos] != "" {
				t.Fatalf("queue_pos %d claimed by both %s and %s", js.QueuePos, seen[js.QueuePos], id)
			}
			seen[js.QueuePos] = id
		}
	}
	checkDense(queued)
	// Cancel the middle entry: tombstone must not leave a gap.
	if _, err := o.Cancel("q2"); err != nil {
		t.Fatal(err)
	}
	checkDense([]string{"q0", "q1", "q3", "q4"})
	// A preemption re-enqueue lands at the tail of its priority band.
	if js, err := o.SubmitPri("hi", workload.CoMD(), 3); err != nil || js.State != JobRunning {
		t.Fatalf("hi: %v %v", js.State, err)
	}
	fill, _ := o.Status("filler")
	if fill.State != JobQueued || fill.Preemptions != 1 {
		t.Fatalf("filler state=%v preemptions=%d, want queued/1", fill.State, fill.Preemptions)
	}
	checkDense([]string{"q0", "q1", "q3", "q4", "filler"})
	// Evacuation empties the queue in one sweep.
	evacuated := o.EvacuateQueued()
	if len(evacuated) != 5 {
		t.Fatalf("evacuated %d jobs, want 5", len(evacuated))
	}
	if o.QueueLen() != 0 {
		t.Fatalf("queue len %d after evacuation, want 0", o.QueueLen())
	}
}

// TestPriorityPropertyRandomTrace drives 1000 seeded random events
// (mixed-priority submits, cancels, bound swings, time advances)
// through the online driver and checks the safety properties after
// every event: the scheduler's internal inversion/Σ-bound audits stay
// green, preempted jobs are re-enqueued exactly once per eviction, and
// no job is ever lost.
func TestPriorityPropertyRandomTrace(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
		o := online(t, Config{Bound: 3000, Policy: AggressiveBackfill, Reallocate: true, Preempt: true})
		r := rng.New(seed)
		apps := []*workload.Spec{workload.CoMD(), pinnedApp(0, 3), pinnedApp(4, 7)}
		var ids []string
		evictions := 0
		lastPre := map[string]int{}
		next := 0
		for ev := 0; ev < 1000; ev++ {
			switch op := r.Intn(10); {
			case op < 5: // submit, mixed priorities
				id := fmt.Sprintf("s%d-j%04d", seed, next)
				next++
				pri := r.Intn(4) - 1
				if _, err := o.SubmitPri(id, apps[r.Intn(len(apps))], pri); err != nil {
					t.Fatalf("seed %d ev %d submit: %v", seed, ev, err)
				}
				ids = append(ids, id)
			case op < 6: // cancel a random known job
				if len(ids) > 0 {
					id := ids[r.Intn(len(ids))]
					if js, err := o.Status(id); err == nil && js.State != JobCancelled {
						_, _ = o.Cancel(id)
					}
				}
			case op < 7: // bound swing
				if err := o.SetBound(1500 + 2500*r.Float64()); err != nil {
					t.Fatalf("seed %d ev %d setbound: %v", seed, ev, err)
				}
			default: // advance virtual time
				if err := o.Advance(o.Now() + 20*r.Float64()); err != nil {
					t.Fatalf("seed %d ev %d advance: %v", seed, ev, err)
				}
			}
			if err := o.Err(); err != nil {
				t.Fatalf("seed %d: invariant audit failed at event %d: %v", seed, ev, err)
			}
			// Preemption counters only ever step up, one re-enqueue per
			// eviction.
			for _, id := range ids {
				js, err := o.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if js.Preemptions < lastPre[id] {
					t.Fatalf("seed %d: %s preemptions went backwards %d→%d", seed, id, lastPre[id], js.Preemptions)
				}
				if js.Preemptions > lastPre[id] {
					if js.State != JobQueued && js.State != JobRunning && js.State != JobCompleted {
						t.Fatalf("seed %d: preempted %s in state %v, never re-enqueued", seed, id, js.State)
					}
					evictions += js.Preemptions - lastPre[id]
					lastPre[id] = js.Preemptions
				}
			}
		}
		if err := o.Drain(); err != nil {
			t.Fatalf("seed %d drain: %v", seed, err)
		}
		// No lost jobs: every submission reached a terminal state.
		terminal := 0
		preSum := 0
		for _, id := range ids {
			js, err := o.Status(id)
			if err != nil {
				t.Fatalf("seed %d: job %s lost: %v", seed, id, err)
			}
			switch js.State {
			case JobCompleted, JobCancelled, JobFailed:
				terminal++
			default:
				t.Fatalf("seed %d: %s non-terminal after drain: %v", seed, id, js.State)
			}
			preSum += js.Preemptions
		}
		if terminal != len(ids) {
			t.Fatalf("seed %d: %d/%d jobs terminal", seed, terminal, len(ids))
		}
		if preSum != evictions {
			t.Fatalf("seed %d: eviction ledger mismatch: observed %d step-ups, final sum %d", seed, evictions, preSum)
		}
		if evictions == 0 {
			t.Fatalf("seed %d produced no evictions; property run degenerate", seed)
		}
		cs := o.Cluster()
		if cs.AllocW > cs.BoundW+1e-6 {
			t.Fatalf("seed %d: allocation %f exceeds bound %f after drain", seed, cs.AllocW, cs.BoundW)
		}
	}
}
