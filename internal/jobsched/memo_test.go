package jobsched

// Scan-memo guards. The dispatch memo only skips tryStart calls whose
// refusal is already known, so a session with the memo must be
// indistinguishable from one that rescans the whole queue on every
// dispatch; and an arrival into a blocked queue must cost one
// placement attempt, not one per queued job.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/workload"
)

// memoOp is one random driver operation, applied identically to the
// memoized and the full-rescan session; it renders its own result.
type memoOp func(o *Online) string

// randomMemoOp draws one operation from r. ids lists every submitted
// job id; cancels pick among the latest ones, which are mostly queued.
// mixed draws priorities 5 and -2 besides 0; without it every job sits
// on one priority level, so the scan is plain arrival order and
// preemption never runs.
func randomMemoOp(r *rng.Source, apps []*workload.Spec, ids *[]string, n *int, mixed bool) memoOp {
	pri := func() int {
		switch x := r.Float64(); {
		case !mixed:
		case x < 0.15:
			return 5
		case x < 0.25:
			return -2
		}
		return 0
	}
	next := func() (string, *workload.Spec, int) {
		*n++
		id := fmt.Sprintf("j%04d", *n)
		*ids = append(*ids, id)
		return id, apps[r.Intn(len(apps))], pri()
	}
	switch x := r.Float64(); {
	case x < 0.30:
		id, app, p := next()
		return func(o *Online) string {
			js, err := o.SubmitPri(id, app, p)
			return fmt.Sprintf("submit %+v %v", js, err)
		}
	case x < 0.50:
		subs := make([]Submission, 1+r.Intn(24))
		for i := range subs {
			subs[i].ID, subs[i].App, subs[i].Priority = next()
		}
		return func(o *Online) string {
			return fmt.Sprintf("batch %+v", o.SubmitBatch(subs))
		}
	case x < 0.65:
		if len(*ids) == 0 {
			return func(*Online) string { return "noop" }
		}
		recent := *ids
		if len(recent) > 32 {
			recent = recent[len(recent)-32:]
		}
		id := recent[r.Intn(len(recent))]
		return func(o *Online) string {
			w, err := o.Cancel(id)
			return fmt.Sprintf("cancel %s %v %v", id, w, err)
		}
	case x < 0.68:
		return func(o *Online) string {
			return fmt.Sprintf("evacuate %+v", o.EvacuateQueued())
		}
	case x < 0.76:
		w := r.Range(400, 2400)
		return func(o *Online) string { return fmt.Sprintf("bound %v", o.SetBound(w)) }
	case x < 0.80:
		return func(o *Online) string { return fmt.Sprintf("reconcile %v", o.Reconcile()) }
	default:
		dt := r.Range(0, 90)
		return func(o *Online) string { return fmt.Sprintf("advance %v", o.Advance(o.Now()+dt)) }
	}
}

// sameState reports whether two sessions show the same job statuses
// and cluster snapshot. Cluster() sums the running watts in map order,
// so the allocations are compared to 1e-6.
func sameState(a, b *Online) bool {
	ca, cb := a.Cluster(), b.Cluster()
	if math.Abs(ca.AllocW-cb.AllocW) > 1e-6 {
		return false
	}
	ca.AllocW, cb.AllocW = 0, 0
	return reflect.DeepEqual(ca, cb) && reflect.DeepEqual(a.Jobs(), b.Jobs())
}

// TestScanMemoMatchesFullRescan drives seeded random op sequences —
// mixed-priority submits and batches, cancels, evacuations, bound
// swings, reconciles and time advances, with faults off and on —
// through two sessions under every policy: one with the scan memo,
// one forced to rescan the whole queue. Every op's result, every
// status after it, and the final Stats must be identical.
func TestScanMemoMatchesFullRescan(t *testing.T) {
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(),
		workload.AMG(), pinnedApp(0, 3), pinnedApp(4, 7), pinnedApp(6, 7), pinnedApp(1, 1)}
	scenario := &faults.Scenario{Seed: 21, CrashMTBF: 400, MTTR: 40,
		ExcursionMTBF: 300, StragglerMTBF: 250}
	seed := uint64(0)
	for _, policy := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		memoTries, fullTries := 0, 0
		for _, withFaults := range []bool{false, true} {
			for _, mixed := range []bool{false, true} {
				seed++
				name := fmt.Sprintf("%v/faults=%v/mixed=%v", policy, withFaults, mixed)
				cfg := Config{Bound: 1200, Policy: policy, Reallocate: true, Preempt: true}
				if withFaults {
					cfg.Faults = scenario
				}
				memo, full := online(t, cfg), online(t, cfg)
				full.st.fullScan = true
				r := rng.New(seed)
				var ids []string
				n := 0
				for step := 0; step < 200; step++ {
					op := randomMemoOp(r, apps, &ids, &n, mixed)
					got, want := op(memo), op(full)
					if got != want {
						t.Fatalf("%s step %d: op result diverged:\n memo %s\n full %s", name, step, got, want)
					}
					if !sameState(memo, full) {
						t.Fatalf("%s step %d: state diverged:\n memo %+v\n full %+v", name, step, memo.Jobs(), full.Jobs())
					}
				}
				if em, ef := memo.Drain(), full.Drain(); fmt.Sprint(em) != fmt.Sprint(ef) {
					t.Fatalf("%s: drain: memo %v, full %v", name, em, ef)
				}
				// The bound audit also sums in map order.
				ms, fs := *memo.st.stats, *full.st.stats
				if math.Abs(ms.PeakAllocW-fs.PeakAllocW) > 1e-6 {
					t.Fatalf("%s: peak allocation %v vs %v", name, ms.PeakAllocW, fs.PeakAllocW)
				}
				ms.PeakAllocW, fs.PeakAllocW = 0, 0
				if !reflect.DeepEqual(ms, fs) {
					t.Fatalf("%s: final Stats diverged", name)
				}
				memoTries += memo.st.tryStarts
				fullTries += full.st.tryStarts
			}
		}
		if memoTries >= fullTries {
			t.Errorf("%v: the memo never hit: %d tryStart calls, %d with full rescans", policy, memoTries, fullTries)
		}
	}
}

// TestBlockedArrivalsTryOnlyThemselves: 4096 arrivals into a blocked
// queue cost at most one placement attempt each, both when no node is
// free and when nodes are free but the watts are not.
func TestBlockedArrivalsTryOnlyThemselves(t *testing.T) {
	const arrivals = 4096
	cases := []struct {
		name  string
		bound float64
		app   *workload.Spec
		nodes func(free int) bool
	}{
		{"no free node", 1200, workload.CoMD(), func(free int) bool { return free == 0 }},
		{"free nodes, no watts", 320, pinnedApp(0, 3), func(free int) bool { return free > 0 }},
	}
	for _, c := range cases {
		for _, policy := range []Policy{FCFS, Backfill, AggressiveBackfill} {
			o := online(t, Config{Bound: c.bound, Policy: policy})
			if js, err := o.Submit("first", c.app); err != nil || js.State != JobRunning {
				t.Fatalf("%s/%v: first job %v %v", c.name, policy, js.State, err)
			}
			if !c.nodes(o.FreeNodes()) {
				t.Fatalf("%s/%v: %d free nodes after the first start", c.name, policy, o.FreeNodes())
			}
			before := o.st.tryStarts
			subs := make([]Submission, arrivals)
			for i := range subs {
				subs[i] = Submission{ID: fmt.Sprintf("q%05d", i), App: c.app}
			}
			for i, res := range o.SubmitBatch(subs) {
				if res.Err != nil || res.Status.State != JobQueued || res.Status.QueuePos != i {
					t.Fatalf("%s/%v: arrival %d: %+v %v", c.name, policy, i, res.Status, res.Err)
				}
			}
			if tries := o.st.tryStarts - before; tries > arrivals+2 {
				t.Errorf("%s/%v: %d arrivals made %d tryStart calls, want <= %d",
					c.name, policy, arrivals, tries, arrivals+2)
			}
		}
	}
}

// TestJobsQueuePosMatchesStatus: the one-pass ranks of Jobs() equal
// the per-job Status positions on a mixed-priority queue riddled with
// cancel tombstones, and stay dense.
func TestJobsQueuePosMatchesStatus(t *testing.T) {
	o := online(t, Config{Bound: 320, Policy: AggressiveBackfill})
	r := rng.New(9)
	app := pinnedApp(0, 3)
	var ids []string
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("m%03d", i)
		pri := []int{0, 0, 3, -1, 7}[r.Intn(5)]
		if _, err := o.SubmitPri(id, app, pri); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%3 == 2 {
			if _, err := o.Cancel(ids[r.Intn(len(ids))]); err != nil && !strings.Contains(err.Error(), "terminal") {
				t.Fatal(err)
			}
		}
	}
	queued := 0
	seen := map[int]string{}
	for _, js := range o.Jobs() {
		st, err := o.Status(js.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.QueuePos != st.QueuePos || js.State != st.State {
			t.Fatalf("%s: Jobs() %v pos %d, Status %v pos %d", js.ID, js.State, js.QueuePos, st.State, st.QueuePos)
		}
		if js.State != JobQueued {
			continue
		}
		queued++
		if prev, dup := seen[js.QueuePos]; dup {
			t.Fatalf("queue_pos %d claimed by %s and %s", js.QueuePos, prev, js.ID)
		}
		seen[js.QueuePos] = js.ID
	}
	if queued != o.QueueLen() || queued < 50 {
		t.Fatalf("%d queued jobs listed, queue length %d", queued, o.QueueLen())
	}
	for pos := 0; pos < queued; pos++ {
		if _, ok := seen[pos]; !ok {
			t.Fatalf("queue positions not dense: %d missing of %d", pos, queued)
		}
	}
}

// TestCancelledHeadUnblocksArrival: cancelling a refused queue head
// must drop the memo, so the next arrival is judged as the new head —
// under FCFS it starts although the memo saw an older head blocking.
func TestCancelledHeadUnblocksArrival(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		o := online(t, Config{Bound: 1200, Policy: FCFS})
		pri := 0
		if mixed {
			pri = 4
		}
		if js, err := o.SubmitPri("blocker", pinnedApp(0, 3), pri); err != nil || js.State != JobRunning {
			t.Fatalf("blocker: %v %v", js.State, err)
		}
		if js, err := o.SubmitPri("head", pinnedApp(0, 3), pri); err != nil || js.State != JobQueued {
			t.Fatalf("head: %v %v", js.State, err)
		}
		if _, err := o.Cancel("head"); err != nil {
			t.Fatal(err)
		}
		js, err := o.Submit("small", pinnedApp(4, 7))
		if err != nil || js.State != JobRunning {
			t.Fatalf("mixed=%v: arrival behind a cancelled head is %v (%v), want running", mixed, js.State, err)
		}
	}
}
