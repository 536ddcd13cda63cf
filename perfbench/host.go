package main

import (
	"math"
	"sort"
	"time"
)

// The host's speed drifts. On a 2-vCPU virtual machine that shares
// its last-level cache and memory with other tenants, a fixed reference
// task took from 23 to 37 ms at the median of a 20 s run over ten
// consecutive runs, and the workloads' raw throughput moved with it,
// so ten runs spread wider than any useful regression bound. Longer
// runs help little: the drift was nearly as large between 35 s blocks as
// between 17 s blocks. Each run therefore also times the reference
// task, interleaved with the workload's repetitions, and reports its
// speed metrics scaled to the reference host: a time is multiplied by
// the ratio of the task's time there (refNominalMs) to its median time
// during the run, and a rate is divided by it. The task is the
// benchmark's own code and calls nothing in the program, so a change
// to the program moves a scaled metric as much as the raw one.
const (
	// refShare is the share of a run's wall time spent on the
	// reference task.
	refShare = 0.125
	// refNominalMs is the reference task's median time on the
	// reference host (a 2-vCPU Intel Xeon virtual machine, Go 1.24).
	// It only fixes the scale; a host that runs the task in this time
	// reports raw values.
	refNominalMs = 33.0
)

// speedMetrics names the end-to-end metrics that measure the program's
// speed on every workload, with the power of the host factor they are
// multiplied by: +1 for a time, −1 for a rate. The federation
// workloads add setup_s, which there is the program's own work
// (building 64 shards and scheduling every arrival) and followed the
// reference task as closely as the run did. On the serve workloads
// set-up is a millisecond of socket and goroutine start-up that barely
// followed it, so it stays raw. The heap is not a speed.
var speedMetrics = map[string]float64{"lat_p50_ms": 1, "max_rate_ops_s": -1, "jobs_per_s": -1}

// hostClock samples the host's speed with the reference task while a
// workload runs.
type hostClock struct {
	start  time.Time
	spent  time.Duration
	chunks []float64 // reference task times, ms
}

func newHostClock() *hostClock { return &hostClock{start: time.Now()} }

// tick runs the reference task until it has taken refShare of the
// wall time since the clock started. Workloads call it between
// repetitions, so the samples follow the host through the run.
func (h *hostClock) tick() {
	for h.spent < time.Duration(refShare*float64(time.Since(h.start))) {
		d := refTask()
		h.spent += d
		h.chunks = append(h.chunks, ms(d))
	}
}

// refMs is the reference task's median time over the run so far.
func (h *hostClock) refMs() float64 {
	h.tick()
	if len(h.chunks) == 0 {
		h.chunks = append(h.chunks, ms(refTask()))
	}
	return median(h.chunks)
}

// scale rewrites the metrics of e2e named in scaled to the reference
// host and returns the factor applied to times (rates are divided by
// it).
func (h *hostClock) scale(e2e, scaled map[string]float64) float64 {
	f := refNominalMs / h.refMs()
	for name, pow := range scaled {
		if v, ok := e2e[name]; ok {
			e2e[name] = v * math.Pow(f, pow)
		}
	}
	return f
}

// refItem is one record of the reference task.
type refItem struct {
	id   int
	t    float64
	next *refItem
	_    [5]float64 // sized like a small scheduler record
}

var refSink int

// refTask is the fixed reference work: the allocation, map, pointer
// and sorting mix of a discrete-event scheduler, about 4 MB of short
// lived records over a 65536-key map, seeded identically every time.
func refTask() time.Duration {
	const n, keys = 50000, 1 << 16
	start := time.Now()
	m := make(map[int]*refItem, keys)
	batch := make([]*refItem, 0, 4096)
	x := uint64(88172645463325252)
	sum := 0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		it := &refItem{id: i, t: float64(x>>40) / (1 << 24)}
		k := int(x % keys)
		if prev := m[k]; prev != nil {
			it.next = prev.next
		}
		m[k] = it
		batch = append(batch, it)
		if len(batch) == cap(batch) {
			sort.Slice(batch, func(a, b int) bool { return batch[a].t < batch[b].t })
			sum += batch[0].id
			batch = batch[:0]
		}
		if o := m[int((x>>20)%keys)]; o != nil {
			sum += o.id
		}
	}
	refSink += sum
	return time.Since(start)
}
