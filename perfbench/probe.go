package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Runtime metrics read around a measured phase.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtHeapLive   = "/gc/heap/live:bytes"
)

var rtNames = []string{rtAllocBytes, rtAllocObjs, rtGCCycles, rtGCCPU, rtTotalCPU}

// probe is the program's exported state at one instant: a telemetry
// snapshot of the process-wide registry plus runtime/metrics. Two
// probes around a phase give that phase's counts. The registry is
// never Reset: Reset swaps in fresh maps, so every handle a package
// cached at init would silently drop out of later snapshots.
type probe struct {
	tele *telemetry.Snapshot
	rt   map[string]float64
}

func takeProbe() probe {
	return probe{tele: telemetry.Default.Snapshot(), rt: readRuntime(rtNames)}
}

// readRuntime reads the named runtime/metrics values as float64.
func readRuntime(names []string) map[string]float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(names))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// delta is what the program exported between two probes.
type delta struct {
	counters    map[string]uint64
	histCount   map[string]uint64
	histSum     map[string]float64
	eventsTotal uint64
	rt          map[string]float64
}

// since returns the change from the earlier probe a to p.
func (p probe) since(a probe) delta {
	d := delta{
		counters:    map[string]uint64{},
		histCount:   map[string]uint64{},
		histSum:     map[string]float64{},
		eventsTotal: p.tele.EventsTotal - a.tele.EventsTotal,
		rt:          map[string]float64{},
	}
	for name, v := range p.tele.Counters {
		d.counters[name] = v - a.tele.Counters[name]
	}
	for name, h := range p.tele.Histograms {
		old := a.tele.Histograms[name]
		d.histCount[name] = h.Count - old.Count
		d.histSum[name] = h.Sum - old.Sum
	}
	for name, v := range p.rt {
		d.rt[name] = v - a.rt[name]
	}
	return d
}

// add accumulates another phase's delta into d.
func (d *delta) add(o delta) {
	if d.counters == nil {
		*d = delta{counters: map[string]uint64{}, histCount: map[string]uint64{},
			histSum: map[string]float64{}, rt: map[string]float64{}}
	}
	for k, v := range o.counters {
		d.counters[k] += v
	}
	for k, v := range o.histCount {
		d.histCount[k] += v
	}
	for k, v := range o.histSum {
		d.histSum[k] += v
	}
	for k, v := range o.rt {
		d.rt[k] += v
	}
	d.eventsTotal += o.eventsTotal
}

// liveHeapMB forces a collection and returns the live Go heap in MB.
// Called at the end of a timed phase, when every workload's state is
// largest, it reads the phase's peak retained heap without the noise of
// when collections happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	return readRuntime([]string{rtHeapLive})[rtHeapLive] / (1 << 20)
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 for a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span with known times (used where the
// benchmark already took the timestamps, as in the request loop).
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// total returns the summed duration and count of spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return time.Duration(sum), n
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
