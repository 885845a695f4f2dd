package main

import (
	"sort"
	"time"

	"flatflash/internal/experiments"
)

// callKind names the calls into core the benchmark times one by one.
type callKind int

const (
	callRead callKind = iota
	callWrite
	callPersist
	numCallKinds
)

var callNames = [numCallKinds]string{"core.read_ns", "core.write_ns", "core.persist_ns"}

// callSampling times one call in this many, which keeps the traced run's
// own overhead small next to a call of under a microsecond while leaving
// over a hundred thousand samples per round for the percentiles.
const callSampling = 16

// tracer keeps the host time of the benchmark's own calls into each layer in
// memory; report turns them into per-layer metrics at the end of the run. A
// nil tracer records nothing, so untraced rounds pay only a nil check.
type tracer struct {
	spans map[string][]time.Duration
	calls [numCallKinds][]int32 // nanoseconds per sampled call
	ticks [numCallKinds]int
}

func newTracer() *tracer {
	return &tracer{spans: map[string][]time.Duration{}}
}

// now returns the start of a call of kind k, or the zero time when the
// tracer is nil or the call is not sampled.
func (t *tracer) now(k callKind) time.Time {
	if t == nil {
		return time.Time{}
	}
	t.ticks[k]++
	if t.ticks[k]%callSampling != 0 {
		return time.Time{}
	}
	return time.Now()
}

// span records a named span that started at start and ends now.
func (t *tracer) span(name string, start time.Time) {
	if t == nil {
		return
	}
	t.spans[name] = append(t.spans[name], time.Since(start))
}

// call records one sampled call of kind k that started at start and ends
// now.
func (t *tracer) call(k callKind, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.calls[k] = append(t.calls[k], int32(time.Since(start)))
}

// report adds the span and call metrics. A span or call the workload never
// makes reads 0.
func (t *tracer) report(m map[string]metric) {
	m["span.gen_s"] = metric{t.medianSpan("gen"), "s"}
	m["span.build_s"] = metric{t.medianSpan("build"), "s"}
	for _, id := range experiments.IDs() {
		m["experiments."+id+".wall_s"] = metric{t.medianSpan("experiments." + id), "s"}
	}
	for k, name := range callNames {
		ns := append([]int32(nil), t.calls[k]...)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		m[name+".p50"] = metric{float64(rank(ns, 0.50)), "ns"}
		m[name+".p99"] = metric{float64(rank(ns, 0.99)), "ns"}
	}
}

func (t *tracer) medianSpan(name string) float64 {
	var s []float64
	for _, d := range t.spans[name] {
		s = append(s, d.Seconds())
	}
	return median(s)
}

// rank returns the nearest-rank q-quantile of sorted ns, or 0 for none.
func rank(ns []int32, q float64) int32 {
	if len(ns) == 0 {
		return 0
	}
	i := int(q*float64(len(ns))+0.5) - 1
	return ns[min(max(i, 0), len(ns)-1)]
}
