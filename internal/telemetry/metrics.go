package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"flatflash/internal/sim"
	"flatflash/internal/stats"
)

// DefaultEpoch is the default sampling interval of the metrics registry.
const DefaultEpoch = sim.Millisecond

// maxRows bounds the sample series so a pathological virtual-time jump
// cannot exhaust memory; sampling stops beyond it.
const maxRows = 1 << 20

// Registry generalizes stats.Counters with gauges and epoch-sampled time
// series on the virtual clock. Hierarchies register pull-gauges (hit ratios,
// occupancy, write amplification) and rate-gauges (promotions per virtual
// second) when they are attached; every access calls Tick, which samples all
// gauges each time virtual time crosses an epoch boundary.
//
// All methods are nil-receiver safe so call sites need no guards: a nil
// *Registry is the disabled, zero-cost configuration.
type Registry struct {
	epoch sim.Duration

	began bool
	start sim.Time
	next  sim.Time
	last  sim.Time // latest time observed by Tick/Finish

	gaugeNames []string
	gaugeFns   []func() float64

	rateNames []string
	rateFns   []func() int64
	ratePrev  []int64
	prevRowT  sim.Time

	counters *stats.Counters

	rows []Row
}

// Row is one sampled epoch: gauge values in registration order (gauges
// first, then rates).
type Row struct {
	T    sim.Time
	Vals []float64
}

// NewRegistry returns a registry sampling every epoch of virtual time
// (DefaultEpoch if epoch <= 0).
func NewRegistry(epoch sim.Duration) *Registry {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return &Registry{epoch: epoch, counters: stats.NewCounters()}
}

// Epoch returns the sampling interval.
func (r *Registry) Epoch() sim.Duration {
	if r == nil {
		return 0
	}
	return r.epoch
}

// uniqueName suffixes name with #2, #3... if it is already taken, so that
// several instrumented hierarchies can share one registry deterministically.
func (r *Registry) uniqueName(name string) string {
	taken := func(n string) bool {
		for _, g := range r.gaugeNames {
			if g == n {
				return true
			}
		}
		for _, g := range r.rateNames {
			if g == n {
				return true
			}
		}
		return false
	}
	if !taken(name) {
		return name
	}
	for i := 2; ; i++ {
		n := fmt.Sprintf("%s#%d", name, i)
		if !taken(n) {
			return n
		}
	}
}

// RegisterGauge registers a pull-gauge sampled at every epoch boundary.
// Duplicate names are made unique with a #N suffix. No-op on nil.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.gaugeNames = append(r.gaugeNames, r.uniqueName(name))
	r.gaugeFns = append(r.gaugeFns, fn)
}

// RegisterRate registers a monotonically increasing counter fn whose
// per-virtual-second rate is sampled each epoch. No-op on nil.
func (r *Registry) RegisterRate(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.rateNames = append(r.rateNames, r.uniqueName(name+"_per_s"))
	r.rateFns = append(r.rateFns, fn)
	r.ratePrev = append(r.ratePrev, 0)
}

// Add increments a named counter. No-op on nil.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.counters.Add(name, delta)
}

// CounterHandle returns a pre-resolved cell for a registry counter, so hot
// paths can increment it with one pointer add instead of a map lookup (see
// stats.Handle for the visibility contract). On a nil registry it returns a
// dead cell: increments land nowhere, matching Add's nil no-op.
func (r *Registry) CounterHandle(name string) stats.Handle {
	if r == nil {
		return new(int64)
	}
	return r.counters.Handle(name)
}

// Get returns a counter value (0 on nil registry or absent counter).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters.Get(name)
}

// Counters returns the registry's counter set (nil on a nil registry).
func (r *Registry) Counters() *stats.Counters {
	if r == nil {
		return nil
	}
	return r.counters
}

// Start positions the epoch grid at now. Hierarchy.Attach calls it; calling it
// again is a no-op so several hierarchies can share a registry.
func (r *Registry) Start(now sim.Time) {
	if r == nil || r.began {
		return
	}
	r.began = true
	r.start = now
	r.prevRowT = now
	r.last = now
	r.next = now.Add(r.epoch)
}

// Tick observes virtual time now, sampling all gauges at every epoch
// boundary crossed since the last call. Nil-safe and allocation-free when
// no boundary is crossed.
func (r *Registry) Tick(now sim.Time) {
	if r == nil {
		return
	}
	if !r.began {
		r.Start(now)
	}
	if now.After(r.last) {
		r.last = now
	}
	for !r.next.After(now) {
		r.sample(r.next)
		r.next = r.next.Add(r.epoch)
	}
}

// Finish records a final partial-epoch sample at now if any time passed
// since the last row, so short runs still produce a series.
func (r *Registry) Finish(now sim.Time) {
	if r == nil || !r.began {
		return
	}
	r.Tick(now)
	if now.After(r.prevRowT) {
		r.sample(now)
	}
}

func (r *Registry) sample(at sim.Time) {
	if len(r.rows) >= maxRows {
		return
	}
	vals := make([]float64, 0, len(r.gaugeFns)+len(r.rateFns))
	for _, fn := range r.gaugeFns {
		vals = append(vals, sanitize(fn()))
	}
	dt := at.Sub(r.prevRowT).Seconds()
	for i, fn := range r.rateFns {
		cur := fn()
		rate := 0.0
		if dt > 0 {
			rate = float64(cur-r.ratePrev[i]) / dt
		}
		r.ratePrev[i] = cur
		vals = append(vals, sanitize(rate))
	}
	r.prevRowT = at
	r.rows = append(r.rows, Row{T: at, Vals: vals})
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// SeriesNames returns all sampled column names: gauges then rates, in
// registration order.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.gaugeNames)+len(r.rateNames))
	out = append(out, r.gaugeNames...)
	return append(out, r.rateNames...)
}

// Rows returns the sampled series.
func (r *Registry) Rows() []Row {
	if r == nil {
		return nil
	}
	return r.rows
}

// LastObserved returns the latest virtual time seen by Tick or Finish
// (zero on a nil or never-started registry). Callers without their own
// clock — e.g. a benchmark driver sharing one registry across several
// hierarchies — pass it back to Finish.
func (r *Registry) LastObserved() sim.Time {
	if r == nil {
		return 0
	}
	return r.last
}

// Elapsed returns the virtual time between Start and the latest Tick.
func (r *Registry) Elapsed() sim.Duration {
	if r == nil || !r.began {
		return 0
	}
	return r.last.Sub(r.start)
}

// WriteJSONL writes the metrics series as JSON Lines: one object per
// sampled epoch with "t_ns", "epoch", and every gauge/rate column, followed
// by one final object with "t_ns" and the full counter snapshot (sorted by
// name). Output is deterministic: column order is registration order and
// counters are sorted, so same-seed runs produce byte-identical files.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	names := r.SeriesNames()
	for i, row := range r.rows {
		fmt.Fprintf(bw, `{"t_ns":%d,"epoch":%d`, int64(row.T), i)
		for j, v := range row.Vals {
			fmt.Fprintf(bw, `,"%s":%s`, names[j], formatFloat(v))
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, `{"t_ns":%d,"counters":{`, int64(r.last))
	for i, kv := range r.counters.Snapshot() {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `"%s":%d`, kv.Name, kv.Value)
	}
	if _, err := bw.WriteString("}}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// formatFloat renders v in the shortest form that round-trips, matching
// encoding/json's number formatting for determinism.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
