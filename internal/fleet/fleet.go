package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Shards is the device count M.
	Shards int
	// VNodes is the ring points per shard; 0 selects the default (128).
	VNodes int
	// RingSeed seeds vnode placement. It is independent of the arrival seed
	// so a sweep can vary traffic without reshuffling placement.
	RingSeed uint64

	// Device configures every shard's device; nil selects the mtsim default
	// (64 MiB SSD, 4 MiB DRAM).
	Device *core.Config

	// Arrivals is the open-loop traffic offered to the whole fleet.
	Arrivals workload.ArrivalConfig

	// Server is every shard's queueing/batching/admission policy.
	Server mtsim.ServerOptions

	// Ring overrides the consistent-hash ring (tests and the degenerate
	// single-owner routing). Nil builds NewRing(Shards, VNodes, RingSeed).
	Ring *Ring

	// MigrateEpoch enables cross-shard page migration: every epoch, a shard
	// whose promotion churn saturated its DRAM frame budget hands its
	// hottest pages to the least-loaded shard. 0 disables migration.
	MigrateEpoch sim.Duration
	// MigratePages bounds pages moved per shard per epoch; 0 selects 8.
	MigratePages int
	// MigrateLat is the per-page copy cost charged to both devices; 0
	// selects 20µs (a page transit over the inter-shard link).
	MigrateLat sim.Duration

	// Parallel is the epoch loop's worker count: with two or more, each
	// epoch's routed arrivals are served on that many workers, one shard per
	// worker (see migrator.run). Reports are byte-identical at every
	// setting. A shared flight recorder in Server forces one worker.
	Parallel int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("fleet: shard count %d", c.Shards)
	}
	if c.VNodes < 0 {
		return fmt.Errorf("fleet: vnodes %d", c.VNodes)
	}
	if c.Ring != nil && c.Ring.Shards() != c.Shards {
		return fmt.Errorf("fleet: ring routes %d shards, config has %d", c.Ring.Shards(), c.Shards)
	}
	if c.MigrateEpoch < 0 || c.MigratePages < 0 || c.MigrateLat < 0 {
		return fmt.Errorf("fleet: negative migration parameter")
	}
	if c.Parallel < 0 {
		return fmt.Errorf("fleet: negative parallel worker count %d", c.Parallel)
	}
	if err := c.Arrivals.Validate(); err != nil {
		return err
	}
	return c.Server.Validate()
}

func (c Config) deviceConfig() core.Config {
	if c.Device != nil {
		return *c.Device
	}
	return core.DefaultConfig(64<<20, 4<<20)
}

// Result is the outcome of one fleet run.
type Result struct {
	Shards     []*mtsim.Server
	Arrivals   workload.ArrivalConfig
	SLO        sim.Duration
	Migrations int64
	// MigrateEpochNS echoes the migration epoch for the report header.
	MigrateEpochNS int64
	// KeyShare is each shard's fraction of routed arrivals.
	KeyShare []float64
}

// Run executes the fleet: arrivals stream from the generator in virtual-time
// order, route through the ring (as overridden by migrations) at page
// granularity, and queue on their shard's server. Seeded and
// byte-deterministic at every worker count.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := workload.NewArrivalGen(cfg.Arrivals)
	if err != nil {
		return nil, err
	}
	ring := cfg.Ring
	if ring == nil {
		vnodes := cfg.VNodes
		if vnodes == 0 {
			vnodes = 128
		}
		ring, err = NewRing(cfg.Shards, vnodes, cfg.RingSeed)
		if err != nil {
			return nil, err
		}
	}
	dev := cfg.deviceConfig()
	servers := make([]*mtsim.Server, cfg.Shards)
	for i := range servers {
		servers[i], err = mtsim.NewServer(dev, cfg.Arrivals.MixSpec, cfg.Arrivals.RegionBytes, cfg.Server)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
	}

	m := newMigrator(cfg, servers, uint64(dev.PageSize))
	routed, err := m.run(gen, ring)
	if err != nil {
		return nil, err
	}
	for _, s := range servers {
		s.Finish()
	}
	res := &Result{
		Shards:         servers,
		Arrivals:       cfg.Arrivals,
		SLO:            cfg.Server.SLO,
		Migrations:     m.migrations,
		MigrateEpochNS: int64(cfg.MigrateEpoch),
		KeyShare:       make([]float64, cfg.Shards),
	}
	total := int64(0)
	for _, n := range routed {
		total += n
	}
	for i, n := range routed {
		if total > 0 {
			res.KeyShare[i] = float64(n) / float64(total)
		}
	}
	return res, nil
}

// workers is the epoch loop's worker count: Parallel, capped at the shard
// count. A shared flight recorder forces one worker: it is a single-writer
// sink whose triggers must land in arrival order, not shard by shard.
func (c Config) workers() int {
	if c.Parallel < 2 || c.Server.Flight != nil {
		return 1
	}
	return min(c.Parallel, c.Shards)
}

// migrator owns the fleet's shards between epoch boundaries: it serves
// routed arrivals, tracks per-epoch page heat and promotion churn, and
// rebalances ownership when a shard's DRAM budget saturates. With
// MigrateEpoch == 0 its migration state is inert and allocation-free, so the
// degenerate equivalence runs pay nothing for it.
type migrator struct {
	cfg        Config
	servers    []*mtsim.Server
	pageSize   uint64
	override   map[uint64]int // page -> shard, set by migrations
	heat       []map[uint64]int64
	admitted   []int64
	promoted   []int64 // promotion count at the last epoch boundary
	next       sim.Time
	pages      int
	lat        sim.Duration
	migrations int64
}

func newMigrator(cfg Config, servers []*mtsim.Server, pageSize uint64) *migrator {
	m := &migrator{cfg: cfg, servers: servers, pageSize: pageSize}
	if cfg.MigrateEpoch <= 0 || cfg.Shards < 2 {
		return m
	}
	m.override = make(map[uint64]int)
	m.heat = make([]map[uint64]int64, cfg.Shards)
	for i := range m.heat {
		m.heat[i] = make(map[uint64]int64)
	}
	m.admitted = make([]int64, cfg.Shards)
	m.promoted = make([]int64, cfg.Shards)
	m.next = sim.Time(0).Add(cfg.MigrateEpoch)
	m.pages = cfg.MigratePages
	if m.pages == 0 {
		m.pages = 8
	}
	m.lat = cfg.MigrateLat
	if m.lat == 0 {
		m.lat = 20 * sim.Microsecond
	}
	return m
}

// run is the fleet's epoch loop. Arrivals stream from the generator in
// virtual-time order and route through the migration overrides, then the
// ring. With one worker each arrival is served as soon as it is routed.
// With more, routed arrivals collect in per-shard windows, served
// concurrently one shard per worker whenever the next arrival crosses an
// epoch boundary, and once more at the end (so a run without migration is
// one window). Either way a boundary's rebalance runs here, after every
// earlier arrival was served: shards interact only there, so each shard
// sees the same calls in the same order at every worker count. It returns
// each shard's routed-arrival count.
func (m *migrator) run(gen *workload.ArrivalGen, ring *Ring) ([]int64, error) {
	workers := m.cfg.workers()
	var windows [][]workload.Arrival
	if workers > 1 {
		windows = make([][]workload.Arrival, len(m.servers))
	}
	flush := func() error {
		return sim.ForEach(len(windows), workers, func(sh int) error {
			err := m.serveWindow(sh, windows[sh])
			windows[sh] = windows[sh][:0]
			return err
		})
	}
	routed := make([]int64, len(m.servers))
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if m.due(a.At) {
			if err := flush(); err != nil {
				return nil, err
			}
			m.rebalanceThrough(a.At)
		}
		page := a.Op.Off / m.pageSize
		sh := m.owner(page)
		if sh < 0 {
			sh = ring.Lookup(page)
		}
		routed[sh]++
		if windows != nil {
			windows[sh] = append(windows[sh], a)
		} else if err := m.serve(sh, a); err != nil {
			return nil, err
		}
	}
	return routed, flush()
}

// serveWindow serves shard sh's buffered arrivals in arrival order. It runs
// concurrently with the other shards' windows.
//
//flatflash:lp
func (m *migrator) serveWindow(sh int, window []workload.Arrival) error {
	for _, a := range window {
		if err := m.serve(sh, a); err != nil {
			return err
		}
	}
	return nil
}

// serve delivers one routed arrival to shard sh and records its heat for
// the epoch. It touches only shard sh's server and migrator slots.
//
//flatflash:lp
func (m *migrator) serve(sh int, a workload.Arrival) error {
	admitted, err := m.servers[sh].Arrive(a.At, a.Op)
	if err != nil {
		return fmt.Errorf("fleet: shard %d arrival at %d: %w", sh, a.At, err)
	}
	if admitted && m.enabled() {
		m.heat[sh][a.Op.Off/m.pageSize]++
		m.admitted[sh]++
	}
	return nil
}

func (m *migrator) enabled() bool { return m.override != nil }

// owner returns the migrated owner of page, or -1 for ring routing.
func (m *migrator) owner(page uint64) int {
	if !m.enabled() {
		return -1
	}
	if sh, ok := m.override[page]; ok {
		return sh
	}
	return -1
}

// due reports whether an arrival at now crosses an epoch boundary.
func (m *migrator) due(now sim.Time) bool { return m.enabled() && now >= m.next }

// rebalanceThrough runs the epoch boundaries at or before now.
func (m *migrator) rebalanceThrough(now sim.Time) {
	for m.due(now) {
		m.rebalance(m.next)
		m.next = m.next.Add(m.cfg.MigrateEpoch)
	}
}

// pageHeat is one page's admitted-arrival count inside an epoch.
type pageHeat struct {
	page uint64
	n    int64
}

// sortHeat flattens an epoch heat map into the deterministic selection
// order — count descending, page ascending — so page choice is a pure
// function of the run so far, never of map iteration.
func sortHeat(heat map[uint64]int64) []pageHeat {
	hot := make([]pageHeat, 0, len(heat))
	for page, n := range heat {
		hot = append(hot, pageHeat{page, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].page < hot[j].page
	})
	return hot
}

// rebalance runs one epoch boundary: every saturated shard (promotion churn
// at or above its DRAM frame budget) hands its hottest pages to the
// least-loaded shard, each move an ownership override plus a copy-cost
// Occupy on both devices. Then the epoch accounting resets.
func (m *migrator) rebalance(at sim.Time) {
	for src, s := range m.servers {
		churn := s.Promotions() - m.promoted[src]
		if churn < int64(s.DRAMFrames()) || len(m.heat[src]) == 0 {
			continue
		}
		dst := -1
		for cand := range m.servers {
			if cand == src {
				continue
			}
			if dst < 0 || m.admitted[cand] < m.admitted[dst] {
				dst = cand
			}
		}
		if dst < 0 || m.admitted[dst] >= m.admitted[src] {
			continue // nowhere meaningfully cooler to move to
		}
		hot := sortHeat(m.heat[src])
		if len(hot) > m.pages {
			hot = hot[:m.pages]
		}
		for _, ph := range hot {
			m.override[ph.page] = dst
			m.servers[src].Occupy(at, m.lat)
			m.servers[dst].Occupy(at, m.lat)
			m.migrations++
		}
	}
	for i, s := range m.servers {
		m.heat[i] = make(map[uint64]int64)
		m.admitted[i] = 0
		m.promoted[i] = s.Promotions()
	}
}

// Aggregates.

// Admitted returns the fleet-wide admitted request count.
func (r *Result) Admitted() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Admitted()
	}
	return n
}

// Shed returns the fleet-wide shed count.
func (r *Result) Shed() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Shed()
	}
	return n
}

// ShedRate returns the fleet-wide shed fraction of offered requests.
func (r *Result) ShedRate() float64 {
	var offered int64
	for _, s := range r.Shards {
		offered += s.Arrivals()
	}
	if offered == 0 {
		return 0
	}
	return float64(r.Shed()) / float64(offered)
}

// Makespan returns the latest shard frontier.
func (r *Result) Makespan() sim.Duration {
	var worst sim.Duration
	for _, s := range r.Shards {
		if m := s.Makespan(); m > worst {
			worst = m
		}
	}
	return worst
}

// Throughput returns fleet-wide admitted requests per virtual second.
func (r *Result) Throughput() float64 {
	if r.Makespan() <= 0 {
		return 0
	}
	return float64(r.Admitted()) / r.Makespan().Seconds()
}

// Hist returns the merged admitted-request response-time histogram.
func (r *Result) Hist() *stats.Histogram {
	merged := stats.NewHistogram()
	for _, s := range r.Shards {
		merged.Merge(s.Hist())
	}
	return merged
}

// Fairness returns the Jain index over per-shard admitted throughput: 1.0
// when the ring spreads load evenly, 1/M when one shard serves everything.
// Unlike stats.JainFairness (which skips inactive accounts), idle shards
// count against the fleet: a starved shard is the imbalance being measured.
func (r *Result) Fairness() float64 {
	var sum, sumSq float64
	for _, s := range r.Shards {
		x := float64(s.Admitted())
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(r.Shards)) * sumSq)
}

// Write renders the run deterministically: a fleet header, one line per
// shard (the same bytes a single-device OpenLoop run would emit for that
// device), and the fleet aggregate line.
func (r *Result) Write(w io.Writer) error {
	a := r.Arrivals
	if _, err := fmt.Fprintf(w, "fleet shards=%d mix=%s ops=%d rate=%.1f clients=%d amp=%.2f seed=%d slo_ns=%d migrate_epoch_ns=%d\n",
		len(r.Shards), a.MixSpec, a.Ops, a.Rate, a.Clients, a.DiurnalAmp, a.Seed, int64(r.SLO), r.MigrateEpochNS); err != nil {
		return err
	}
	for i, s := range r.Shards {
		if err := s.WriteReport(w, i); err != nil {
			return err
		}
	}
	hist := r.Hist()
	_, err := fmt.Fprintf(w, "  fleet admitted=%d shed=%d shed_rate=%.4f ops_per_s=%.1f p99_ns=%d fairness=%.4f migrations=%d makespan_ns=%d\n",
		r.Admitted(), r.Shed(), r.ShedRate(), r.Throughput(), int64(hist.Percentile(99)),
		r.Fairness(), r.Migrations, int64(r.Makespan()))
	return err
}

// DeviceReport returns shard i's report line — byte-identical to the line a
// single-device OpenLoop run emits when it served the same requests (the
// degenerate-routing equivalence gate).
func (r *Result) DeviceReport(i int) (string, error) {
	if i < 0 || i >= len(r.Shards) {
		return "", fmt.Errorf("fleet: shard %d outside %d", i, len(r.Shards))
	}
	var b strings.Builder
	if err := r.Shards[i].WriteReport(&b, 0); err != nil {
		return "", err
	}
	return b.String(), nil
}
