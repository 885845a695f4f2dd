// Command flatflash-bench regenerates the tables and figures of the
// FlatFlash paper's evaluation on the simulator.
//
// Usage:
//
//	flatflash-bench [-quick] [experiment ...]
//	flatflash-bench -list
//	flatflash-bench crashsweep [-points N] [-seed S] [-workloads fsim,txdb]
//	flatflash-bench consolidate [-tenants 1,2,4] [-mixes zipf+scan] [-seeds 1] [-workers N]
//
// With no experiment arguments it runs everything in paper order. Use
// -quick for a fast pass with reduced sizes (same shapes, more noise).
// The experiments run concurrently on every core (GOMAXPROCS) and print in
// order; with -trace-out, -metrics-out or any attribution flag they run
// one at a time. Unknown experiment names are rejected before any runs.
// The crashsweep subcommand runs the crash-consistency harness and exits
// non-zero if any recovery invariant is violated. The consolidate
// subcommand sweeps multi-tenant consolidation runs and reports per-tenant
// slowdown and fairness.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/crashsweep"
	"flatflash/internal/experiments"
	"flatflash/internal/fault"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/obsflags"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// subcommands maps each subcommand to its one-line summary, shown by -list,
// by top-level usage, and when a subcommand gets bad arguments.
var subcommands = []struct{ name, summary string }{
	{"crashsweep", "seeded crash-consistency sweep; exits non-zero on recovery violations"},
	{"consolidate", "multi-tenant consolidation sweep: per-tenant slowdown, fairness, DRAM budgets"},
	{"fleet", "sharded multi-device sweep under open-loop load: shed rate, p99, fairness"},
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "usage: flatflash-bench [flags] [experiment ...]\n")
	fmt.Fprintf(flag.CommandLine.Output(), "       flatflash-bench <subcommand> [flags]\n\nsubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "crashsweep":
			runCrashsweep(os.Args[2:])
			return
		case "consolidate":
			runConsolidate(os.Args[2:])
			return
		case "fleet":
			runFleet(os.Args[2:])
			return
		}
	}
	quick := flag.Bool("quick", false, "run with reduced sizes (faster, noisier)")
	list := flag.Bool("list", false, "list available experiments and subcommands, then exit")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file covering all runs")
	metricsOut := flag.String("metrics-out", "", "write epoch-sampled metrics as JSON Lines")
	metricsEp := flag.Duration("metrics-epoch", time.Millisecond, "virtual-time metrics sampling epoch")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the runs to this file")
	obs := obsflags.Register(flag.CommandLine)
	flag.Parse()
	if *obs.Parallel < 0 {
		fmt.Fprintf(os.Stderr, "flatflash-bench: negative -parallel %d\n", *obs.Parallel)
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}

	if *list {
		for _, d := range experiments.Describe() {
			fmt.Println(d)
		}
		fmt.Println()
		for _, sc := range subcommands {
			fmt.Printf("%-8s subcommand: %s\n", sc.name, sc.summary)
		}
		return
	}

	// Telemetry is attached to every hierarchy the experiments build. The
	// hierarchies run on independent virtual clocks, so the shared trace
	// overlays their timelines; gauge names are deduplicated per instance.
	var (
		tracer *telemetry.Tracer
		probe  telemetry.Probe
		reg    *telemetry.Registry
	)
	if *traceOut != "" {
		tracer = telemetry.NewTracer(telemetry.DefaultTracerCapacity)
		probe = tracer
	}
	if *traceOut != "" || *metricsOut != "" {
		reg = telemetry.NewRegistry(sim.Duration(metricsEp.Nanoseconds()))
	}
	experiments.SetTelemetry(probe, reg)

	// Latency attribution and the flight recorder attach to every FlatFlash
	// hierarchy the experiments build; the consolidate sweep additionally
	// gets per-point attribution engines rendered in its report.
	att, flightRec := obs.Build()
	experiments.SetAttribution(att, flightRec)
	experiments.SetMapCache(*obs.MapCache)
	experiments.SetParallel(*obs.Parallel)

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	if err := experiments.RunIDs(os.Stdout, ids, scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	reg.Finish(reg.LastObserved())
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		check(telemetry.WriteChromeTrace(f, tracer, reg))
		check(f.Close())
		fmt.Printf("trace: %d spans -> %s (load in ui.perfetto.dev)\n", tracer.Recorded(), *traceOut)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		check(err)
		check(reg.WriteJSONL(f))
		check(f.Close())
		fmt.Printf("metrics: %d epochs -> %s\n", len(reg.Rows()), *metricsOut)
	}
	if att != nil {
		check(att.WriteBudget(os.Stdout))
	}
	check(obs.WriteLatency(att, os.Stdout))
	check(obs.WriteFlight(flightRec, os.Stdout))
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC() // settle the heap so the profile shows live allocations
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-bench:", err)
		os.Exit(1)
	}
}

// subUsage prints the subcommand's one-line summary above its flag defaults,
// so bad arguments surface what the subcommand is for, not just its flags.
func subUsage(fs *flag.FlagSet, name string) {
	fs.Usage = func() {
		for _, sc := range subcommands {
			if sc.name == name {
				fmt.Fprintf(fs.Output(), "usage: flatflash-bench %s [flags]\n%s\n\nflags:\n", name, sc.summary)
			}
		}
		fs.PrintDefaults()
	}
}

// runConsolidate executes the multi-tenant consolidation sweep: for each
// (tenant count, mix spec, seed) grid point, every tenant is measured solo on
// a private device and then consolidated on the shared one. The report is
// byte-identical for a fixed grid and seed set, whatever -workers is.
func runConsolidate(args []string) {
	fs := flag.NewFlagSet("consolidate", flag.ExitOnError)
	var (
		tenants = fs.String("tenants", "1,2,4", "comma-separated tenant counts")
		mixes   = fs.String("mixes", "zipf+uniform+ycsb-b+txlog", "comma-separated mix specs; '+' cycles mixes across a point's tenants")
		seeds   = fs.String("seeds", "1", "comma-separated sweep seeds (same grid+seeds => byte-identical report)")
		ops     = fs.Int("ops", 500, "operations per tenant")
		region  = fs.Uint64("region", 256<<10, "mapped region bytes per tenant")
		think   = fs.Duration("think", time.Microsecond, "virtual think time between a tenant's operations")
		workers = fs.Int("workers", 4, "parallel workers across grid points")
		noArb   = fs.Bool("no-arbiter", false, "disable the DRAM-budget arbiter (unmanaged frame contention)")
		obs     = obsflags.Register(fs)
	)
	subUsage(fs, "consolidate")
	check(fs.Parse(args))
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	var dev *core.Config
	if *obs.MapCache > 0 {
		// Same geometry the sweep uses by default, with the demand-paged map
		// switched on for every tenant's device.
		d := mtsim.DefaultDeviceConfig()
		d.MapCachePages = *obs.MapCache
		d.MapPipeline = true
		dev = &d
	}
	cfg := mtsim.SweepConfig{
		Device:         dev,
		TenantCounts:   parseInts(fs, *tenants),
		MixSpecs:       strings.Split(*mixes, ","),
		Seeds:          parseUints(fs, *seeds),
		Ops:            *ops,
		RegionBytes:    *region,
		Think:          sim.Duration(think.Nanoseconds()),
		Workers:        *workers,
		Parallel:       *obs.Parallel,
		DisableArbiter: *noArb,
		Attrib:         obs.AttribEnabled(),
		SLO:            obs.SLODur(),
	}
	var flightRec *telemetry.FlightRecorder
	if obs.FlightEnabled() {
		flightRec = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
		cfg.Flight = flightRec
	}
	res, err := mtsim.Sweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-bench:", err)
		fs.Usage()
		os.Exit(2)
	}
	check(res.Write(os.Stdout))
	if *obs.LatencyOut != "" {
		// Each sweep point carries a private attribution engine; the dump
		// concatenates their JSONL records in grid order.
		f, err := os.Create(*obs.LatencyOut)
		check(err)
		for i := range res.Points {
			if a := res.Points[i].Res.Attribution; a != nil {
				check(a.WriteJSONL(f))
			}
		}
		check(f.Close())
	}
	check(obs.WriteFlight(flightRec, os.Stdout))
}

// runFleet executes the sharded fleet sweep: for each (shard count, offered
// rate, seed) grid point, M devices behind a consistent-hash ring absorb
// open-loop Poisson traffic with SLO-aware admission control. The report is
// byte-identical for a fixed grid and seed set, whatever -workers is.
func runFleet(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	var (
		// Per-shard device geometry; the defaults match flatflash-sim's, so a
		// 1-shard fleet and a flatflash-sim -openloop run with the same seed
		// and region print byte-identical device lines.
		ssd      = fs.Uint64("ssd", 256<<20, "per-shard SSD capacity in bytes")
		dram     = fs.Uint64("dram", 4<<20, "per-shard host DRAM in bytes")
		shards   = fs.String("shards", "1,2,4", "comma-separated shard (device) counts")
		rates    = fs.String("rates", "50000,500000,2000000", "comma-separated offered arrival rates (ops/s)")
		seeds    = fs.String("seeds", "1", "comma-separated arrival seeds (same grid+seeds => byte-identical report)")
		mix      = fs.String("mix", "zipf", "mix spec; '+' interleaves mixes across clients")
		clients  = fs.Uint64("clients", 1<<20, "simulated client population")
		amp      = fs.Float64("amp", 0.4, "diurnal modulation amplitude in [0,1)")
		period   = fs.Duration("period", 10*time.Millisecond, "diurnal period in virtual time")
		ops      = fs.Int("ops", 5000, "total arrivals per grid point")
		region   = fs.Uint64("region", 1<<20, "global address-space bytes sharded across the fleet")
		qdepth   = fs.Int("qdepth", 0, "per-shard queue depth bound (0 = default)")
		batch    = fs.Int("batch", 0, "MMIO doorbell batch size (0 = default)")
		issue    = fs.Duration("issue-overhead", 300*time.Nanosecond, "per-batch doorbell cost")
		vnodes   = fs.Int("vnodes", 0, "ring vnodes per shard (0 = default)")
		ringSeed = fs.Uint64("ring-seed", 0, "consistent-hash ring placement seed")
		mEpoch   = fs.Duration("migrate-epoch", 0, "cross-shard migration epoch (0 disables migration)")
		mPages   = fs.Int("migrate-pages", 0, "max pages migrated per shard per epoch (0 = default)")
		mLat     = fs.Duration("migrate-lat", 0, "per-page migration copy cost (0 = default)")
		workers  = fs.Int("workers", 4, "parallel workers across grid points")
		obs      = obsflags.Register(fs)
	)
	subUsage(fs, "fleet")
	check(fs.Parse(args))
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	dev := core.DefaultConfig(*ssd, *dram)
	dev.MapCachePages = *obs.MapCache
	dev.MapPipeline = *obs.MapCache > 0
	cfg := fleet.SweepConfig{
		Device:      &dev,
		ShardCounts: parseInts(fs, *shards),
		Rates:       parseFloats(fs, *rates),
		Seeds:       parseUints(fs, *seeds),
		Arrivals: workload.ArrivalConfig{
			MixSpec:       *mix,
			DiurnalAmp:    *amp,
			DiurnalPeriod: sim.Duration(period.Nanoseconds()),
			Clients:       *clients,
			RegionBytes:   *region,
			Ops:           *ops,
		},
		Server: mtsim.ServerOptions{
			QueueDepth:    *qdepth,
			Batch:         *batch,
			IssueOverhead: sim.Duration(issue.Nanoseconds()),
			SLO:           obs.SLODur(),
			ShedWait:      obs.ShedWaitDur(),
		},
		VNodes:       *vnodes,
		RingSeed:     *ringSeed,
		MigrateEpoch: sim.Duration(mEpoch.Nanoseconds()),
		MigratePages: *mPages,
		MigrateLat:   sim.Duration(mLat.Nanoseconds()),
		Workers:      *workers,
		Parallel:     *obs.Parallel,
	}
	var flightRec *telemetry.FlightRecorder
	if obs.FlightEnabled() {
		flightRec = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
		cfg.Server.Flight = flightRec
	}
	if obs.AttribEnabled() {
		cfg.Server.Attrib = true
	}
	res, err := fleet.Sweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flatflash-bench:", err)
		fs.Usage()
		os.Exit(2)
	}
	check(res.Write(os.Stdout))
	if *obs.LatencyOut != "" {
		// Every shard of every point carries a private attribution engine;
		// the dump concatenates their JSONL records in grid+shard order.
		f, err := os.Create(*obs.LatencyOut)
		check(err)
		for i := range res.Points {
			for _, s := range res.Points[i].Res.Shards {
				if a := s.Attribution(); a != nil {
					check(a.WriteJSONL(f))
				}
			}
		}
		check(f.Close())
	}
	check(obs.WriteFlight(flightRec, os.Stdout))
}

func parseInts(fs *flag.FlagSet, csv string) []int {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil {
			fmt.Fprintf(os.Stderr, "flatflash-bench: bad integer %q\n", s)
			fs.Usage()
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(fs *flag.FlagSet, csv string) []float64 {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil {
			fmt.Fprintf(os.Stderr, "flatflash-bench: bad rate %q\n", s)
			fs.Usage()
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseUints(fs *flag.FlagSet, csv string) []uint64 {
	var out []uint64
	for _, s := range strings.Split(csv, ",") {
		var v uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil {
			fmt.Fprintf(os.Stderr, "flatflash-bench: bad seed %q\n", s)
			fs.Usage()
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// runCrashsweep executes the crash-consistency sweep harness. The defaults
// (60 points x fsim + txdb) give 120 seeded crash points per invocation.
func runCrashsweep(args []string) {
	fs := flag.NewFlagSet("crashsweep", flag.ExitOnError)
	subUsage(fs, "crashsweep")
	var (
		points    = fs.Int("points", 60, "crash points per workload")
		seed      = fs.Uint64("seed", 1, "sweep seed (same seed => byte-identical report)")
		workloads = fs.String("workloads", "fsim,txdb", "comma-separated workloads to sweep")
		planPath  = fs.String("fault-plan", "", "layer extra faults from this plan file onto every crash run")
		breakRec  = fs.Bool("break-recovery", false, "sabotage recovery (test-only; the sweep must then report violations)")
		flightOut = fs.String("flight-out", "", obsflags.FlightOutHelp)
		mapCache  = fs.Int("map-cache", 0, obsflags.MapCacheHelp)
	)
	check(fs.Parse(args))
	cfg := crashsweep.Config{
		Seed:          *seed,
		Points:        *points,
		Workloads:     strings.Split(*workloads, ","),
		BreakRecovery: *breakRec,
		MapCachePages: *mapCache,
	}
	if *flightOut != "" {
		cfg.Flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	}
	if *planPath != "" {
		f, err := os.Open(*planPath)
		check(err)
		cfg.ExtraPlan, err = fault.ParsePlan(f)
		f.Close()
		check(err)
	}
	rep, err := crashsweep.Run(cfg)
	check(err)
	check(rep.Write(os.Stdout))
	if cfg.Flight != nil {
		f, err := os.Create(*flightOut)
		check(err)
		check(cfg.Flight.WriteDump(f))
		check(f.Close())
		fmt.Printf("flight: %d triggers, %d snapshots -> %s\n",
			cfg.Flight.Triggers(), len(cfg.Flight.Snapshots()), *flightOut)
	}
	if *breakRec {
		// Self-test mode: a sabotaged recovery that produces a clean report
		// means the harness checks nothing.
		if rep.Violations == 0 {
			fmt.Fprintln(os.Stderr, "flatflash-bench: broken recovery went UNDETECTED")
			os.Exit(1)
		}
		fmt.Printf("broken recovery detected (%d violations), harness is live\n", rep.Violations)
		return
	}
	if rep.Violations > 0 {
		fmt.Fprintf(os.Stderr, "flatflash-bench: %d crash-consistency violations\n", rep.Violations)
		os.Exit(1)
	}
}
