package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"flatflash/internal/stats"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident memory: VmHWM of this
// process image, falling back to getrusage's maximum.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeDelta is what the Go runtime did over one timed phase.
type runtimeDelta struct {
	gcCycles   float64
	allocBytes float64
	gcCPU      float64 // seconds, the runtime's estimate
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeDelta{gcCycles: val(s[0].Value), allocBytes: val(s[1].Value), gcCPU: val(s[2].Value)}
}

func (r runtimeDelta) since(before runtimeDelta) runtimeDelta {
	return runtimeDelta{
		gcCycles:   r.gcCycles - before.gcCycles,
		allocBytes: r.allocBytes - before.allocBytes,
		gcCPU:      r.gcCPU - before.gcCPU,
	}
}

// reportRuntime adds the medians over untraced rounds of the runtime's GC
// cycles, allocation and GC share of process CPU.
func reportRuntime(rounds []roundStats, m map[string]metric) {
	var cycles, alloc, frac []float64
	for _, r := range rounds {
		cycles = append(cycles, r.rt.gcCycles)
		alloc = append(alloc, r.rt.allocBytes/(1<<20))
		if r.cpu > 0 {
			frac = append(frac, r.rt.gcCPU/r.cpu.Seconds())
		}
	}
	m["runtime.gc_cycles"] = metric{median(cycles), "count"}
	m["runtime.alloc_mb"] = metric{median(alloc), "MB"}
	m["runtime.gc_cpu_frac"] = metric{median(frac), "ratio"}
}

// reportFacts adds the modelled system's deterministic results. Workloads
// without a single device to ask (the paper suite) report 0.
func reportFacts(f simFacts, m map[string]metric) {
	c := f.counters
	if c == nil {
		c = stats.NewCounters()
	}
	get := func(name string) float64 { return float64(c.Get(name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	dramLines := get("dram_reads") + get("dram_writes")
	allLines := dramLines + get("mmio_reads") + get("mmio_writes") + get("hostcache_hits")
	m["vm.tlb_hit_ratio"] = metric{ratio(get("tlb_hits"), get("tlb_hits")+get("tlb_misses")), "ratio"}
	m["dram.hit_share"] = metric{ratio(dramLines, allLines), "ratio"}
	m["ssdcache.hit_ratio"] = metric{ratio(get("ssdcache_hits"), get("ssdcache_hits")+get("ssdcache_misses")), "ratio"}
	m["pcie.mmio_ops"] = metric{get("pcie_mmio_reads") + get("pcie_mmio_writes"), "count"}
	m["promote.promotions"] = metric{get("promotions"), "count"}
	m["ftl.gc_runs"] = metric{get("gc_runs"), "count"}
	m["ftl.gc_relocations"] = metric{get("gc_relocations"), "count"}
	m["ftl.write_amp"] = metric{ratio(get("flash_programs"), get("flash_host_writes")), "ratio"}
	m["mapcache.hit_ratio"] = metric{ratio(get("map_cache_hits"), get("map_cache_hits")+get("map_cache_misses")), "ratio"}
	m["flash.reads"] = metric{get("flash_reads"), "count"}
	m["flash.programs"] = metric{get("flash_programs"), "count"}
	m["flash.erases"] = metric{get("flash_erases"), "count"}
	m["sim.elapsed_s"] = metric{f.elapsed.Seconds(), "sim_s"}
	m["sim.p99_us"] = metric{f.p99.Micros(), "sim_us"}
}

// cpuRotationPeriod is how long the benchmark's thread stays on one CPU.
// Long enough that a migration's cache refill costs well under 1% of it.
const cpuRotationPeriod = 50 * time.Millisecond

// rotateCPUs locks the calling goroutine to its OS thread and moves that
// thread round-robin across the CPUs the process may use, one step per
// period, until stop is called. On a shared host the CPUs run at different
// speeds as other tenants load their sibling hyperthreads, and a thread the
// scheduler leaves on one CPU measures that CPU; rotating makes every timed
// phase average over the CPUs. On a 2-vCPU Xeon host it roughly halved the
// run-to-run spread of wall_s (README.md, Baseline). Where affinity cannot
// be read or set, the thread stays where it is.
func rotateCPUs() (stop func()) {
	runtime.LockOSThread()
	tid := syscall.Gettid()
	var orig cpuMask
	if orig.get(tid) != nil || len(orig.cpus()) < 2 {
		return runtime.UnlockOSThread
	}
	cpus := orig.cpus()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(cpuRotationPeriod)
		defer tick.Stop()
		for i := 0; ; i++ {
			var m cpuMask
			m.set(cpus[i%len(cpus)])
			if m.apply(tid) != nil {
				return
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		_ = orig.apply(tid) // best effort: the thread is unlocked next either way
		runtime.UnlockOSThread()
	}
}

// cpuMask is a Linux cpu_set_t for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) get(tid int) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func (m *cpuMask) apply(tid int) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func (m *cpuMask) set(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

func (m *cpuMask) cpus() []int {
	var out []int
	for i := range 64 * len(m) {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
