package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// layers are the simulator's layers in report order. A CPU sample belongs to
// the innermost frame on its stack that is simulator or benchmark code, so
// math.Pow under workload.zeta counts as workload; samples with no such
// frame (GC, scheduler, idle) go to runtime.
var layers = []string{
	"workload", "core", "vm", "dram", "plb", "ssdcache", "pcie", "promote",
	"ftl", "mapcache", "flash", "sim", "stats", "telemetry", "mtsim", "fleet",
	"psim", "experiments", "apps", "other", "bench", "runtime",
}

// layerOfPackage maps packages under flatflash/internal to a layer name when
// it differs from the package name.
var layerOfPackage = map[string]string{
	"trace":   "workload", // trace generation and replay
	"txdb":    "apps",
	"graph":   "apps",
	"gups":    "apps",
	"kvstore": "apps",
	"fsim":    "apps",
	"btree":   "apps",
}

// layerOf returns the layer of a stack of function names, innermost first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	return "runtime"
}

func frameLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "flatflash/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOfPackage[pkg]; ok {
			return l, true
		}
		for _, l := range layers {
			if l == pkg {
				return l, true
			}
		}
		return "other", true
	}
	// The benchmark's own code is package main in its binary and
	// flatflash/hostbench in its test binary.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "flatflash/hostbench.") {
		return "bench", true
	}
	return "", false
}

// profileFold accumulates CPU profiles of traced rounds, folded by layer.
type profileFold struct {
	buf     bytes.Buffer
	on      bool
	samples int64
	cpuNs   map[string]int64
}

func (p *profileFold) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fmt.Fprintln(os.Stderr, "cpu profile:", err)
		return
	}
	p.on = true
}

func (p *profileFold) stop() {
	if !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	if err := p.add(p.buf.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "cpu profile:", err)
	}
}

// add folds one gzipped pprof profile into the totals.
func (p *profileFold) add(gz []byte) error {
	prof, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	if p.cpuNs == nil {
		p.cpuNs = map[string]int64{}
	}
	for _, s := range prof.samples {
		var stack []string
		for _, id := range s.locations {
			stack = append(stack, prof.locations[id]...)
		}
		l := layerOf(stack)
		p.samples += s.count
		p.cpuNs[l] += s.cpuNs
	}
	return nil
}

// report adds cpu_samples and each layer's share of sampled CPU in percent.
func (p *profileFold) report(m map[string]metric) {
	var total int64
	for _, ns := range p.cpuNs {
		total += ns
	}
	m["cpu_samples"] = metric{float64(p.samples), "count"}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.cpuNs[l]) / float64(total)
		}
		m["cpu_share."+l] = metric{share, "%"}
	}
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples []sample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64
	cpuNs     int64
}

// decodeProfile decodes a gzipped profile.proto message as runtime/pprof
// writes it: samples (field 2), locations (4), functions (5) and the string
// table (6). Sample values are [samples/count, cpu/nanoseconds].
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{locations: map[uint64][]string{}}
		malformed = errors.New("profile: malformed message")
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []int64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachUint(w, v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachUint(w, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) != 2 {
				return malformed
			}
			s.count, s.cpuNs = vals[0], vals[1]
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			i := funcName[f]
			if i < 0 || i >= int64(len(strs)) {
				return nil, malformed
			}
			names = append(names, strs[i])
		}
		p.locations[id] = names
	}
	return p, nil
}

// eachField calls f for every field of a protobuf message: its number, wire
// type, and the varint value (wire type 0) or bytes (wire type 2).
func eachField(msg []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachUint decodes a repeated integer field, packed (wire type 2) or not.
func eachUint(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		f(x)
		b = b[n:]
	}
	return nil
}
