package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparisons need.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// savedRun is one run read back from saved output: its run line and result.
type savedRun struct {
	info runInfo
	res  result
}

// readRuns reads the runs in saved benchmark output: each run line paired
// with the result line that follows it. Other lines are ignored.
func readRuns(r io.Reader) ([]savedRun, error) {
	var (
		out     []savedRun
		pending *runInfo
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rl runLine
		if json.Unmarshal(line, &rl) == nil && rl.Run.Workload != "" {
			pending = &rl.Run
			continue
		}
		var res result
		if pending != nil && json.Unmarshal(line, &res) == nil && res.Metrics != nil {
			out = append(out, savedRun{info: *pending, res: res})
			pending = nil
		}
	}
	return out, sc.Err()
}

func readRunsFile(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRuns(f)
}

// runCompare compares two files of saved runs metric by metric.
func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	force := fs.Bool("force", false, "compare even though the machine fingerprints differ")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: hostbench compare [-force] BASE.out HEAD.out")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readRunsFile(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRunsFile(fs.Arg(1))
	if err != nil {
		return err
	}
	return compareRuns(os.Stdout, spec, base, head, *force)
}

// compareRuns prints, for every workload and end-to-end metric, each side's
// median and quartiles and the verdict. The i-th untraced run of a workload
// on one side is paired with the i-th on the other. Runs from machines with
// different fingerprints are refused unless forced.
func compareRuns(w io.Writer, spec *benchSpec, base, head []savedRun, force bool) error {
	all := append(append([]savedRun{}, base...), head...)
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("compare: need runs on both sides (have %d and %d)", len(base), len(head))
	}
	ref := all[0].info.Fingerprint.machine()
	for _, r := range all[1:] {
		if fp := r.info.Fingerprint.machine(); fp != ref && !force {
			return fmt.Errorf("compare: machine fingerprints differ (%+v vs %+v); rerun both sides on one machine or pass -force", ref, fp)
		}
	}
	fmt.Fprintf(w, "base %s  head %s  machine %s, nproc=%d, GOMAXPROCS=%d, %s\n",
		revisions(base), revisions(head), ref.CPU, ref.NProc, ref.GOMAXPROCS, ref.GoVersion)
	fmt.Fprintf(w, "%-15s %-12s %-33s %-33s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "wins", "verdict")
	for _, wl := range spec.Workloads {
		b, h := untraced(base, wl.Name), untraced(head, wl.Name)
		n := min(len(b), len(h))
		if n == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, hv := values(b[:n], m.Name), values(h[:n], m.Name)
			lower := m.Better == "lower"
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			wins := 0
			for i := range n {
				if (lower && hv[i] < bv[i]) || (!lower && hv[i] > bv[i]) {
					wins++
				}
			}
			fmt.Fprintf(w, "%-15s %-12s %-33s %-33s %+7.2f%% %3d/%-2d  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", bmed, bq1, bq3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", hmed, hq1, hq3, m.Unit),
				100*relative(hmed-bmed, bmed), wins, n, verdict(bv, hv, lower, m.Bound))
		}
		bf, hf := failures(b[:n]), failures(h[:n])
		if bf+hf > 0 {
			fmt.Fprintf(w, "%-15s failed operations: base %d, head %d\n", wl.Name, bf, hf)
		}
	}
	return nil
}

func untraced(runs []savedRun, workload string) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.info.Workload == workload && r.info.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []savedRun, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.res.Metrics[name].Value
	}
	return out
}

func failures(runs []savedRun) int64 {
	var n int64
	for _, r := range runs {
		n += r.res.Failed
	}
	return n
}

func revisions(runs []savedRun) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		rev := r.info.Fingerprint.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if r.info.Fingerprint.Dirty {
			rev += "+dirty"
		}
		if !seen[rev] {
			seen[rev] = true
			out = append(out, rev)
		}
	}
	return strings.Join(out, ",")
}

// runAB builds two revisions of the simulator, each with this checkout's
// benchmark code, and runs them in interleaved pairs on every workload in
// BENCHMARK.json for its run_seconds, alternating which side goes first,
// then compares them. Pair i runs seed i, so the pairs cover every input set
// once.
func runAB(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	baseRev := fs.String("base", "HEAD~1", "base revision")
	headRev := fs.String("head", "HEAD", "head revision")
	scratch := fs.String("scratch", ".bench_build/ab", "directory for the exported revisions, binaries and raw outputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run ab from the repository root: %w", err)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(*scratch)
	if err != nil {
		return err
	}
	type side struct {
		name, rev, sha, tree, bin string
		out                       *os.File
		runs                      []savedRun
	}
	sides := []*side{{name: "base", rev: *baseRev}, {name: "head", rev: *headRev}}
	for _, s := range sides {
		sha, err := exec.Command("git", "rev-parse", "--verify", s.rev+"^{commit}").Output()
		if err != nil {
			return fmt.Errorf("resolve %s: %w", s.rev, err)
		}
		s.sha = strings.TrimSpace(string(sha))
		s.tree = filepath.Join(dir, s.name)
		s.bin = filepath.Join(dir, s.name+".bin")
		if err := exportRevision(root, s.sha, s.tree); err != nil {
			return err
		}
		if err := buildBenchmark(root, s.tree, s.bin); err != nil {
			return fmt.Errorf("build %s (%s): %w", s.name, s.rev, err)
		}
		if s.out, err = os.Create(filepath.Join(dir, s.name+".out")); err != nil {
			return err
		}
		defer s.out.Close() // error paths; the success path closes and checks below
	}
	for i := range inputSets {
		for _, w := range spec.Workloads {
			wl := w.Name
			order := sides
			if i%2 == 1 {
				order = []*side{sides[1], sides[0]}
			}
			for _, s := range order {
				out, err := runBinary(s.bin, s.tree, wl, uint64(i+1), spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", s.name, wl, i+1, err)
				}
				if _, err := s.out.Write(out); err != nil {
					return err
				}
				runs, err := readRuns(bytes.NewReader(out))
				if err != nil || len(runs) != 1 {
					return fmt.Errorf("%s %s pair %d: no result in output", s.name, wl, i+1)
				}
				runs[0].info.Fingerprint.Revision, runs[0].info.Fingerprint.Dirty = s.sha, false
				s.runs = append(s.runs, runs[0])
				fmt.Fprintf(os.Stderr, "pair %d %s %s wall_s=%.4f\n", i+1, wl, s.name, runs[0].res.Metrics["wall_s"].Value)
			}
		}
	}
	for _, s := range sides {
		if err := s.out.Close(); err != nil {
			return err
		}
	}
	return compareRuns(os.Stdout, spec, sides[0].runs, sides[1].runs, false)
}

// exportRevision writes the tree of commit sha into dir, replacing the
// benchmark directory with this checkout's, so both sides of a comparison
// run identical benchmark code.
func exportRevision(root, sha, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("sh", "-c", `git archive --format=tar "$1" | tar -x -C "$2"`, "sh", sha, dir)
	archive.Dir = root
	if out, err := archive.CombinedOutput(); err != nil {
		return fmt.Errorf("export %s: %v: %s", sha, err, out)
	}
	bench := filepath.Join(dir, "hostbench")
	if err := os.RemoveAll(bench); err != nil {
		return err
	}
	src := filepath.Join(root, "hostbench")
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(bench, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, info.Mode().Perm())
	})
}

// buildBenchmark builds the benchmark in tree into bin, sharing the build
// cache of this checkout.
func buildBenchmark(root, tree, bin string) error {
	cache := filepath.Join(root, ".bench_build")
	tmp := filepath.Join(cache, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, ".")
	cmd.Dir = filepath.Join(tree, "hostbench")
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(cache, "gocache"), "GOTMPDIR="+tmp,
		"GOPATH="+filepath.Join(cache, "gopath"), "XDG_CONFIG_HOME="+filepath.Join(cache, "config"),
		"GOTOOLCHAIN=local", "GOPROXY=off", "GOWORK=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	return nil
}

func runBinary(bin, tree, workload string, seed uint64, seconds int) ([]byte, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = tree
	cmd.Stderr = io.Discard
	return cmd.Output()
}
