package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the machine and code a result was measured on.
// Results are comparable only when their machine part matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Revision   string `json:"revision"` // "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`
}

func takeFingerprint() fingerprint {
	rev, dirty := gitRevision()
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   rev,
		Dirty:      dirty,
	}
}

// machine returns the part of f that must match for two results to be
// compared: everything but the code revision.
func (f fingerprint) machine() fingerprint {
	f.Revision, f.Dirty = "", false
	return f
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRevision returns the commit checked out in the working directory and
// whether the tree differs from it, when the working directory is the top of
// a git checkout.
func gitRevision() (string, bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil || !sameDir(strings.TrimSpace(string(top)), wd) {
		return "unknown", false
	}
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(rev)), err != nil || len(status) > 0
}

func sameDir(a, b string) bool {
	ra, err1 := filepath.EvalSymlinks(a)
	rb, err2 := filepath.EvalSymlinks(b)
	return err1 == nil && err2 == nil && ra == rb
}
