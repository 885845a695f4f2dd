package crashsweep

import (
	"errors"
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/fault"
	"flatflash/internal/fsim"
	"flatflash/internal/sim"
)

// resumeOps is how many extra operations each recovered run executes to prove
// the hierarchy is usable after recovery.
const resumeOps = 8

// fsimState tracks what the workload has committed, so post-crash checks know
// exactly what recovery owes them.
type fsimState struct {
	fs        *fsim.FS
	files     []int64
	committed []int64 // inodes of acknowledged CreateFile commits
	commits   int64   // fs.Ops() after the last *successful* operation
}

// step runs the i'th operation of the deterministic create/rename/append mix.
// fs.Ops() is snapshotted only on success: a commit interrupted mid-persist
// has already bumped the internal op counter but was never acknowledged.
func (st *fsimState) step(i int) error {
	switch {
	case i%4 == 3 && len(st.files) > 0:
		if err := st.fs.AppendPage(st.files[i%len(st.files)]); err != nil {
			return err
		}
	case i%3 == 2 && len(st.files) > 0:
		if err := st.fs.RenameFile(st.files[i%len(st.files)]); err != nil {
			return err
		}
	default:
		ino, err := st.fs.CreateFile()
		if err != nil {
			return err
		}
		st.files = append(st.files, ino)
		st.committed = append(st.committed, ino)
	}
	st.commits = st.fs.Ops()
	return nil
}

func openFsim(cfg Config) (*core.FlatFlash, *fsimState, error) {
	ff, err := cfg.hierarchy()
	if err != nil {
		return nil, nil, err
	}
	fs, err := fsim.Open(ff, fsim.EXT4, fsim.BytePersist, cfg.FsimOps*2+resumeOps*2+8)
	if err != nil {
		return nil, nil, err
	}
	return ff, &fsimState{fs: fs}, nil
}

// sweepFsim runs the golden (fault-free) pass to learn the workload's virtual
// time window, then replays it Points times with a power loss at each sampled
// instant. The crash run is deterministic and identical to the golden run
// right up to the crash, so every sampled time lands inside the workload.
func sweepFsim(cfg Config) ([]PointResult, error) {
	ff, st, err := openFsim(cfg)
	if err != nil {
		return nil, err
	}
	workStart := ff.Now()
	for i := 0; i < cfg.FsimOps; i++ {
		if err := st.step(i); err != nil {
			return nil, fmt.Errorf("golden run op %d: %w", i, err)
		}
	}
	workEnd := ff.Now()

	out := make([]PointResult, 0, cfg.Points)
	for i, at := range sampleTimes(workStart, workEnd, cfg.Points) {
		p, err := fsimPoint(cfg, i, at)
		if err != nil {
			return nil, fmt.Errorf("point %d (crash at %v): %w", i, at, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func fsimPoint(cfg Config, idx int, at sim.Time) (PointResult, error) {
	res := PointResult{Workload: WorkloadFsim, Index: idx, CrashAt: at}
	eng, err := fault.NewEngine(cfg.plan(at), cfg.Seed)
	if err != nil {
		return res, err
	}
	ff, st, err := openFsim(cfg)
	if err != nil {
		return res, err
	}
	ff.Attach(core.Hooks{Faults: eng, Flight: cfg.Flight})
	ff.BreakRecoveryForTesting(cfg.BreakRecovery)

	opsDone := 0
	for i := 0; i < cfg.FsimOps; i++ {
		if err := st.step(i); err != nil {
			if errors.Is(err, core.ErrCrashed) {
				res.Fired = true
				break
			}
			return res, err
		}
		opsDone++
	}
	if res.Fired {
		progs0 := ff.Counters().Get("flash_programs")
		erases0 := ff.Counters().Get("flash_erases")
		ff.Recover()

		// Committed-data durability: every acknowledged CreateFile's inode
		// must still carry its allocated bit.
		for _, ino := range st.committed {
			ok, err := readBack(ff, func() error {
				alloc, e := st.fs.InodeAllocated(ino)
				if e == nil && !alloc {
					e = errCheckFailed
				}
				return e
			})
			if err != nil {
				return res, err
			}
			if !ok {
				res.Violations = append(res.Violations,
					fmt.Sprintf("committed inode %d lost across crash", ino))
			}
		}
		// No torn cache lines: each acknowledged commit's 8-byte journal
		// header must read back exactly its op number — the header traveled
		// as a single posted MMIO cache-line write.
		for op := int64(1); op <= st.commits; op++ {
			var got uint64
			ok, err := readBack(ff, func() error {
				var e error
				got, e = st.fs.JournalHeader(op)
				if e == nil && got != uint64(op) {
					e = errCheckFailed
				}
				return e
			})
			if err != nil {
				return res, err
			}
			if !ok {
				res.Violations = append(res.Violations,
					fmt.Sprintf("journal header for op %d reads %d (torn or lost)", op, got))
			}
		}
		// Monotonic wear: recovery must never rewind lifetime counters.
		if p := ff.Counters().Get("flash_programs"); p < progs0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flash_programs went backwards across recovery: %d -> %d", progs0, p))
		}
		if e := ff.Counters().Get("flash_erases"); e < erases0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flash_erases went backwards across recovery: %d -> %d", erases0, e))
		}
		// Post-recovery usability: the workload continues on the recovered
		// hierarchy (a later ExtraPlan crash may legitimately interrupt it).
		for i := opsDone; i < opsDone+resumeOps; i++ {
			if err := st.step(i); err != nil {
				if errors.Is(err, core.ErrCrashed) {
					ff.Recover()
					break
				}
				return res, err
			}
		}
	}
	if err := ff.CheckInvariants(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("invariants: %v", err))
	}
	if v := ff.Counters().Get("recovery_invariant_violations"); v > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("recovery reported %d internal invariant violations", v))
	}
	noteMapRecovery(ff, &res)
	res.Faults = eng.Stats()
	return res, nil
}

// errCheckFailed is a sentinel readBack uses to separate "check failed"
// (a violation) from hierarchy errors (a harness failure).
var errCheckFailed = errors.New("crashsweep: check failed")

// readBack runs a validation read, transparently recovering once if an
// ExtraPlan fault crashes the hierarchy mid-check. Returns (false, nil) when
// the check itself failed, (false, err) on a real hierarchy error.
func readBack(ff *core.FlatFlash, f func() error) (bool, error) {
	err := f()
	if errors.Is(err, core.ErrCrashed) {
		ff.Recover()
		err = f()
	}
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, errCheckFailed):
		return false, nil
	default:
		return false, err
	}
}
