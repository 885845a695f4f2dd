package crashsweep

import (
	"errors"
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/fault"
	"flatflash/internal/sim"
	"flatflash/internal/txdb"
)

func (c Config) txdbConfig() txdb.Config {
	return txdb.Config{
		Workload:      txdb.TPCB,
		LogMode:       txdb.PerTransaction,
		Threads:       c.Threads,
		TxPerThread:   c.TxPerThread,
		DBBytes:       256 << 10,
		Seed:          c.Seed,
		FunctionalLog: true, // real CRC'd records, so RecoverCommitted works
	}
}

// sweepTxdb mirrors sweepFsim for the per-transaction-logging database:
// golden run to learn the virtual-time window, then one crash run per sampled
// instant. The checked invariant is the log-record durability contract —
// committed[w] <= recovered[w] <= committed[w]+1 for every worker (a record
// can reach the persistence domain just before its commit is acknowledged,
// never after and never lost).
func sweepTxdb(cfg Config) ([]PointResult, error) {
	ff, err := cfg.hierarchy()
	if err != nil {
		return nil, err
	}
	st, err := txdb.NewStepper(ff, cfg.txdbConfig())
	if err != nil {
		return nil, err
	}
	workStart := ff.Now()
	for seq := 0; seq < cfg.TxPerThread; seq++ {
		for w := 0; w < cfg.Threads; w++ {
			if err := st.Step(w); err != nil {
				return nil, fmt.Errorf("golden run tx %d/%d: %w", seq, w, err)
			}
		}
	}
	workEnd := ff.Now()

	out := make([]PointResult, 0, cfg.Points)
	for i, at := range sampleTimes(workStart, workEnd, cfg.Points) {
		p, err := txdbPoint(cfg, i, at)
		if err != nil {
			return nil, fmt.Errorf("point %d (crash at %v): %w", i, at, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func txdbPoint(cfg Config, idx int, at sim.Time) (PointResult, error) {
	res := PointResult{Workload: WorkloadTxdb, Index: idx, CrashAt: at}
	eng, err := fault.NewEngine(cfg.plan(at), cfg.Seed)
	if err != nil {
		return res, err
	}
	ff, err := cfg.hierarchy()
	if err != nil {
		return res, err
	}
	ff.Attach(core.Hooks{Faults: eng, Flight: cfg.Flight})
	ff.BreakRecoveryForTesting(cfg.BreakRecovery)
	st, err := txdb.NewStepper(ff, cfg.txdbConfig())
	if err != nil {
		return res, err
	}

	stepsLeft := 0
run:
	for seq := 0; seq < cfg.TxPerThread; seq++ {
		for w := 0; w < cfg.Threads; w++ {
			if err := st.Step(w); err != nil {
				if errors.Is(err, core.ErrCrashed) {
					res.Fired = true
					stepsLeft = (cfg.TxPerThread - seq) * cfg.Threads
					break run
				}
				return res, err
			}
		}
	}
	if res.Fired {
		committed := make([]uint64, cfg.Threads)
		for w := range committed {
			committed[w] = st.CommittedSeq(w)
		}
		progs0 := ff.Counters().Get("flash_programs")
		erases0 := ff.Counters().Get("flash_erases")
		ff.Recover()

		var recovered []uint64
		if _, err := readBack(ff, func() error {
			var e error
			recovered, e = st.DB().RecoverCommitted()
			return e
		}); err != nil {
			return res, err
		}
		for w := range committed {
			switch {
			case recovered[w] < committed[w]:
				res.Violations = append(res.Violations,
					fmt.Sprintf("worker %d: committed through seq %d but recovery found only %d",
						w, committed[w], recovered[w]))
			case recovered[w] > committed[w]+1:
				res.Violations = append(res.Violations,
					fmt.Sprintf("worker %d: recovery found phantom commits (%d > committed %d + 1)",
						w, recovered[w], committed[w]))
			}
		}
		if p := ff.Counters().Get("flash_programs"); p < progs0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flash_programs went backwards across recovery: %d -> %d", progs0, p))
		}
		if e := ff.Counters().Get("flash_erases"); e < erases0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flash_erases went backwards across recovery: %d -> %d", erases0, e))
		}
		// Post-recovery usability: finish the interrupted transaction stream
		// (bounded by resumeOps full rounds).
		if stepsLeft > resumeOps*cfg.Threads {
			stepsLeft = resumeOps * cfg.Threads
		}
	resume:
		for i := 0; i < stepsLeft; i += cfg.Threads {
			for w := 0; w < cfg.Threads; w++ {
				if err := st.Step(w); err != nil {
					if errors.Is(err, core.ErrCrashed) {
						ff.Recover()
						break resume
					}
					return res, err
				}
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
