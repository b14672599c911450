package harness

import (
	"fmt"

	"pq/internal/core"
	"pq/internal/simpq"
)

// SuiteRun is one algorithm's standard-workload result in the bench
// suite behind `pqbench -metrics`.
type SuiteRun struct {
	Algorithm simpq.Algorithm
	// Batch is the operations per queue access; 0 means plain single
	// operations. Latency samples and op totals count individual
	// elements regardless of batching, so runs at different batch sizes
	// are directly comparable.
	Batch int
	simpq.Result
}

// RunBenchSuite drives the paper's standard workload for each of algs
// (nil: the default strict suite, core.Algorithms) at the given machine
// size, with full latency distributions kept. When batch > 1 every
// algorithm is measured twice — once with single operations and once
// with batch-sized accesses — so the two can be compared
// point-for-point.
func RunBenchSuite(algs []simpq.Algorithm, procs, pris int, scale float64, batch int, progress func(string)) ([]SuiteRun, error) {
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
	cfg.KeepLatencies = true
	if algs == nil {
		algs = core.Algorithms
	}
	batches := []int{0}
	if batch > 1 {
		batches = append(batches, batch)
	}
	var s sweep[SuiteRun]
	for _, b := range batches {
		runCfg := cfg
		runCfg.Batch = b
		for _, alg := range algs {
			s.label(fmt.Sprintf("bench %s procs=%d batch=%d", alg, procs, b))
			s.add(func() (SuiteRun, error) {
				r, err := simpq.RunWorkload(alg, procs, pris, runCfg)
				if err != nil {
					return SuiteRun{}, fmt.Errorf("bench %s: %w", alg, err)
				}
				return SuiteRun{Algorithm: alg, Batch: b, Result: r}, nil
			})
		}
	}
	return s.run(progress)
}
