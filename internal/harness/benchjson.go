package harness

import (
	"encoding/json"
	"fmt"

	"pq/internal/simpq"
	"pq/internal/stats"
)

// BenchSchema identifies the machine-readable benchmark format emitted
// by `pqbench -json` and `pqnative -json`. Bump the
// version on any incompatible change so downstream tooling can fail
// loudly instead of misreading fields.
const BenchSchema = "pq-bench/v1"

// Suite kinds: where a document's measurements come from. They share
// the schema so native runs join the same perf trajectory as the
// simulator's, but the validator holds each kind to the invariants it
// can actually promise. (Service measurements live in bench/.)
const (
	// SuiteSim is the deterministic simulator suite (`pqbench -json`,
	// the default when the field is absent).
	SuiteSim = "sim"
	// SuiteNative is the wall-clock host suite (`pqnative -json`).
	SuiteNative = "native"
)

// BenchFile is the top-level document: one standard-workload run per
// algorithm under a single machine configuration.
type BenchFile struct {
	Schema    string `json:"schema"`
	Suite     string `json:"suite,omitempty"`     // SuiteSim when empty
	Generated string `json:"generated,omitempty"` // RFC 3339, caller-stamped
	// Algorithms, when non-empty, names the algorithms this document was
	// restricted to (`pqbench -alg`); the validator then requires exactly
	// these instead of the full default set.
	Algorithms []string   `json:"algorithms,omitempty"`
	Procs      int        `json:"procs"`
	Priorities int        `json:"priorities"`
	Scale      float64    `json:"scale"`
	Runs       []BenchRun `json:"runs"`
}

// BenchRun is one algorithm's measurement.
type BenchRun struct {
	Algorithm string `json:"algorithm"`
	// Procs overrides the file-level Procs for this run (native suites
	// sweep goroutine counts within one document); 0 means the
	// file-level value applies.
	Procs int `json:"procs,omitempty"`
	// Batch is the operations per queue access for this run; 0 and 1
	// both mean plain single operations. Latency samples and op totals
	// count individual elements regardless of batching, so runs at
	// different batch sizes are directly comparable.
	Batch         int `json:"batch,omitempty"`
	Inserts       int `json:"inserts"`
	Deletes       int `json:"deletes"`
	FailedDeletes int `json:"failed_deletes"`
	// ThroughputOpsPerKCycle is completed operations per thousand
	// simulated cycles across the whole machine (sim suite).
	ThroughputOpsPerKCycle float64 `json:"throughput_ops_per_kcycle,omitempty"`
	// ThroughputOpsPerSec is completed operations per wall-clock
	// second (native and service suites).
	ThroughputOpsPerSec float64            `json:"throughput_ops_per_sec,omitempty"`
	Insert              BenchLatency       `json:"insert"`
	Delete              BenchLatency       `json:"delete"`
	Internals           map[string]float64 `json:"internals,omitempty"`
	Sim                 BenchSim           `json:"sim"`
}

// BenchLatency summarizes one operation kind's latency distribution, in
// cycles.
type BenchLatency struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// BenchSim carries the simulator's run totals.
type BenchSim struct {
	FinalTime   int64 `json:"final_time"`
	Events      int64 `json:"events"`
	MemOps      int64 `json:"mem_ops"`
	StallCycles int64 `json:"stall_cycles"`
	WordsUsed   int   `json:"words_used"`
}

// LatencyFromSummary converts a stats.Summary into the schema's
// latency record; pqnative and pqload use it so every suite kind
// reports identical quantile fields.
func LatencyFromSummary(s stats.Summary) BenchLatency {
	return BenchLatency{
		Count: s.Count, Mean: s.Mean,
		P50: s.P50, P90: s.P90, P95: s.P95, P99: s.P99, Max: s.Max,
	}
}

// RunBenchSuite drives the paper's standard workload for every
// algorithm at the given machine size and returns the suite document
// plus the raw per-algorithm results (for histogram rendering). The
// Generated stamp is left empty for the caller (keeps this function
// deterministic for tests).
func RunBenchSuite(procs, pris int, scale float64, progress func(string)) (*BenchFile, []simpq.Result, error) {
	return RunBenchSuiteBatch(procs, pris, scale, 0, progress)
}

// RunBenchSuiteBatch is RunBenchSuite plus a batched companion run: when
// batch > 1 every algorithm is measured twice — once with single
// operations and once with batch-sized accesses — in one document, so
// the two can be compared point-for-point.
func RunBenchSuiteBatch(procs, pris int, scale float64, batch int, progress func(string)) (*BenchFile, []simpq.Result, error) {
	return RunBenchSuiteAlgs(nil, procs, pris, scale, batch, progress)
}

// RunBenchSuiteAlgs is RunBenchSuiteBatch restricted to an explicit
// algorithm subset (`pqbench -alg`). The subset — which may include
// relaxed algorithms the default suite never touches — is recorded in
// the document's Algorithms field so the validator checks exactly what
// was requested. A nil algs runs the default strict suite.
func RunBenchSuiteAlgs(algs []simpq.Algorithm, procs, pris int, scale float64, batch int, progress func(string)) (*BenchFile, []simpq.Result, error) {
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
	cfg.KeepLatencies = true
	bf := &BenchFile{
		Schema:     BenchSchema,
		Procs:      procs,
		Priorities: pris,
		Scale:      scale,
	}
	if algs == nil {
		algs = simpq.Algorithms
	} else {
		for _, alg := range algs {
			bf.Algorithms = append(bf.Algorithms, string(alg))
		}
	}
	batches := []int{0}
	if batch > 1 {
		batches = append(batches, batch)
	}
	type point struct {
		result simpq.Result
		run    BenchRun
	}
	var s sweep[point]
	for _, b := range batches {
		runCfg := cfg
		runCfg.Batch = b
		for _, alg := range algs {
			s.label(fmt.Sprintf("bench %s procs=%d batch=%d", alg, procs, b))
			s.add(func() (point, error) {
				r, err := simpq.RunWorkload(alg, procs, pris, runCfg)
				if err != nil {
					return point{}, fmt.Errorf("bench %s: %w", alg, err)
				}
				run := BenchRun{
					Algorithm:     string(alg),
					Batch:         b,
					Inserts:       r.Inserts,
					Deletes:       r.Deletes,
					FailedDeletes: r.FailedDeletes,
					Insert:        LatencyFromSummary(r.InsertSummary),
					Delete:        LatencyFromSummary(r.DeleteSummary),
					Internals:     r.Internals,
					Sim: BenchSim{
						FinalTime:   r.Stats.FinalTime,
						Events:      r.Stats.Events,
						MemOps:      r.Stats.MemOps,
						StallCycles: r.Stats.StallCycles,
						WordsUsed:   r.Stats.WordsUsed,
					},
				}
				if r.Stats.FinalTime > 0 {
					run.ThroughputOpsPerKCycle =
						float64(r.Inserts+r.Deletes) / float64(r.Stats.FinalTime) * 1000
				}
				return point{r, run}, nil
			})
		}
	}
	points, err := s.run(progress)
	if err != nil {
		return nil, nil, err
	}
	results := make([]simpq.Result, len(points))
	for i, pt := range points {
		results[i] = pt.result
		bf.Runs = append(bf.Runs, pt.run)
	}
	return bf, results, nil
}

// Validate checks the document for structural problems: wrong schema
// or suite, missing algorithms, or runs with impossible totals. Each
// suite kind is held to the invariants it can promise: sim runs carry
// simulator totals and cover every algorithm; native runs carry
// wall-clock throughput instead.
func (bf *BenchFile) Validate() error {
	if bf.Schema != BenchSchema {
		return fmt.Errorf("schema = %q, want %q", bf.Schema, BenchSchema)
	}
	suite := bf.Suite
	if suite == "" {
		suite = SuiteSim
	}
	switch suite {
	case SuiteSim, SuiteNative:
	default:
		return fmt.Errorf("unknown suite %q", bf.Suite)
	}
	if bf.Procs < 1 || bf.Priorities < 1 {
		return fmt.Errorf("bad machine shape: procs=%d priorities=%d", bf.Procs, bf.Priorities)
	}
	seen := map[string]bool{}
	for i := range bf.Runs {
		r := &bf.Runs[i]
		key := fmt.Sprintf("%s/%d/%d", r.Algorithm, r.Procs, r.Batch)
		if seen[key] {
			return fmt.Errorf("duplicate run for %q at procs=%d batch=%d", r.Algorithm, r.Procs, r.Batch)
		}
		seen[key] = true
		if r.Inserts+r.Deletes+r.FailedDeletes <= 0 {
			return fmt.Errorf("%s: no operations recorded", r.Algorithm)
		}
		if suite != SuiteSim {
			if r.Insert.Count != r.Inserts || r.Delete.Count != r.Deletes+r.FailedDeletes {
				return fmt.Errorf("%s: latency counts (%d,%d) disagree with op counts (%d,%d+%d)",
					r.Algorithm, r.Insert.Count, r.Delete.Count, r.Inserts, r.Deletes, r.FailedDeletes)
			}
			if r.ThroughputOpsPerSec <= 0 {
				return fmt.Errorf("%s: wall-clock throughput not populated", r.Algorithm)
			}
			continue
		}
		if r.Insert.Count != r.Inserts || r.Delete.Count != r.Deletes {
			return fmt.Errorf("%s: latency counts (%d,%d) disagree with op counts (%d,%d)",
				r.Algorithm, r.Insert.Count, r.Delete.Count, r.Inserts, r.Deletes)
		}
		if r.Sim.FinalTime <= 0 || r.Sim.Events <= 0 || r.Sim.MemOps <= 0 {
			return fmt.Errorf("%s: sim totals not populated", r.Algorithm)
		}
		if r.ThroughputOpsPerKCycle <= 0 {
			return fmt.Errorf("%s: throughput not populated", r.Algorithm)
		}
		if len(r.Internals) == 0 {
			return fmt.Errorf("%s: no internals metrics", r.Algorithm)
		}
		// A relaxed sim run without its rank-error distribution is not a
		// usable measurement: the error side of the trade-off is missing.
		if simpq.IsRelaxed(simpq.Algorithm(r.Algorithm)) {
			for _, k := range []string{"multiqueue.rank_pops", "multiqueue.rank_mean", "multiqueue.rank_p99"} {
				if _, ok := r.Internals[k]; !ok {
					return fmt.Errorf("%s: relaxed run missing rank internals %q", r.Algorithm, k)
				}
			}
		}
	}
	if suite == SuiteSim {
		want := simpq.Algorithms
		if len(bf.Algorithms) > 0 {
			want = nil
			for _, name := range bf.Algorithms {
				alg, ok := simpq.ParseAlgorithm(name)
				if !ok {
					return fmt.Errorf("algorithms lists unknown %q", name)
				}
				want = append(want, alg)
			}
		}
		for _, alg := range want {
			if !seen[string(alg)+"/0/0"] {
				return fmt.Errorf("missing run for %q", alg)
			}
		}
	}
	return nil
}

// ValidateBenchJSON parses and validates raw `pqbench -json` output —
// the schema check CI runs against the smoke artifact.
func ValidateBenchJSON(data []byte) (*BenchFile, error) {
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("bench json: %w", err)
	}
	if err := bf.Validate(); err != nil {
		return nil, fmt.Errorf("bench json: %w", err)
	}
	return &bf, nil
}
