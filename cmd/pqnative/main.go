// Command pqnative benchmarks the native (goroutine) priority queue
// implementations across goroutine counts: throughput and latency of
// the paper's mixed insert/delete-min workload on the real Go runtime.
//
// Usage:
//
//	pqnative                          # all algorithms, default sweep
//	pqnative -algs FunnelTree,SimpleLinear -goroutines 1,4,16 -pris 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pq"
	"pq/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqnative:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pqnative", flag.ContinueOnError)
	var (
		algsFlag = fs.String("algs", "", "comma-separated algorithms (default: all)")
		gsFlag   = fs.String("goroutines", "1,2,4,8,16,32", "comma-separated goroutine counts")
		pris     = fs.Int("pris", 16, "number of priorities")
		ops      = fs.Int("ops", 100_000, "operations per goroutine")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pris < 1 {
		return fmt.Errorf("-pris must be >= 1, got %d", *pris)
	}
	if *ops < 1 {
		return fmt.Errorf("-ops must be >= 1, got %d", *ops)
	}

	algs := pq.Algorithms()
	if *algsFlag != "" {
		algs = algs[:0]
		for _, s := range strings.Split(*algsFlag, ",") {
			a, err := pq.ParseAlgorithm(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			algs = append(algs, a)
		}
	}
	var gs []int
	for _, s := range strings.Split(*gsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad goroutine count %q", s)
		}
		gs = append(gs, n)
	}

	fmt.Printf("%-14s %12s %14s %10s %10s %10s\n",
		"algorithm", "goroutines", "ops/sec", "p50 ns", "p95 ns", "p99 ns")
	for _, alg := range algs {
		for _, g := range gs {
			m, err := measure(alg, g, *pris, *ops)
			if err != nil {
				return err
			}
			all := stats.Summarize(m.lats)
			fmt.Printf("%-14s %12d %14.0f %10.0f %10.0f %10.0f\n",
				alg, g, m.opsPerSec, all.P50, all.P95, all.P99)
			if m.relaxed {
				fmt.Printf("%-14s %12s rank mean %.2f  p99 %.0f  max %.0f\n",
					"", "", m.rank.Mean(), m.rank.Quantile(0.99), float64(m.rank.RankMax))
			}
		}
	}
	return nil
}

type measurement struct {
	opsPerSec float64
	lats      []float64 // every operation's latency, ns
	// rank is the rank-error distribution when relaxed is set.
	rank    pq.RelaxStats
	relaxed bool
}

func measure(alg pq.Algorithm, goroutines, pris, ops int) (measurement, error) {
	q, err := pq.New[int](alg, pris, pq.WithConcurrency(goroutines))
	if err != nil {
		return measurement{}, err
	}
	perG := make([][]float64, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []float64
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				if (i+g)%2 == 0 {
					q.Insert((i*13+g)%pris, i)
				} else {
					q.DeleteMin()
				}
				lats = append(lats, float64(time.Since(t0).Nanoseconds()))
			}
			perG[g] = lats
		}()
	}
	wg.Wait()
	m := measurement{opsPerSec: float64(goroutines*ops) / time.Since(start).Seconds()}
	m.rank, m.relaxed = pq.RelaxStatsOf(q)
	for _, lats := range perG {
		m.lats = append(m.lats, lats...)
	}
	return m, nil
}
