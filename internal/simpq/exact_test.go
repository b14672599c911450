package simpq

import (
	"fmt"
	"strings"
	"testing"

	"pq/internal/sim"
)

// exactRun renders the parts of a workload Result that must never move
// when a queue's code is restructured without changing its memory
// accesses: event count, final cycle, operation totals and the latency
// mean and p99. Floats print in shortest round-trip form, so equal text
// means bit-identical values.
func exactRun(r Result) string {
	return fmt.Sprintf("events=%d cycles=%d ins=%d del=%d failed=%d mean=%v p99=%v",
		r.Stats.Events, r.Stats.FinalTime, r.Inserts, r.Deletes, r.FailedDeletes,
		r.MeanAll, r.AllSummary.P99)
}

// The queue's own counters each bin-array and counter-tree case pins
// besides the run totals.
var (
	linearTallies = []string{"scans", "scanned_bins", "failed_scans", "batch_inserts", "batch_deletes"}
	treeTallies   = []string{"descents", "right_turns", "increments", "counter_traversals", "batch_inserts", "batch_deletes"}
)

// exactTallies renders the named counters of r.Internals, in order.
func exactTallies(r Result, keys []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", k, r.Internals[k])
	}
	return b.String()
}

// TestExactResultsBinArrayAndCounterTree pins the exact simulated outcome
// of one small seeded run of each bin-array and counter-tree queue, with
// single operations and with 16-element batches, plus FunnelTree with
// lock counters everywhere (cutoff 0) and with FIFO leaf bins. 64
// priorities make the tree six levels deep, so the default FunnelTree
// mixes funnel counters (top four levels) with lock counters (bottom
// two). Any change to the order or placement of these queues' simulated
// memory accesses shows up here, and so does any change to the queues'
// scan, descent and batch counters.
func TestExactResultsBinArrayAndCounterTree(t *testing.T) {
	const procs, npri = 16, 64
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 40
	cfg.Seed = 7
	cfg.KeepLatencies = true
	batched := cfg
	batched.Batch = 16

	custom := func(c WorkloadConfig, build func(m *sim.Machine, maxItems int) Queue) (Result, error) {
		simCfg := sim.DefaultConfig(procs)
		simCfg.Seed = c.Seed
		m, err := sim.New(simCfg)
		if err != nil {
			return Result{}, err
		}
		maxItems := procs*c.OpsPerProc*max(c.Batch, 1) + 1
		return DriveWorkload(m, build(m, maxItems), c)
	}
	cutoff0 := func(m *sim.Machine, maxItems int) Queue {
		return NewFunnelTreeCutoff(m, npri, maxItems, DefaultFunnelParams(procs), 0)
	}
	fifo := func(m *sim.Machine, maxItems int) Queue {
		return NewFunnelTreeDiscipline(m, npri, maxItems, DefaultFunnelParams(procs), DefaultFunnelCutoff, true)
	}

	// The bin-array queues pin the same batched run: a funnel stack's
	// PushN and PopN skip the funnel and run its central Bin's, the same
	// code a lock bin runs. Likewise FunnelTree at cutoff 0 and
	// SimpleTree.
	cases := []struct {
		name string
		run  func() (Result, error)
		want string
	}{
		{"SimpleLinear", func() (Result, error) { return RunWorkload(AlgSimpleLinear, procs, npri, cfg) },
			"events=22573 cycles=40332 ins=297 del=343 failed=52 mean=806.134375 p99=4408.1 scans=343 scanned_bins=13041 failed_scans=52 batch_inserts=0 batch_deletes=0"},
		{"SimpleLinear/b16", func() (Result, error) { return RunWorkload(AlgSimpleLinear, procs, npri, batched) },
			"events=94973 cycles=258626 ins=5072 del=5168 failed=416 mean=362.27890625 p99=1095.75 scans=323 scanned_bins=14053 failed_scans=6 batch_inserts=317 batch_deletes=323"},
		{"SimpleTree", func() (Result, error) { return RunWorkload(AlgSimpleTree, procs, npri, cfg) },
			"events=25388 cycles=83468 ins=297 del=343 failed=56 mean=1927.825 p99=3247.9600000000005 descents=343 right_turns=1235 increments=836 counter_traversals=2058 batch_inserts=0 batch_deletes=0"},
		{"SimpleTree/b16", func() (Result, error) { return RunWorkload(AlgSimpleTree, procs, npri, batched) },
			"events=141744 cycles=245274 ins=5072 del=5168 failed=471 mean=356.28046875 p99=585.5 descents=323 right_turns=1656 increments=15050 counter_traversals=5286 batch_inserts=317 batch_deletes=323"},
		{"LinearFunnels", func() (Result, error) { return RunWorkload(AlgLinearFunnels, procs, npri, cfg) },
			"events=38872 cycles=96580 ins=305 del=335 failed=36 mean=1952.871875 p99=9276.7 scans=335 scanned_bins=12100 failed_scans=36 batch_inserts=0 batch_deletes=0"},
		{"LinearFunnels/b16", func() (Result, error) { return RunWorkload(AlgLinearFunnels, procs, npri, batched) },
			"events=94973 cycles=258626 ins=5072 del=5168 failed=416 mean=362.27890625 p99=1095.75 scans=323 scanned_bins=14053 failed_scans=6 batch_inserts=317 batch_deletes=323"},
		{"FunnelTree", func() (Result, error) { return RunWorkload(AlgFunnelTree, procs, npri, cfg) },
			"events=49513 cycles=142326 ins=342 del=298 failed=8 mean=3076.521875 p99=5552 descents=298 right_turns=889 increments=985 counter_traversals=1788 batch_inserts=0 batch_deletes=0"},
		{"FunnelTree/b16", func() (Result, error) { return RunWorkload(AlgFunnelTree, procs, npri, batched) },
			"events=170794 cycles=309066 ins=5264 del=4976 failed=183 mean=446.56064453125 p99=1069.0625 descents=311 right_turns=1527 increments=15709 counter_traversals=5330 batch_inserts=329 batch_deletes=311"},
		{"FunnelTree/cutoff0", func() (Result, error) { return custom(cfg, cutoff0) },
			"events=35664 cycles=90108 ins=298 del=342 failed=46 mean=2087.1875 p99=3553.66 descents=342 right_turns=1219 increments=842 counter_traversals=2052 batch_inserts=0 batch_deletes=0"},
		{"FunnelTree/cutoff0/b16", func() (Result, error) { return custom(batched, cutoff0) },
			"events=141744 cycles=245274 ins=5072 del=5168 failed=471 mean=356.28046875 p99=585.5 descents=323 right_turns=1656 increments=15050 counter_traversals=5286 batch_inserts=317 batch_deletes=323"},
		{"FunnelTree/fifo", func() (Result, error) { return custom(cfg, fifo) },
			"events=51291 cycles=146146 ins=328 del=312 failed=6 mean=3182.7171875 p99=5823.43 descents=312 right_turns=933 increments=966 counter_traversals=1872 batch_inserts=0 batch_deletes=0"},
		{"FunnelTree/fifo/b16", func() (Result, error) { return custom(batched, fifo) },
			"events=177182 cycles=327233 ins=4976 del=5264 failed=315 mean=470.0736328125 p99=1070 descents=329 right_turns=1728 increments=14838 counter_traversals=5714 batch_inserts=311 batch_deletes=329"},
	}
	for _, c := range cases {
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keys := treeTallies
		if strings.Contains(c.name, "Linear") {
			keys = linearTallies
		}
		if got := exactRun(r) + " " + exactTallies(r, keys); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestCounterTraversalsCountEveryCounterOp checks that counter_traversals
// counts the counters a delete actually visits. On a full eight-leaf tree
// a DeleteMinBatch of eight visits all seven internal counters, not the
// three of one root-to-leaf descent; a DeleteMin always visits three.
func TestCounterTraversalsCountEveryCounterOp(t *testing.T) {
	for _, alg := range []Algorithm{AlgSimpleTree, AlgFunnelTree} {
		for _, batch := range []bool{false, true} {
			var q Queue
			runOnOne(t,
				func(m *sim.Machine) Queue { q = Build(alg, m, 8, 64); return q },
				func(p *sim.Proc, q Queue) {
					for pri := 0; pri < 8; pri++ {
						q.Insert(p, pri, uint64(pri))
					}
					if batch {
						if got := len(DeleteMinBatch(p, q, 8)); got != 8 {
							t.Errorf("%s: batch delivered %d items, want 8", alg, got)
						}
					} else {
						for i := 0; i < 8; i++ {
							q.DeleteMin(p)
						}
					}
					q.DeleteMin(p) // finds the tree empty: three more counters
				})
			want := float64(8*3 + 3)
			if batch {
				want = 7 + 3
			}
			if got := MetricsOf(q)["counter_traversals"]; got != want {
				t.Errorf("%s batch=%v: counter_traversals = %v, want %v", alg, batch, got, want)
			}
		}
	}
}

// TestExactResultsSojournAndChaos pins the exact outcome of the two
// drivers that record more than latency: SojournWorkload on FunnelTree
// with LIFO and with FIFO bins, and ChaosWorkload on three algorithms
// under one crash-and-stall plan with a prefill. Restructuring the
// benchmark loop must leave every number here bit-identical.
func TestExactResultsSojournAndChaos(t *testing.T) {
	const procs, npri = 16, 16
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 40
	cfg.Seed = 7
	for _, c := range []struct {
		fifo bool
		want string
	}{
		{false, "events=44791 mean=2869.5046875 sojourns=286 sojourn_mean=5811.335664335665 sojourn_p99=24431.149999999892"},
		{true, "events=43873 mean=2799.8296875 sojourns=297 sojourn_mean=7972.828282828283 sojourn_p99=47241.240000000034"},
	} {
		simCfg := sim.DefaultConfig(procs)
		simCfg.Seed = cfg.Seed
		m, err := sim.New(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		q := NewFunnelTreeDiscipline(m, npri, procs*cfg.OpsPerProc+1, DefaultFunnelParams(procs), DefaultFunnelCutoff, c.fifo)
		r, err := SojournWorkload(m, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("events=%d mean=%v sojourns=%d sojourn_mean=%v sojourn_p99=%v",
			r.Latency.Stats.Events, r.Latency.MeanAll, r.Sojourn.Count, r.Sojourn.Mean, r.Sojourn.P99)
		if got != c.want {
			t.Errorf("Sojourn fifo=%v:\n got %s\nwant %s", c.fifo, got, c.want)
		}
	}

	plan := &sim.FaultPlan{
		Stalls:  []sim.StallSpec{{Proc: sim.AllProcs, Gap: sim.Uniform(1_000, 4_000), Duration: sim.Pareto(100, 1.4)}},
		Crashes: []sim.Crash{{Proc: 3, At: 9_000}, {Proc: 10, At: 20_000}},
	}
	chaosCfg := cfg
	chaosCfg.Prefill = 24
	for _, c := range []struct {
		alg  Algorithm
		want string
	}{
		{AlgSingleLock, "digest=0xea8f69f577001b68 completed=0 pending=16 crashed=[3 10] events=819 ops=34 mean=6202.705882352941"},
		{AlgSimpleLinear, "digest=0x931cef68cada26fe completed=4 pending=12 crashed=[3 10] events=7087 ops=377 mean=1166.657824933687"},
		{AlgFunnelTree, "digest=0x77e6269467942699 completed=14 pending=2 crashed=[3 10] events=40381 ops=590 mean=3251.2847457627117"},
	} {
		simCfg := chaosSimCfg(procs)
		simCfg.Faults = plan
		r, err := ChaosWorkload(c.alg, npri, chaosCfg, simCfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("digest=%#x completed=%d pending=%d crashed=%v events=%d ops=%d mean=%v",
			r.Digest, r.Completed, len(r.Pending), r.Crashed,
			r.Latency.Stats.Events, r.Latency.Inserts+r.Latency.Deletes, r.Latency.MeanAll)
		if got != c.want {
			t.Errorf("Chaos %s:\n got %s\nwant %s", c.alg, got, c.want)
		}
	}
}

// TestExactResultsMultiQueue pins the exact simulated outcome of the
// MultiQueue at c = 2 and c = 4 on 32 processors, with single operations
// and with 16-element batches: the run's events, final cycle, mean
// latency and failed deletes, plus the queue's rank-error and contention
// counters, its tie, empty-probe and full-scan counts. Any change to the
// queue's random draws or memory accesses shows up here.
func TestExactResultsMultiQueue(t *testing.T) {
	const procs, npri = 32, 16
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 40
	cfg.Seed = 7
	batched := cfg
	batched.Batch = 16
	for _, c := range []struct {
		name string
		c    int
		cfg  WorkloadConfig
		want string
	}{
		{"c2", 2, cfg,
			"events=46890 cycles=41826 failed=17 mean=837.9109375 rank_mean=4.008025682182986 rank_max=16 picks=743 lock_retries=2762 ties=555 empty_probe_retries=22 full_scans=553"},
		{"c2/b16", 2, batched,
			"events=560138 cycles=214034 failed=592 mean=290.3875 rank_mean=148.00570962479608 rank_max=656 picks=1203 lock_retries=23495 ties=548 empty_probe_retries=38 full_scans=516"},
		{"c4", 4, cfg,
			"events=57968 cycles=44444 failed=8 mean=901.00625 rank_mean=7.1406003159557665 rank_max=26 picks=690 lock_retries=2130 ties=549 empty_probe_retries=10 full_scans=549"},
		{"c4/b16", 4, batched,
			"events=656850 cycles=217480 failed=864 mean=286.720703125 rank_mean=112.35236541598695 rank_max=517 picks=876 lock_retries=19891 ties=621 empty_probe_retries=54 full_scans=616"},
	} {
		simCfg := sim.DefaultConfig(procs)
		simCfg.Seed = c.cfg.Seed
		m, err := sim.New(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		maxItems := procs*c.cfg.OpsPerProc*max(c.cfg.Batch, 1) + 1
		r, err := DriveWorkload(m, NewMultiQueue(m, npri, maxItems, c.c), c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		in := r.Internals
		got := fmt.Sprintf("events=%d cycles=%d failed=%d mean=%v rank_mean=%v rank_max=%v picks=%v lock_retries=%v ties=%v empty_probe_retries=%v full_scans=%v",
			r.Stats.Events, r.Stats.FinalTime, r.FailedDeletes, r.MeanAll,
			in["multiqueue.rank_mean"], in["multiqueue.rank_max"],
			in["multiqueue.queue_picks"], in["multiqueue.lock_retries"],
			in["multiqueue.ties"], in["multiqueue.empty_probe_retries"], in["multiqueue.full_scans"])
		if got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestExactResultsLockHeapSkipListHunt pins the exact simulated outcome of
// the queues outside the bin-array, counter-tree and MultiQueue families:
// SingleLock with single operations and with 16-element batches (its
// array heap under one MCS lock), SkipList (its link locks and Figure-1
// bins) and HuntEtAl, plus each queue's own counters. Any change to the
// order or placement of their simulated memory accesses shows up here.
func TestExactResultsLockHeapSkipListHunt(t *testing.T) {
	const procs, npri = 16, 64
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 40
	cfg.Seed = 7
	cfg.KeepLatencies = true
	batched := cfg
	batched.Batch = 16

	lockTallies := []string{"lock.acquires", "lock.contended", "lock.wait_cycles", "lock.hold_cycles", "batch_inserts", "batch_deletes"}
	cases := []struct {
		name string
		alg  Algorithm
		cfg  WorkloadConfig
		keys []string
		want string
	}{
		{"SingleLock", AlgSingleLock, cfg, lockTallies,
			"events=13267 cycles=334932 ins=297 del=343 failed=53 mean=8192.328125 p99=13148 lock.acquires=640 lock.contended=639 lock.wait_cycles=4.922426e+06 lock.hold_cycles=269540 batch_inserts=0 batch_deletes=0"},
		{"SingleLock/b16", AlgSingleLock, batched, lockTallies,
			"events=294544 cycles=4608414 ins=5072 del=5168 failed=448 mean=7087.8333984375 p99=10279.125 lock.acquires=640 lock.contended=639 lock.wait_cycles=6.7985268e+07 lock.hold_cycles=4.543022e+06 batch_inserts=317 batch_deletes=323"},
		{"SkipList", AlgSkipList, cfg,
			[]string{"threads", "refills", "retries", "refill_waits", "bin.lock.acquires", "bin.lock.contended", "bin.lock.wait_cycles"},
			"events=59383 cycles=319892 ins=297 del=343 failed=46 mean=6725.240625 p99=43726.58000000003 threads=272 refills=272 retries=3136 refill_waits=1909 bin.lock.acquires=3736 bin.lock.contended=3142 bin.lock.wait_cycles=2.772082e+06"},
		{"HuntEtAl", AlgHuntEtAl, cfg,
			[]string{"bubble_steps", "sift_steps", "adoptions", "parent_waits", "size_lock.acquires", "size_lock.wait_cycles"},
			"events=28080 cycles=332484 ins=297 del=343 failed=54 mean=8142.43125 p99=13288.44 bubble_steps=343 sift_steps=127 adoptions=55 parent_waits=46 size_lock.acquires=640 size_lock.wait_cycles=4.261844e+06"},
	}
	for _, c := range cases {
		r, err := RunWorkload(c.alg, procs, npri, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := exactRun(r) + " " + exactTallies(r, c.keys); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
