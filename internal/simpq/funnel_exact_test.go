package simpq

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pq/internal/sim"
)

// funnelPin renders what a funnel object's run must never change while
// its code is restructured without changing its memory accesses: the
// final cycle and event count, a digest of every result in processor
// order, and every Metrics() value. Floats print in shortest round-trip
// form, so equal text means bit-identical values.
func funnelPin(st sim.Stats, results [][]uint64, final uint64, mt Metrics) string {
	h := fnv.New64a()
	var buf [8]byte
	n := 0
	for _, rs := range results {
		for _, r := range rs {
			for i := range buf {
				buf[i] = byte(r >> (8 * i))
			}
			h.Write(buf[:])
			n++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d events=%d results=%d digest=%016x final=%d",
		st.FinalTime, st.Events, n, h.Sum64(), final)
	for _, k := range mt.Names() {
		fmt.Fprintf(&b, " %s=%v", k, mt[k])
	}
	return b.String()
}

// runFunnelPin runs program on a default machine of procs processors
// (seed 1) and fails the test on simulator errors.
func runFunnelPin(t *testing.T, procs int, setup func(m *sim.Machine), program func(p *sim.Proc)) sim.Stats {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	setup(m)
	st, err := m.Run(program)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return st
}

// TestExactResultsFunnelCounter pins FunnelCounter alone, bounded and
// unbounded, over Figure 5's decrement fractions at 32 and 256
// processors: every result each operation returned, the final cycle and
// every Metrics() value. The whole queues pin the counter only through
// their totals; this pins the counter's own protocol.
func TestExactResultsFunnelCounter(t *testing.T) {
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(counterPins), "\n") {
		name, pin, _ := strings.Cut(line, ": ")
		want[name] = pin
	}
	const ops, localWork = 10, 50
	for _, procs := range []int{32, 256} {
		for _, bounded := range []bool{false, true} {
			for dec := 0; dec <= 100; dec += 20 {
				name := fmt.Sprintf("p%d/bounded=%v/dec%d", procs, bounded, dec)
				var (
					c *FunnelCounter
					m *sim.Machine
				)
				results := make([][]uint64, procs)
				st := runFunnelPin(t, procs,
					func(mm *sim.Machine) {
						m = mm
						c = NewFunnelCounter(mm, DefaultFunnelParams(procs), bounded, 0)
						// As CounterWorkload: start high enough that a
						// decrement-heavy mix does not pin at the bound.
						mm.SetWord(c.main, uint64(procs*ops/2))
					},
					func(p *sim.Proc) {
						for i := 0; i < ops; i++ {
							p.LocalWork(localWork)
							var v uint64
							if p.Rand(100) < dec {
								v = c.BFaD(p)
							} else {
								v = c.FaI(p)
							}
							results[p.ID()] = append(results[p.ID()], v)
						}
					})
				if got := funnelPin(st, results, m.Word(c.main), c.Metrics()); got != want[name] {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
				}
			}
		}
	}
}

// TestExactResultsFunnelCounterMultiUnit pins a two-sided FunnelCounter
// under a mix of unit and multi-unit operations (FaI, BFaD, AddN, BSubN)
// at 32 processors. Multi-unit trees cannot pair off, so reversing
// trees captured across them take the incompatible-capture path and are
// applied centrally on their behalf: 139 times in this run (counted
// on an instrumented copy; no metric exposes it).
func TestExactResultsFunnelCounterMultiUnit(t *testing.T) {
	const procs, ops, hi = 32, 16, 48
	var (
		c *FunnelCounter
		m *sim.Machine
	)
	results := make([][]uint64, procs)
	st := runFunnelPin(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewFunnelCounterBounds(mm, DefaultFunnelParams(procs), 0, hi)
			mm.SetWord(c.main, hi/2)
		},
		func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				p.LocalWork(int64(p.Rand(40)))
				var v uint64
				switch n := int64(1 + p.Rand(4)); p.Rand(4) {
				case 0:
					v = c.BFaI(p)
				case 1:
					v = c.BFaD(p)
				case 2:
					v = c.AddN(p, n)
				default:
					v = c.BSubN(p, n)
				}
				results[p.ID()] = append(results[p.ID()], v)
			}
		})
	const want = "cycles=23297 events=10830 results=512 digest=43b1653d9ee98db8 final=36 central_fail=88 central_ok=194 funnel.adaption_factor_sum=22.749241139193504 funnel.attempts=1212 funnel.bypasses=3 funnel.captured=404 funnel.combines=212 funnel.eliminations=53 funnel.passes=683 funnel.records=32"
	if got := funnelPin(st, results, m.Word(c.main), c.Metrics()); got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

// TestExactResultsFunnelStack pins FunnelStack and its FIFO twin
// FunnelQueue alone under push/pop mixes at 32 and 256 processors: every
// popped value, the final cycle and every Metrics() value. Each run
// eliminates, so the elimination pairing is pinned too.
func TestExactResultsFunnelStack(t *testing.T) {
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(stackPins), "\n") {
		name, pin, _ := strings.Cut(line, ": ")
		want[name] = pin
	}
	const ops = 12
	for _, procs := range []int{32, 256} {
		for _, fifo := range []bool{false, true} {
			for _, pushPct := range []int{50, 70} {
				name := fmt.Sprintf("p%d/fifo=%v/push%d", procs, fifo, pushPct)
				var s *FunnelStack
				results := make([][]uint64, procs)
				st := runFunnelPin(t, procs,
					func(m *sim.Machine) {
						build := NewFunnelStack
						if fifo {
							build = NewFunnelQueue
						}
						s = build(m, DefaultFunnelParams(procs), procs*ops+1)
					},
					func(p *sim.Proc) {
						id := p.ID()
						for i := 0; i < ops; i++ {
							p.LocalWork(int64(p.Rand(40)))
							if p.Rand(100) < pushPct {
								s.Push(p, uint64(id)<<16|uint64(i)|1<<40)
								continue
							}
							v, ok := s.Pop(p)
							if !ok {
								v = 0
							}
							results[id] = append(results[id], v)
						}
					})
				mt := s.Metrics()
				if mt["funnel.eliminations"] == 0 {
					t.Errorf("%s: no elimination", name)
				}
				if got := funnelPin(st, results, 0, mt); got != want[name] {
					t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
				}
			}
		}
	}
}

const counterPins = `
p32/bounded=false/dec0: cycles=15247 events=6867 results=320 digest=48a2c4d8e731f5c9 final=480 central_fail=10 central_ok=54 funnel.adaption_factor_sum=25.725377371420322 funnel.attempts=798 funnel.bypasses=0 funnel.captured=266 funnel.combines=266 funnel.eliminations=0 funnel.passes=330 funnel.records=32
p32/bounded=false/dec20: cycles=15247 events=6867 results=320 digest=f7c8dc40e51d97e5 final=358 central_fail=10 central_ok=54 funnel.adaption_factor_sum=25.725377371420322 funnel.attempts=798 funnel.bypasses=0 funnel.captured=266 funnel.combines=266 funnel.eliminations=0 funnel.passes=330 funnel.records=32
p32/bounded=false/dec40: cycles=15439 events=6573 results=320 digest=b5fb70ab5d2dc927 final=232 central_fail=8 central_ok=57 funnel.adaption_factor_sum=26.251533819667973 funnel.attempts=746 funnel.bypasses=0 funnel.captured=263 funnel.combines=263 funnel.eliminations=0 funnel.passes=328 funnel.records=32
p32/bounded=false/dec60: cycles=14901 events=6565 results=320 digest=7d4a6af5030f5aa5 final=92 central_fail=7 central_ok=56 funnel.adaption_factor_sum=26.651917149960944 funnel.attempts=745 funnel.bypasses=0 funnel.captured=264 funnel.combines=264 funnel.eliminations=0 funnel.passes=327 funnel.records=32
p32/bounded=false/dec80: cycles=14901 events=6565 results=320 digest=343837d766bb6c1a final=18446744073709551560 central_fail=7 central_ok=56 funnel.adaption_factor_sum=26.651917149960944 funnel.attempts=745 funnel.bypasses=0 funnel.captured=264 funnel.combines=264 funnel.eliminations=0 funnel.passes=327 funnel.records=32
p32/bounded=false/dec100: cycles=15247 events=6867 results=320 digest=dcc6d3f30869f1b2 final=18446744073709551456 central_fail=10 central_ok=54 funnel.adaption_factor_sum=25.725377371420322 funnel.attempts=798 funnel.bypasses=0 funnel.captured=266 funnel.combines=266 funnel.eliminations=0 funnel.passes=330 funnel.records=32
p32/bounded=true/dec0: cycles=15247 events=6867 results=320 digest=48a2c4d8e731f5c9 final=480 central_fail=10 central_ok=54 funnel.adaption_factor_sum=25.725377371420322 funnel.attempts=798 funnel.bypasses=0 funnel.captured=266 funnel.combines=266 funnel.eliminations=0 funnel.passes=330 funnel.records=32
p32/bounded=true/dec20: cycles=15722 events=6068 results=320 digest=809c53d39e54da55 final=356 central_fail=12 central_ok=45 funnel.adaption_factor_sum=25.644070118057623 funnel.attempts=696 funnel.bypasses=0 funnel.captured=223 funnel.combines=173 funnel.eliminations=51 funnel.passes=332 funnel.records=32
p32/bounded=true/dec40: cycles=13200 events=5686 results=320 digest=fb7f55560df83dff final=206 central_fail=12 central_ok=31 funnel.adaption_factor_sum=25.418323479701566 funnel.attempts=660 funnel.bypasses=0 funnel.captured=199 funnel.combines=109 funnel.eliminations=90 funnel.passes=332 funnel.records=32
p32/bounded=true/dec60: cycles=11851 events=5677 results=320 digest=1ccc5450212cead7 final=64 central_fail=10 central_ok=31 funnel.adaption_factor_sum=27.13721816461876 funnel.attempts=659 funnel.bypasses=0 funnel.captured=203 funnel.combines=117 funnel.eliminations=86 funnel.passes=330 funnel.records=32
p32/bounded=true/dec80: cycles=13549 events=6057 results=320 digest=a179f4c6d6f08b1a final=1 central_fail=16 central_ok=45 funnel.adaption_factor_sum=25.05398374637041 funnel.attempts=697 funnel.bypasses=0 funnel.captured=220 funnel.combines=165 funnel.eliminations=55 funnel.passes=336 funnel.records=32
p32/bounded=true/dec100: cycles=14982 events=6733 results=320 digest=be52bfff2c67b845 final=0 central_fail=7 central_ok=56 funnel.adaption_factor_sum=25.821700417118752 funnel.attempts=773 funnel.bypasses=0 funnel.captured=264 funnel.combines=264 funnel.eliminations=0 funnel.passes=327 funnel.records=32
p256/bounded=false/dec0: cycles=27114 events=61021 results=2560 digest=35676d8832bf3cd1 final=3840 central_fail=132 central_ok=199 funnel.adaption_factor_sum=215.70199970559054 funnel.attempts=7300 funnel.bypasses=0 funnel.captured=2358 funnel.combines=2361 funnel.eliminations=0 funnel.passes=2692 funnel.records=256
p256/bounded=false/dec20: cycles=27570 events=61162 results=2560 digest=55ffa5b8989695da final=2814 central_fail=150 central_ok=224 funnel.adaption_factor_sum=212.76432619430858 funnel.attempts=7326 funnel.bypasses=0 funnel.captured=2336 funnel.combines=2336 funnel.eliminations=0 funnel.passes=2710 funnel.records=256
p256/bounded=false/dec40: cycles=28218 events=61114 results=2560 digest=0f4dabab4374eb90 final=1762 central_fail=137 central_ok=218 funnel.adaption_factor_sum=212.0436587359354 funnel.attempts=7318 funnel.bypasses=0 funnel.captured=2339 funnel.combines=2342 funnel.eliminations=0 funnel.passes=2697 funnel.records=256
p256/bounded=false/dec60: cycles=26484 events=61197 results=2560 digest=2da3ed19d1f69732 final=754 central_fail=122 central_ok=214 funnel.adaption_factor_sum=211.893245336332 funnel.attempts=7359 funnel.bypasses=0 funnel.captured=2343 funnel.combines=2346 funnel.eliminations=0 funnel.passes=2682 funnel.records=256
p256/bounded=false/dec80: cycles=28094 events=61243 results=2560 digest=7cbe7fbba2a18da2 final=18446744073709551384 central_fail=133 central_ok=216 funnel.adaption_factor_sum=209.51716984535548 funnel.attempts=7355 funnel.bypasses=0 funnel.captured=2342 funnel.combines=2344 funnel.eliminations=0 funnel.passes=2693 funnel.records=256
p256/bounded=false/dec100: cycles=27114 events=61021 results=2560 digest=21080689e0e5cb89 final=18446744073709550336 central_fail=132 central_ok=199 funnel.adaption_factor_sum=215.70199970559054 funnel.attempts=7300 funnel.bypasses=0 funnel.captured=2358 funnel.combines=2361 funnel.eliminations=0 funnel.passes=2692 funnel.records=256
p256/bounded=true/dec0: cycles=27114 events=61021 results=2560 digest=35676d8832bf3cd1 final=3840 central_fail=132 central_ok=199 funnel.adaption_factor_sum=215.70199970559054 funnel.attempts=7300 funnel.bypasses=0 funnel.captured=2358 funnel.combines=2361 funnel.eliminations=0 funnel.passes=2692 funnel.records=256
p256/bounded=true/dec20: cycles=23182 events=51802 results=2560 digest=2bcbee319b6566e2 final=2802 central_fail=107 central_ok=154 funnel.adaption_factor_sum=211.7496589080517 funnel.attempts=6124 funnel.bypasses=0 funnel.captured=1945 funnel.combines=1486 funnel.eliminations=460 funnel.passes=2667 funnel.records=256
p256/bounded=true/dec40: cycles=20586 events=46415 results=2560 digest=d57993aef2022947 final=1794 central_fail=124 central_ok=135 funnel.adaption_factor_sum=211.91381034686657 funnel.attempts=5371 funnel.bypasses=0 funnel.captured=1675 funnel.combines=929 funnel.eliminations=748 funnel.passes=2684 funnel.records=256
p256/bounded=true/dec60: cycles=19788 events=46169 results=2560 digest=a3048a8ea21facbd final=748 central_fail=123 central_ok=131 funnel.adaption_factor_sum=213.06580208845614 funnel.attempts=5349 funnel.bypasses=0 funnel.captured=1667 funnel.combines=905 funnel.eliminations=762 funnel.passes=2683 funnel.records=256
p256/bounded=true/dec80: cycles=21550 events=50634 results=2560 digest=d5aa1eb164cf2850 final=2 central_fail=95 central_ok=156 funnel.adaption_factor_sum=212.1614640749925 funnel.attempts=5937 funnel.bypasses=0 funnel.captured=1912 funnel.combines=1422 funnel.eliminations=491 funnel.passes=2655 funnel.records=256
p256/bounded=true/dec100: cycles=26456 events=60119 results=2560 digest=126120648ebe366a final=0 central_fail=91 central_ok=234 funnel.adaption_factor_sum=208.67295485859597 funnel.attempts=7178 funnel.bypasses=0 funnel.captured=2325 funnel.combines=2326 funnel.eliminations=0 funnel.passes=2651 funnel.records=256
`

const stackPins = `
p32/fifo=false/push50: cycles=19416 events=7209 results=189 digest=3be18baadaaed6a5 final=0 central_batches=50 central_lock.acquires=50 central_lock.contended=46 central_lock.hold_cycles=10066 central_lock.wait_cycles=42936 central_ops=122 dropped=0 eliminated_ops=262 failed_pops=3 funnel.adaption_factor_sum=23.97578722498249 funnel.attempts=745 funnel.bypasses=0 funnel.captured=225 funnel.combines=118 funnel.eliminations=108 funnel.passes=384 funnel.records=32 pops=189 pushes=195
p32/fifo=false/push70: cycles=25402 events=7729 results=105 digest=3f50818615cb4f0d final=0 central_batches=46 central_lock.acquires=46 central_lock.contended=37 central_lock.hold_cycles=16250 central_lock.wait_cycles=34915 central_ops=180 dropped=0 eliminated_ops=204 failed_pops=0 funnel.adaption_factor_sum=25.856120055866803 funnel.attempts=789 funnel.bypasses=0 funnel.captured=255 funnel.combines=172 funnel.eliminations=83 funnel.passes=384 funnel.records=32 pops=105 pushes=279
p32/fifo=true/push50: cycles=17606 events=7043 results=190 digest=310090aec0f7151b final=0 central_batches=39 central_lock.acquires=39 central_lock.contended=30 central_lock.hold_cycles=10134 central_lock.wait_cycles=34783 central_ops=94 dropped=0 eliminated_ops=290 failed_pops=0 funnel.adaption_factor_sum=25.20835709788907 funnel.attempts=731 funnel.bypasses=0 funnel.captured=233 funnel.combines=121 funnel.eliminations=112 funnel.passes=384 funnel.records=32 pops=190 pushes=194
p32/fifo=true/push70: cycles=30263 events=8208 results=110 digest=d929e8832881da15 final=0 central_batches=66 central_lock.acquires=66 central_lock.contended=64 central_lock.hold_cycles=21090 central_lock.wait_cycles=100015 central_ops=200 dropped=0 eliminated_ops=184 failed_pops=0 funnel.adaption_factor_sum=26.20215897355704 funnel.attempts=826 funnel.bypasses=0 funnel.captured=247 funnel.combines=176 funnel.eliminations=71 funnel.passes=384 funnel.records=32 pops=110 pushes=274
p256/fifo=false/push50: cycles=241769 events=68327 results=1516 digest=96123f147d8c6cf2 final=0 central_batches=987 central_lock.acquires=987 central_lock.contended=985 central_lock.hold_cycles=139862 central_lock.wait_cycles=2.4294961e+07 central_ops=1350 dropped=0 eliminated_ops=1722 failed_pops=37 funnel.adaption_factor_sum=151.05719580287513 funnel.attempts=6463 funnel.bypasses=21 funnel.captured=1411 funnel.combines=737 funnel.eliminations=674 funnel.passes=3072 funnel.records=256 pops=1516 pushes=1556
p256/fifo=false/push70: cycles=400081 events=81277 results=920 digest=a55ea8a4f064b4db final=0 central_batches=1586 central_lock.acquires=1586 central_lock.contended=1585 central_lock.hold_cycles=236798 central_lock.wait_cycles=5.7966697e+07 central_ops=2190 dropped=0 eliminated_ops=882 failed_pops=33 funnel.adaption_factor_sum=117.54679765579232 funnel.attempts=7115 funnel.bypasses=40 funnel.captured=1088 funnel.combines=692 funnel.eliminations=397 funnel.passes=3072 funnel.records=256 pops=920 pushes=2152
p256/fifo=true/push50: cycles=345711 events=71775 results=1521 digest=ca90be63b37aebbf final=0 central_batches=1154 central_lock.acquires=1154 central_lock.contended=1152 central_lock.hold_cycles=226812 central_lock.wait_cycles=4.1385664e+07 central_ops=1472 dropped=0 eliminated_ops=1600 failed_pops=34 funnel.adaption_factor_sum=135.2303719377806 funnel.attempts=6407 funnel.bypasses=35 funnel.captured=1286 funnel.combines=654 funnel.eliminations=632 funnel.passes=3072 funnel.records=256 pops=1521 pushes=1551
p256/fifo=true/push70: cycles=504976 events=83951 results=937 digest=22b40a472f0502e5 final=0 central_batches=1689 central_lock.acquires=1689 central_lock.contended=1688 central_lock.hold_cycles=331324 central_lock.wait_cycles=8.026199e+07 central_ops=2254 dropped=0 eliminated_ops=818 failed_pops=33 funnel.adaption_factor_sum=112.65223691017175 funnel.attempts=7005 funnel.bypasses=56 funnel.captured=1012 funnel.combines=647 funnel.eliminations=368 funnel.passes=3072 funnel.records=256 pops=937 pushes=2135
`
