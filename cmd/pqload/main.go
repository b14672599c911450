// Command pqload is a manual load tool for pqd: closed-loop (every
// worker keeps one request in flight) or open-loop (a target arrival
// rate, revealing queueing delay) insert/delete-min mixes over the
// client library, reported as text: client-side latency summaries, the
// server's own counters and service times, and durability and per-node
// lines where they apply. Measured, comparable numbers come from the
// repo benchmark (bash bench/run.sh), not from here.
//
// Usage:
//
//	pqload -addr 127.0.0.1:7070 -queue default -workers 16 -duration 5s
//	pqload -rate 50000 -mix 0.6
//
// With -drain (the default) pqload drains the queue after the timed
// run and fails unless the server's insert and delete counters agree —
// every admitted item came back out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"pq/internal/stats"
	"pq/pqclient"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pqload:", err)
		os.Exit(1)
	}
}

type options struct {
	addr       string
	cluster    string
	queue      string
	workers    int
	duration   time.Duration
	mix        float64
	rate       float64
	valueSize  int
	drain      bool
	cpuProfile string
	memProfile string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("pqload", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7070", "pqd address")
	fs.StringVar(&o.cluster, "cluster", "", "comma-separated pqd node addresses: run cluster-mode load through the routing client (overrides -addr); the map is fetched from the first reachable node")
	fs.StringVar(&o.queue, "queue", "default", "queue name")
	fs.IntVar(&o.workers, "workers", 8, "concurrent workers")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "timed run length")
	fs.Float64Var(&o.mix, "mix", 0.5, "insert fraction of the op mix (0..1)")
	fs.Float64Var(&o.rate, "rate", 0, "target ops/sec across all workers (0 = closed loop)")
	fs.IntVar(&o.valueSize, "value-size", 8, "value bytes per item (min 8; carries the item id)")
	fs.BoolVar(&o.drain, "drain", true, "drain the queue after the run and check conservation")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the load generator here")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof allocation profile here at exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workers < 1 {
		return o, fmt.Errorf("-workers must be >= 1, got %d", o.workers)
	}
	if o.duration <= 0 {
		return o, fmt.Errorf("-duration must be positive, got %v", o.duration)
	}
	if o.mix < 0 || o.mix > 1 {
		return o, fmt.Errorf("-mix must be in [0,1], got %g", o.mix)
	}
	if o.rate < 0 {
		return o, fmt.Errorf("-rate must be >= 0, got %g", o.rate)
	}
	if o.valueSize < 8 {
		return o, fmt.Errorf("-value-size must be >= 8, got %d", o.valueSize)
	}
	return o, nil
}

// qclient is the slice of the client API the load loop needs; both the
// single-node *pqclient.Client and the routing *pqclient.ClusterClient
// satisfy it.
type qclient interface {
	Insert(ctx context.Context, queue string, pri int, value []byte) error
	DeleteMin(ctx context.Context, queue string) (pqclient.Item, bool, error)
	DeleteMinBatch(ctx context.Context, queue string, max int) ([]pqclient.Item, error)
	Stats(ctx context.Context, queue string) (pqclient.QueueStats, error)
	Drain(ctx context.Context, queue string) (uint64, error)
	Close() error
}

// workerResult is one worker's tallies from the timed phase.
type workerResult struct {
	insLats []float64 // ns per acked insert
	delLats []float64 // ns per delete-min round trip
	acked   int
	deletes int
	empties int
	sheds   int
	late    int // open loop: ops begun more than lateAfter after their due time
}

func run(args []string, out *os.File) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pqload: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "pqload: -memprofile:", err)
			}
		}()
	}

	// Single-node and cluster mode share the worker loop through this
	// interface; *pqclient.Client and *pqclient.ClusterClient both
	// satisfy it.
	var (
		client  qclient
		cluster *pqclient.ClusterClient
	)
	if o.cluster != "" {
		seeds := strings.Split(o.cluster, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		cc, err := pqclient.DialCluster(pqclient.ClusterConfig{
			Seeds: seeds, BootstrapQueue: o.queue,
		})
		if err != nil {
			return err
		}
		cluster = cc
		client = cc
	} else {
		c, err := pqclient.Dial(pqclient.Config{Addr: o.addr})
		if err != nil {
			return err
		}
		client = c
	}
	defer client.Close()

	// The server knows the queue's shape; don't make the user repeat it.
	st0, err := client.Stats(context.Background(), o.queue)
	if err != nil {
		return fmt.Errorf("queue %q: %w", o.queue, err)
	}
	pris := st0.Priorities

	// Cluster mode: per-node counter baselines, so the per-node lines
	// report only this run's traffic.
	var nodeBase map[string]pqclient.QueueStats
	if cluster != nil {
		if nodeBase, err = cluster.NodeStats(context.Background(), o.queue); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	defer cancel()

	// Open loop: a pacer goroutine releases every op that is due, each
	// carrying its due time, and never drops one: an op that waits for a
	// free worker is late, and its latency runs from when it was due.
	// Closed loop when rate is 0 (tokens == nil).
	start := time.Now()
	var tokens chan time.Time
	paced := make(chan struct{})
	if o.rate > 0 {
		// The buffer lets the pacer release a burst of due ops without
		// waiting on a worker for each.
		tokens = make(chan time.Time, 1024)
		go func() {
			defer close(paced)
			pace(ctx, schedule{interval: 1e9 / o.rate}, start, wallClock{}, tokens)
		}()
	} else {
		close(paced)
	}

	results := make([]workerResult, o.workers)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[w]
			rng := rand.New(rand.NewSource(int64(w) + 1))
			value := make([]byte, o.valueSize)
			for seq := 0; ; seq++ {
				t0 := time.Now()
				if tokens != nil {
					select {
					case due, ok := <-tokens:
						if !ok {
							return
						}
						if t0.Sub(due) > lateAfter {
							r.late++
						}
						t0 = due
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				if rng.Float64() < o.mix {
					id := uint64(w)<<32 | uint64(seq)
					putID(value, id)
					err := client.Insert(ctx, o.queue, int(id*13)%pris, value)
					switch {
					case err == nil:
						r.insLats = append(r.insLats, float64(time.Since(t0).Nanoseconds()))
						r.acked++
					case errors.Is(err, pqclient.ErrOverload):
						r.sheds++
					case ctx.Err() != nil:
						return
					default:
						// A request cut off by the deadline mid-flight.
						if isDeadline(err) {
							return
						}
						fmt.Fprintf(os.Stderr, "pqload: insert: %v\n", err)
						return
					}
				} else {
					_, ok, err := client.DeleteMin(ctx, o.queue)
					if err != nil {
						if ctx.Err() != nil || isDeadline(err) {
							return
						}
						fmt.Fprintf(os.Stderr, "pqload: delete-min: %v\n", err)
						return
					}
					r.delLats = append(r.delLats, float64(time.Since(t0).Nanoseconds()))
					if ok {
						r.deletes++
					} else {
						r.empties++
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-paced

	// Merge workers.
	var total workerResult
	for i := range results {
		r := &results[i]
		total.insLats = append(total.insLats, r.insLats...)
		total.delLats = append(total.delLats, r.delLats...)
		total.acked += r.acked
		total.deletes += r.deletes
		total.empties += r.empties
		total.sheds += r.sheds
		total.late += r.late
	}
	// Per-node snapshot at the end of the timed phase (before the drain
	// inflates delete counters).
	var nodeEnd map[string]pqclient.QueueStats
	if cluster != nil {
		if nodeEnd, err = cluster.NodeStats(context.Background(), o.queue); err != nil {
			return err
		}
	}

	ops := total.acked + total.deletes + total.empties
	if ops == 0 {
		target := o.addr
		if o.cluster != "" {
			target = o.cluster
		}
		return fmt.Errorf("no operations completed — is pqd up at %s?", target)
	}

	// Drain phase: stop admission, pop until empty, then check
	// conservation server-side (valid even if other clients ran: every
	// admitted insert must come back out exactly once).
	drained := 0
	if o.drain {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		if _, err := client.Drain(dctx, o.queue); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		for {
			items, err := client.DeleteMinBatch(dctx, o.queue, 256)
			if err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if len(items) == 0 {
				break
			}
			drained += len(items)
		}
	}
	stFinal, err := client.Stats(context.Background(), o.queue)
	if err != nil {
		return err
	}

	insSum := stats.Summarize(total.insLats)
	delSum := stats.Summarize(total.delLats)
	thr := float64(ops) / elapsed.Seconds()
	target := o.addr
	if o.cluster != "" {
		target = "cluster[" + o.cluster + "]"
	}
	fmt.Fprintf(out, "pqload: %s %s: %d workers, %v\n", target, o.queue, o.workers, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  ops/sec      %12.0f  (closed-loop=%v mix=%.2f)\n", thr, o.rate == 0, o.mix)
	if o.rate > 0 {
		fmt.Fprintf(out, "  open loop    target %.0f ops/s, late %d (began more than %v after due); latencies run from the due time\n",
			o.rate, total.late, lateAfter)
	}
	fmt.Fprintf(out, "  inserts      %12d  shed %d\n", total.acked, total.sheds)
	fmt.Fprintf(out, "  deletes      %12d  empty %d  drained %d\n", total.deletes, total.empties, drained)
	fmt.Fprintf(out, "  insert ns    %s\n", insSum)
	fmt.Fprintf(out, "  delete ns    %s\n", delSum)
	fmt.Fprintf(out, "  server       inserts=%d deletes=%d shed=%d size=%d\n",
		stFinal.Inserts, stFinal.Deletes, stFinal.RetryAfter, stFinal.Size)
	if cluster != nil {
		m := cluster.Map()
		fmt.Fprintf(out, "  cluster      map v%d, %d nodes\n", m.Version, len(m.Nodes))
		for _, n := range m.Nodes {
			b, e := nodeBase[n.Addr], nodeEnd[n.Addr]
			var mis int64
			if e.Cluster != nil {
				mis = e.Cluster.Misroutes
			}
			fmt.Fprintf(out, "  node %-21s inserts=%d deletes=%d empty=%d misroutes=%d\n",
				n.Addr, e.Inserts-b.Inserts, e.Deletes-b.Deletes, e.EmptyDeletes-b.EmptyDeletes, mis)
		}
	}
	if d := stFinal.Durability; d != nil {
		fmt.Fprintf(out, "  durability   fsync=%s appends=%d fsyncs=%d wal_bytes=%d segments=%d snapshots=%d\n",
			d.FsyncPolicy, d.Appends, d.Fsyncs, d.WALBytes, d.Segments, d.Snapshots)
	}
	// Server-side latencies exclude the network and
	// client stack; the gap to the client-observed numbers above is
	// wire + scheduling cost.
	if l := stFinal.Latency; l != nil {
		fmt.Fprintf(out, "  server ns    insert p50=%.0f p99=%.0f  delete p50=%.0f p99=%.0f\n",
			l.Insert.P50, l.Insert.P99, l.DeleteMin.P50, l.DeleteMin.P99)
		if d := stFinal.Durability; d != nil && d.FsyncLatency != nil {
			fmt.Fprintf(out, "  server wal   fsync p50=%.0fns p99=%.0fns  group-commit p50=%.1f recs\n",
				d.FsyncLatency.P50, d.FsyncLatency.P99, d.GroupCommit.P50)
		}
	}

	// Clean-drain assertion: after draining, everything the server
	// admitted must have been deleted exactly once (count-level; the
	// per-item check lives in the server's e2e test).
	if o.drain {
		if stFinal.Size != 0 || stFinal.Inserts != stFinal.Deletes {
			return fmt.Errorf("unclean drain: server inserts=%d deletes=%d size=%d",
				stFinal.Inserts, stFinal.Deletes, stFinal.Size)
		}
	}
	return nil
}

func putID(b []byte, id uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (56 - 8*i))
	}
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) ||
		strings.Contains(err.Error(), "deadline")
}

// lateAfter: an open-loop op is late when it began more than this long
// after it was due; its latency then is the generator's or a saturated
// worker pool's rather than the server's.
const lateAfter = time.Millisecond

// schedule is the open loop's fixed-rate arrival schedule: op g is due
// g*interval nanoseconds after the start.
type schedule struct{ interval float64 }

func (s schedule) due(g int64) time.Duration { return time.Duration(float64(g) * s.interval) }

// dueBy is how many ops are due at or before elapsed.
func (s schedule) dueBy(elapsed time.Duration) int64 {
	if elapsed < 0 {
		return 0
	}
	return int64(float64(elapsed)/s.interval) + 1
}

// clock is the pacer's time source; tests substitute a fake.
type clock interface {
	Since(t time.Time) time.Duration
	// Sleep returns after d, or sooner once ctx is done.
	Sleep(ctx context.Context, d time.Duration)
}

type wallClock struct{}

func (wallClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (wallClock) Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// pace sends every op of s that is due, in order, each as its due time,
// and sleeps until the next is due. A full channel blocks it rather than
// dropping an op: the ops it then sends late still carry their own due
// times, so the wait counts against them. It closes tokens when ctx ends.
func pace(ctx context.Context, s schedule, start time.Time, clk clock, tokens chan<- time.Time) {
	defer close(tokens)
	for g := int64(0); ; {
		for n := s.dueBy(clk.Since(start)); g < n; g++ {
			select {
			case tokens <- start.Add(s.due(g)):
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		clk.Sleep(ctx, s.due(g)-clk.Since(start))
	}
}
