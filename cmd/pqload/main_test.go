package main

import (
	"context"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pq"
	"pq/internal/server"
)

func TestParseFlagsValidation(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "0"},
		{"-duration", "0s"},
		{"-mix", "1.5"},
		{"-mix", "-0.1"},
		{"-rate", "-5"},
		{"-value-size", "4"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
	o, err := parseFlags([]string{"-rate", "1000", "-mix", "0.7"})
	if err != nil {
		t.Fatal(err)
	}
	if o.rate != 1000 || o.mix != 0.7 || !o.drain {
		t.Fatalf("options = %+v", o)
	}
}

// TestLoadAgainstLoopbackServer runs the whole generator against an
// in-process server — timed phase, drain phase, report — and checks
// the report's lines and the clean-drain exit status.
func TestLoadAgainstLoopbackServer(t *testing.T) {
	if testing.Short() {
		t.Skip("timed load run")
	}
	srv := server.New(server.Config{})
	if err := srv.AddQueue(server.QueueSpec{
		Name: "default", Algorithm: pq.FunnelTree, Priorities: 32, Shards: 2, Capacity: 4096,
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	defer func() { srv.Close(); <-done }()
	var addr string
	for i := 0; i < 200 && addr == ""; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatal("server did not start")
	}

	report, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer report.Close()
	if err := run([]string{
		"-addr", addr, "-workers", "4", "-duration", "500ms",
	}, report); err != nil {
		t.Fatalf("run = %v, want a clean drain", err)
	}
	if _, err := report.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(report)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pqload: " + addr + " default: 4 workers",
		"ops/sec", "closed-loop=true mix=0.50",
		"inserts", "deletes", "insert ns", "delete ns",
		"server       inserts=", "size=0",
		"server ns    insert p50=",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report lacks %q:\n%s", want, data)
		}
	}

	// Open loop above the old pacer's 100k ops/s cap: the report names
	// the target and how many ops began late.
	open, err := os.CreateTemp(t.TempDir(), "open")
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if err := run([]string{
		"-addr", addr, "-workers", "4", "-duration", "300ms", "-rate", "200000",
	}, open); err != nil {
		t.Fatalf("open-loop run = %v, want a clean drain", err)
	}
	if _, err := open.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if data, err := io.ReadAll(open); err != nil {
		t.Fatal(err)
	} else if want := "open loop    target 200000 ops/s, late "; !strings.Contains(string(data), want) {
		t.Errorf("open-loop report lacks %q:\n%s", want, data)
	}
	st, _ := srv.QueueStats("default")
	if st.Inserts == 0 || st.Inserts != st.Deletes {
		t.Fatalf("server after the run: inserts=%d deletes=%d, want equal and non-zero", st.Inserts, st.Deletes)
	}
}

// fakeClock advances by step on every Sleep, whatever it was asked for,
// so the pacer sees time move without any wall-clock wait.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Duration
	step time.Duration
}

func (c *fakeClock) Since(time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(context.Context, time.Duration) {
	c.mu.Lock()
	c.now += c.step
	c.mu.Unlock()
}

// TestPacerReleasesEveryDueOp drives the open-loop pacer on a fake clock
// at rates above 100k ops/s: every op must arrive, in order, carrying its
// own due time, including while the consumer is slower than the schedule
// and the channel stays full.
func TestPacerReleasesEveryDueOp(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		chCap int
	}{{1e6, 1024}, {4e5, 1024}, {1e6, 1}} {
		s := schedule{interval: 1e9 / tc.rate}
		if got, want := s.dueBy(time.Millisecond), int64(tc.rate/1000)+1; got != want {
			t.Errorf("rate %g: dueBy(1ms) = %d, want %d", tc.rate, got, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Unix(1000, 0)
		tokens := make(chan time.Time, tc.chCap)
		go pace(ctx, s, start, &fakeClock{step: time.Millisecond}, tokens)
		const n = 5000
		for g := int64(0); g < n; g++ {
			due := <-tokens
			if want := start.Add(s.due(g)); !due.Equal(want) {
				t.Fatalf("rate %g cap %d: op %d due %v, want %v", tc.rate, tc.chCap, g, due.Sub(start), want.Sub(start))
			}
		}
		cancel()
		for range tokens {
		}
	}
}
