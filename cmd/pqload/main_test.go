package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"pq"
	"pq/internal/server"
)

func TestParseFlagsValidation(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "0"},
		{"-conns", "0"},
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
		"-addr", addr, "-workers", "4", "-conns", "2", "-duration", "500ms",
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
	st, _ := srv.QueueStats("default")
	if st.Inserts == 0 || st.Inserts != st.Deletes {
		t.Fatalf("server after the run: inserts=%d deletes=%d, want equal and non-zero", st.Inserts, st.Deletes)
	}
}
