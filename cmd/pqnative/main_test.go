package main

import "testing"

func TestRunDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks the host")
	}
	if err := run([]string{"-goroutines", "1,2", "-ops", "2000", "-algs", "SimpleLinear,FunnelTree"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-goroutines", "zero"}); err == nil {
		t.Fatal("bad goroutine count accepted")
	}
	if err := run([]string{"-goroutines", "0"}); err == nil {
		t.Fatal("goroutines=0 accepted")
	}
	if err := run([]string{"-algs", "NoSuchAlgorithm", "-goroutines", "1", "-ops", "10"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-pris", "0"}); err == nil {
		t.Fatal("pris=0 accepted")
	}
	if err := run([]string{"-pris", "-3"}); err == nil {
		t.Fatal("negative pris accepted")
	}
	if err := run([]string{"-ops", "0"}); err == nil {
		t.Fatal("ops=0 accepted")
	}
}
