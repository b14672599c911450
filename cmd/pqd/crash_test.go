//go:build !windows

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pq/pqclient"
)

// Kill -9 crash-recovery end to end: a real pqd child process takes
// loadgen traffic, is SIGKILLed mid-flight, restarts on the same data
// directory, and must hand back exactly the items it acknowledged —
// every acked insert exactly once, nothing a client already popped.
//
// kill -9 does not tear write(2)'d page-cache data (only power loss
// does), so -fsync always here checks the append-before-ack ordering
// and replay correctness rather than the physics of fsync.
//
// Deletes are quiesced before the kill: a delete whose response is lost
// in the crash is legitimately indeterminate (the item is durably gone
// but the client never heard), which would be indistinguishable from a
// lost insert. Inserts keep flowing right through the SIGKILL; ones
// that error are tracked as indeterminate and may legitimately appear
// after recovery (the record can be durable even when the ack is lost).

const helperEnv = "PQD_CRASH_HELPER"

// TestHelperProcess re-executes this test binary as the pqd daemon; it
// is inert unless the crash test sets helperEnv.
func TestHelperProcess(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		return
	}
	var args []string
	for i, a := range os.Args {
		if a == "--" {
			args = os.Args[i+1:]
			break
		}
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "pqd helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

type pqdProc struct {
	cmd  *exec.Cmd
	addr string
}

// newHelperCmd builds a helper-process pqd invocation with the given
// daemon flags.
func newHelperCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperProcess$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	return cmd
}

// startPQD launches the helper-process daemon, with any extra daemon
// flags, and waits for its listening line.
func startPQD(t *testing.T, dataDir, alg string, extra ...string) *pqdProc {
	t.Helper()
	cmd := newHelperCmd(t, append([]string{
		"-addr", "127.0.0.1:0",
		"-queues", "jobs:" + alg + ":16:2:0",
		"-data-dir", dataDir,
		"-fsync", "always",
		"-q"}, extra...)...)
	return waitListening(t, cmd)
}

// waitListening starts cmd and blocks until it reports its bound
// address on stdout.
func waitListening(t *testing.T, cmd *exec.Cmd) *pqdProc {
	t.Helper()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start pqd: %v", err)
	}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pqd: listening on "); ok {
				addrCh <- rest
				break
			}
		}
		io.Copy(io.Discard, stdout) // keep the pipe drained
	}()

	select {
	case addr := <-addrCh:
		return &pqdProc{cmd: cmd, addr: addr}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("pqd child never reported its listening address")
		return nil
	}
}

func (p *pqdProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	p.cmd.Wait() // reaps; exit status is the kill, not interesting
}

func dialPQD(t *testing.T, addr string) *pqclient.Client {
	t.Helper()
	c, err := pqclient.Dial(pqclient.Config{Addr: addr, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCrashRecoveryExactlyOnce(t *testing.T) {
	for _, alg := range []string{"FunnelTree", "SingleLock"} {
		t.Run(alg, func(t *testing.T) { crashCycles(t, alg, 2) })
	}
	// A background fold every 32 records, so the kills land around folds.
	t.Run("FunnelTreeFolding", func(t *testing.T) {
		dataDir := crashCycles(t, "FunnelTree", 2, "-snapshot-every", "32")
		if snaps, _ := filepath.Glob(filepath.Join(dataDir, "*", "snap-*.snap")); len(snaps) == 0 {
			t.Fatal("no fold wrote a snapshot")
		}
	})
}

// crashCycles runs the kill -9 cycles against a pqd started with extra
// daemon flags and returns its data directory.
func crashCycles(t *testing.T, alg string, cycles int, extra ...string) string {
	dataDir := t.TempDir()
	ctx := context.Background()

	for cycle := 0; cycle < cycles; cycle++ {
		p := startPQD(t, dataDir, alg, extra...)

		var (
			mu            sync.Mutex
			acked         = map[string]bool{}
			indeterminate = map[string]bool{}
			delivered     = map[string]bool{}
		)

		// Phase A: mixed inserts and deletes. Clients dial on the test
		// goroutine (dialPQD may t.Fatal) and are handed to the workers.
		const workers = 3
		delClient := dialPQD(t, p.addr)
		insClients := make([]*pqclient.Client, workers)
		for w := range insClients {
			insClients[w] = dialPQD(t, p.addr)
		}
		stopDeletes := make(chan struct{})
		var delWG sync.WaitGroup
		delWG.Add(1)
		go func() {
			defer delWG.Done()
			c := delClient
			defer c.Close()
			for {
				select {
				case <-stopDeletes:
					return
				default:
				}
				it, ok, err := c.DeleteMin(ctx, "jobs")
				if err != nil {
					return // crash races are handled by quiescing below
				}
				if ok {
					mu.Lock()
					delivered[string(it.Value)] = true
					mu.Unlock()
				}
			}
		}()

		stopInserts := make(chan struct{})
		var insWG sync.WaitGroup
		for w := 0; w < workers; w++ {
			insWG.Add(1)
			go func(w int) {
				defer insWG.Done()
				c := insClients[w]
				defer c.Close()
				for i := 0; ; i++ {
					select {
					case <-stopInserts:
						return
					default:
					}
					val := fmt.Sprintf("c%d-w%d-%d", cycle, w, i)
					if err := c.Insert(ctx, "jobs", (w+i)%16, []byte(val)); err != nil {
						// The ack was lost in the crash; the record may or
						// may not be durable.
						mu.Lock()
						indeterminate[val] = true
						mu.Unlock()
						return
					}
					mu.Lock()
					acked[val] = true
					mu.Unlock()
				}
			}(w)
		}

		time.Sleep(150 * time.Millisecond)
		// Phase B: quiesce deletes so none is in flight at the kill.
		close(stopDeletes)
		delWG.Wait()
		// Phase C: SIGKILL while inserts are still flowing.
		time.Sleep(50 * time.Millisecond)
		p.kill9(t)
		insWG.Wait()
		close(stopInserts)

		mu.Lock()
		if len(acked) == 0 {
			mu.Unlock()
			t.Fatal("no insert was acked before the crash; traffic phase too short")
		}
		mu.Unlock()

		// Recovery boot on the same data directory.
		p2 := startPQD(t, dataDir, alg, extra...)
		c := dialPQD(t, p2.addr)

		recovered := map[string]int{}
		for {
			items, err := c.DeleteMinBatch(ctx, "jobs", 64)
			if err != nil {
				t.Fatalf("drain after recovery: %v", err)
			}
			if len(items) == 0 {
				break
			}
			for _, it := range items {
				recovered[string(it.Value)]++
			}
		}
		c.Close()
		p2.kill9(t) // drain deletes are acked, hence durable: next cycle boots empty

		// Exactly-once: every acked-but-undelivered insert came back once;
		// nothing delivered before the crash came back; nothing outside
		// acked ∪ indeterminate exists.
		for val, n := range recovered {
			if n != 1 {
				t.Errorf("item %q recovered %d times", val, n)
			}
			if delivered[val] {
				t.Errorf("item %q was delivered before the crash and rose from the dead", val)
			}
			if !acked[val] && !indeterminate[val] {
				t.Errorf("item %q recovered but never inserted", val)
			}
		}
		for val := range acked {
			if !delivered[val] && recovered[val] != 1 {
				t.Errorf("acked item %q lost in the crash (recovered %d times)", val, recovered[val])
			}
		}
		if t.Failed() {
			t.Fatalf("cycle %d: exactly-once violated (acked=%d delivered=%d indeterminate=%d recovered=%d)",
				cycle, len(acked), len(delivered), len(indeterminate), len(recovered))
		}
		t.Logf("cycle %d: acked=%d delivered=%d indeterminate=%d recovered=%d",
			cycle, len(acked), len(delivered), len(indeterminate), len(recovered))
	}
	return dataDir
}
