//go:build !windows

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pq/internal/wire"
	"pq/pqclient"
)

// Cluster crash-recovery end to end: three durable pqd child processes
// share a static cluster map, take cluster-client traffic (routed
// inserts, swept delete-min), one node is SIGKILLed mid-flight and
// restarted on the same data directory and address, and the
// cluster-wide drain must hand back exactly the acked-undelivered
// items. Deletes are quiesced before the kill, same as the single-node
// crash test: a delete whose ack is lost in the crash is legitimately
// indeterminate.

// grabPort reserves a loopback port by binding and releasing it; the
// returned address can be listened on again (small reuse race, fine for
// tests).
func grabPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startClusterPQD launches one helper-process daemon pinned to addr as
// cluster node self, durable under dataDir.
func startClusterPQD(t *testing.T, addr, dataDir, mapFile string) *pqdProc {
	t.Helper()
	cmd := newHelperCmd(t,
		"-addr", addr,
		"-queues", "jobs:FunnelTree:48:2:0",
		"-data-dir", dataDir,
		"-fsync", "always",
		"-cluster-map", mapFile,
		"-cluster-self", addr,
		"-q")
	return waitListening(t, cmd)
}

func TestClusterCrashRecoveryExactlyOnce(t *testing.T) {
	ctx := context.Background()
	addrs := []string{grabPort(t), grabPort(t), grabPort(t)}

	m := wire.ClusterMap{Version: 1, Priorities: 48}
	for i, a := range addrs {
		m.Nodes = append(m.Nodes, wire.ClusterNode{
			Addr:   a,
			Ranges: []wire.ClusterRange{{Lo: i * 16, Hi: (i + 1) * 16}},
		})
	}
	mapFile := filepath.Join(t.TempDir(), "cluster.json")
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mapFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dataDirs := make([]string, 3)
	procs := make([]*pqdProc, 3)
	for i := range addrs {
		dataDirs[i] = t.TempDir()
		procs[i] = startClusterPQD(t, addrs[i], dataDirs[i], mapFile)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil && p.cmd.ProcessState == nil {
				p.kill9(t)
			}
		}
	})

	dialCC := func() *pqclient.ClusterClient {
		cc, err := pqclient.DialCluster(pqclient.ClusterConfig{
			Map: &m, RequestTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}

	var (
		mu            sync.Mutex
		acked         = map[string]bool{}
		indeterminate = map[string]bool{}
		delivered     = map[string]bool{}
	)

	// Phase A: cluster-routed inserts across all three bands plus
	// concurrent deleters while every node is up.
	const insWorkers = 3
	const delWorkers = 2
	delClients := make([]*pqclient.ClusterClient, delWorkers)
	for w := range delClients {
		delClients[w] = dialCC()
	}
	stopDeletes := make(chan struct{})
	var delWG sync.WaitGroup
	for w := 0; w < delWorkers; w++ {
		delWG.Add(1)
		go func(w int) {
			defer delWG.Done()
			cc := delClients[w]
			for {
				select {
				case <-stopDeletes:
					return
				default:
				}
				it, ok, err := cc.DeleteMin(ctx, "jobs")
				if err != nil {
					return // crash races are excluded by quiescing below
				}
				if ok {
					mu.Lock()
					delivered[string(it.Value)] = true
					mu.Unlock()
				}
			}
		}(w)
	}

	insClients := make([]*pqclient.ClusterClient, insWorkers)
	for w := range insClients {
		insClients[w] = dialCC()
	}
	stopInserts := make(chan struct{})
	var insWG sync.WaitGroup
	for w := 0; w < insWorkers; w++ {
		insWG.Add(1)
		go func(w int) {
			defer insWG.Done()
			cc := insClients[w]
			defer cc.Close()
			for i := 0; ; i++ {
				select {
				case <-stopInserts:
					return
				default:
				}
				val := fmt.Sprintf("w%d-%d", w, i)
				pri := (w*7 + i) % 48
				if err := cc.Insert(ctx, "jobs", pri, []byte(val)); err != nil {
					// Ack lost in the crash (or routed at the dead node):
					// the record may or may not be durable there.
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

	time.Sleep(200 * time.Millisecond)
	// Phase B: quiesce deletes so none is in flight at the kill.
	close(stopDeletes)
	delWG.Wait()
	for _, cc := range delClients {
		cc.Close()
	}

	// Phase C: SIGKILL the middle-band node while inserts still flow.
	time.Sleep(50 * time.Millisecond)
	procs[1].kill9(t)
	insWG.Wait()
	close(stopInserts)

	mu.Lock()
	if len(acked) == 0 {
		mu.Unlock()
		t.Fatal("no insert was acked before the crash; traffic phase too short")
	}
	mu.Unlock()

	// Phase D: restart the killed node on the same data dir and address.
	procs[1] = startClusterPQD(t, addrs[1], dataDirs[1], mapFile)

	// Phase E: cluster-wide drain through a fresh cluster client.
	drainer := dialCC()
	defer drainer.Close()
	recovered := map[string]int{}
	for {
		items, err := drainer.DeleteMinBatch(ctx, "jobs", 128)
		if err != nil {
			t.Fatalf("cluster drain after recovery: %v", err)
		}
		if len(items) == 0 {
			break
		}
		for _, it := range items {
			recovered[string(it.Value)]++
		}
	}

	// Exactly-once, cluster-wide: every acked-but-undelivered insert
	// came back exactly once; nothing delivered before the crash rose
	// from the dead; nothing outside acked ∪ indeterminate exists.
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
		t.Fatalf("exactly-once violated (acked=%d delivered=%d indeterminate=%d recovered=%d)",
			len(acked), len(delivered), len(indeterminate), len(recovered))
	}
	t.Logf("acked=%d delivered=%d indeterminate=%d recovered=%d",
		len(acked), len(delivered), len(indeterminate), len(recovered))
}
