// Command pqd is the priority-queue daemon: it serves named native
// queues (any pq.Algorithm, optionally sharded by priority range, with
// exact CAS-reserved admission control) over the wire protocol on TCP.
//
// Usage:
//
//	pqd -addr :7070 -queues default:FunnelTree:64:4:100000
//
// Each -queues entry is name:algorithm:priorities[:shards[:capacity]];
// capacity 0 means unbounded (no admission control). Relaxed algorithms
// (multiqueue) are refused unless -relaxed is set, since their
// delete-min may return an item while better ones remain queued.
// SIGTERM or SIGINT
// drains gracefully: the listener closes, every queue sheds new
// inserts with RETRY_AFTER while delete-mins keep working, and the
// daemon exits when clients disconnect (or the drain timeout forces
// the issue).
//
// With -data-dir set, every queue keeps a write-ahead log under
// <data-dir>/<queue> and survives crashes: acked inserts are on the
// log before the ack (-fsync always), boot replays snapshot + log
// tail, and a graceful shutdown seals the log so the next boot is a
// pure snapshot load. See the README's Durability section.
//
// With -cluster-map (plus -cluster-self), the daemon joins a static
// cluster: it serves only the priority ranges the map assigns to it and
// NACKs misrouted inserts with WRONG_NODE so cluster-aware clients
// (pqclient.ClusterClient, pqload -cluster) can re-route. See the
// README's Cluster mode section.
//
// With -admin-addr set, a second listener serves the ops surface:
// Prometheus /metrics, /healthz and /readyz probes, a JSON /statusz
// snapshot, and /debug/pprof. -slow-op warn-logs slow queue ops and
// -log-format json switches the structured log stream to JSON. See
// the README's Serving observability section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pq"
	"pq/internal/server"
	"pq/internal/wal"
	"pq/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pqd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":7070", "listen address")
		queues       = fs.String("queues", "default:FunnelTree:64:4:0", "comma-separated queue specs name:alg:pris[:shards[:capacity]]")
		retryMillis  = fs.Int("retry-millis", 2, "RETRY_AFTER backoff hint (ms)")
		conc         = fs.Int("concurrency", 0, "expected contending connections (sizes funnels; 0 = GOMAXPROCS)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on SIGTERM")
		quiet        = fs.Bool("q", false, "suppress serving diagnostics")

		dataDir       = fs.String("data-dir", "", "write-ahead log directory; empty serves in-memory only")
		fsyncMode     = fs.String("fsync", "always", "WAL fsync policy: always, interval or never")
		fsyncInterval = fs.Duration("fsync-interval", 10*time.Millisecond, "flush period for -fsync interval")
		snapshotEvery = fs.Int("snapshot-every", 100000, "snapshot after this many log records (<0 disables)")

		relaxed = fs.Bool("relaxed", false, "allow relaxed algorithms (MultiQueue) in -queues: delete-min may return an item while strictly better items remain queued")

		clusterMap  = fs.String("cluster-map", "", "cluster map JSON file: this node serves only its owned priority ranges and NACKs misrouted inserts with WRONG_NODE")
		clusterSelf = fs.String("cluster-self", "", "this node's address as written in -cluster-map (required with -cluster-map)")

		adminAddr = fs.String("admin-addr", "", "admin HTTP listen address (/metrics, /healthz, /readyz, /statusz, /debug/pprof); empty disables")
		slowOp    = fs.Duration("slow-op", 0, "warn-log queue ops slower than this (0 disables)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := parseQueueSpecs(*queues)
	if err != nil {
		return err
	}
	var fsyncPolicy wal.SyncPolicy
	if *dataDir != "" {
		if fsyncPolicy, err = wal.ParseSyncPolicy(*fsyncMode); err != nil {
			return err
		}
	}

	// Structured logs go to stderr; stdout stays reserved for the
	// machine-read "pqd: listening on ..." line and the exit report.
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("bad -log-format %q: want text or json", *logFormat)
	}
	if *quiet {
		handler = slog.DiscardHandler
	}
	logger := slog.New(handler)
	srv := server.New(server.Config{
		RetryAfterMillis: *retryMillis,
		Concurrency:      *conc,
		Logger:           logger,
		SlowOp:           *slowOp,
		AllowRelaxed:     *relaxed,
		DataDir:          *dataDir,
		Fsync:            fsyncPolicy,
		FsyncInterval:    *fsyncInterval,
		SnapshotEvery:    *snapshotEvery,
	})

	// The admin endpoint comes up before queues are added, so /healthz
	// answers (and /readyz reports 503) while WAL replay is running.
	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		adminSrv = &http.Server{Handler: srv.AdminHandler()}
		go func() {
			if err := adminSrv.Serve(aln); err != nil && err != http.ErrServerClosed {
				logger.Error("admin server failed", "err", err)
			}
		}()
		fmt.Printf("pqd: admin on %s\n", aln.Addr())
	}
	for _, spec := range specs {
		if err := srv.AddQueue(spec); err != nil {
			return err
		}
		logger.Info("queue added", "queue", spec.Name, "algorithm", spec.Algorithm,
			"priorities", spec.Priorities, "shards", spec.Shards, "capacity", spec.Capacity)
		if *dataDir != "" {
			if st, ok := srv.QueueStats(spec.Name); ok && st.Durability != nil {
				logger.Info("queue durable", "queue", spec.Name, "fsync", st.Durability.FsyncPolicy,
					"recovered_items", st.Durability.RecoveredItems,
					"replayed_records", st.Durability.ReplayedRecords, "torn_tail", st.Durability.TornTail)
			}
		}
	}

	if *clusterMap != "" {
		if *clusterSelf == "" {
			return fmt.Errorf("-cluster-map requires -cluster-self")
		}
		m, err := wire.LoadClusterMap(*clusterMap)
		if err != nil {
			return err
		}
		if err := srv.SetClusterMap(m, *clusterSelf); err != nil {
			return err
		}
		logger.Info("cluster mode", "map_version", m.Version, "nodes", len(m.Nodes), "self", *clusterSelf)
	} else if *clusterSelf != "" {
		return fmt.Errorf("-cluster-self requires -cluster-map")
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	// Report the bound address once the listener is up (pqload and the
	// smoke script wait for this line).
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			fmt.Printf("pqd: listening on %s\n", a)
			break
		}
		select {
		case err := <-serveErr:
			return err
		case <-time.After(5 * time.Millisecond):
		}
	}

	select {
	case err := <-serveErr:
		if adminSrv != nil {
			adminSrv.Close()
		}
		return err
	case sig := <-sigs:
		logger.Info("draining", "signal", sig.String(), "timeout", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if adminSrv != nil {
			adminSrv.Close()
		}
		for _, spec := range specs {
			if st, ok := srv.QueueStats(spec.Name); ok {
				fmt.Printf("pqd: queue %q: inserts=%d deletes=%d shed=%d size=%d\n",
					st.Queue, st.Inserts, st.Deletes, st.RetryAfter, st.Size)
			}
		}
		<-serveErr
		if err == context.DeadlineExceeded {
			logger.Info("drain timeout: severed remaining connections")
			return nil
		}
		return err
	}
}

// parseQueueSpecs parses the -queues flag.
func parseQueueSpecs(s string) ([]server.QueueSpec, error) {
	var specs []server.QueueSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 3 || len(parts) > 5 {
			return nil, fmt.Errorf("bad queue spec %q: want name:alg:pris[:shards[:capacity]]", entry)
		}
		alg, err := pq.ParseAlgorithm(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad queue spec %q: %w", entry, err)
		}
		spec := server.QueueSpec{Name: parts[0], Algorithm: alg}
		if spec.Priorities, err = strconv.Atoi(parts[2]); err != nil || spec.Priorities < 1 {
			return nil, fmt.Errorf("bad queue spec %q: priorities %q", entry, parts[2])
		}
		if len(parts) >= 4 {
			if spec.Shards, err = strconv.Atoi(parts[3]); err != nil || spec.Shards < 0 {
				return nil, fmt.Errorf("bad queue spec %q: shards %q", entry, parts[3])
			}
		}
		if len(parts) == 5 {
			if spec.Capacity, err = strconv.ParseInt(parts[4], 10, 64); err != nil || spec.Capacity < 0 {
				return nil, fmt.Errorf("bad queue spec %q: capacity %q", entry, parts[4])
			}
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no queues configured")
	}
	return specs, nil
}
