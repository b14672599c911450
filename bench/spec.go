package main

import "encoding/json"

// The names in this file are the benchmark's contract: BENCHMARK.json is
// generated from them (`-spec`), the tests check that every run emits
// exactly these names, and later issues cite them verbatim.

// Load shape shared by the wall-clock workloads.
const (
	queueName  = "bench"
	priorities = 64
	shards     = 4
	capacity   = 1_000_000 // admission counter runs but never sheds
	prefillN   = 10_000    // delete-min almost never finds the queue empty
	callersPer = 16        // closed-loop callers per connection
	streamLen  = 1 << 16   // ops pre-generated per caller, cycled

	// serveOpenRate is the serve_open arrival rate in ops/s, set once at
	// commissioning (see README.md, "The open-loop generator").
	serveOpenRate = 20_000
	// openWorkers is the number of goroutine callers that issue the ops
	// the open-loop pacer releases.
	openWorkers = 64

	// Fig. 7/8 operating point of the paper.
	simProcs      = 256
	simPriorities = 16
	// simOpsPerProc is the paper's default at the commissioned
	// run_seconds; other --seconds scale it.
	simOpsPerProc = 60
	// simGoldenSeed drives the golden round, whatever --seed says.
	simGoldenSeed = 1999
	// simClockGHz converts simulated cycles to the simulated time that
	// sim_fig7 reports under the *_us names: 1 cycle = 1 ns.
	simClockGHz = 1.0

	defaultSeed    = 1
	defaultSeconds = 12
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"native_mixed", "pq.New(FunnelTree,64) called by nproc goroutines, closed loop 50/50: core+funnel do all the work; the control that serving-stack changes must not move"},
	{"serve_pipelined", "in-memory server over loopback via pqclient, nproc conns x 16 closed-loop callers: throughput-bound use of wire+server+pqclient"},
	{"serve_open", "same server and client, open loop at a fixed 20000 ops/s timed from each op's due time: latency-bound use; waiting to batch shows as worse p50/p99"},
	{"serve_durable", "serve_pipelined with a WAL (fsync interval 10 ms, default snapshots): the only workload where wal does a large share"},
	{"cluster_2node", "two in-process nodes behind pqclient.DialCluster, 1 conn per node: routing and two-choice pop-two-put-back-one dominate"},
	{"sim_fig7", "simulated FunnelTree at 256 processors, 16 priorities (paper Fig. 7/8 point), golden round checked exactly: scaling claims and simulator speed"},
}

func bound(b float64) *float64 { return &b }

// endToEndSpecs: every workload reports every one of these. On sim_fig7
// the *_us latencies are FunnelTree's simulated latencies at a nominal
// 1 GHz clock; everywhere else they are caller-observed wall time.
//
// Every bound is the contract's maximum. In a calm phase of the sandbox
// the quartile spread over ten runs is 1-3 % (7 % for serve_open's p50),
// but the host takes away up to half of the VM's CPU for ten minutes at a
// time, and a single-threaded simulator round then runs up to 25 % slower;
// no narrower bound survives that (see README.md, "Repeatability").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"insert_p50_us", "us", "lower", bound(0.25)},
	{"delete_p50_us", "us", "lower", bound(0.25)},
	{"cpu_us_per_op", "us", "lower", bound(0.25)},
	{"mem_mb", "MiB", "lower", bound(0.25)},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

var perLayerSpecs = []metricSpec{
	// Demoted from the end-to-end list: failed_frac is 0 at this commit
	// and the simulated cycles do not exist outside sim_fig7, and an
	// end-to-end metric must be non-zero on every workload; the p99s
	// differed by far more than a tenth between sets of runs of one
	// commit on serve_open, where the sandbox's own stalls set them.
	lower("failed_frac", "ratio"),
	lower("sim_insert_cycles", "cycles"),
	lower("sim_delete_cycles", "cycles"),
	lower("insert_p99_us", "us"),
	lower("delete_p99_us", "us"),

	lower("core.FunnelTree.insert_ns", "ns"),
	lower("core.FunnelTree.delete_ns", "ns"),
	lower("core.FunnelTree.batch16_ns_per_item", "ns"),
	lower("core.SimpleLinear.insert_ns", "ns"),
	lower("core.SimpleLinear.delete_ns", "ns"),
	lower("core.MultiQueue.insert_ns", "ns"),
	lower("core.MultiQueue.delete_ns", "ns"),
	lower("core.MultiQueue.rank_err_mean", "items"),
	lower("core.allocs_per_op", "count"),

	lower("funnel.counter_pair_ns", "ns"),
	lower("funnel.stack_pushpop_ns", "ns"),
	higher("funnel.combined_frac", "ratio"),
	higher("funnel.eliminated_frac", "ratio"),
	lower("funnel.central_retry_frac", "ratio"),

	lower("wire.encode_insert_ns", "ns"),
	lower("wire.decode_insert_ns", "ns"),
	lower("wire.encode_items16_ns", "ns"),
	lower("wire.decode_items16_ns", "ns"),
	lower("wire.buf_cycle_ns", "ns"),
	lower("wire.allocs_per_roundtrip", "count"),

	lower("server.raw_d1_ns_per_req", "ns"),
	lower("server.raw_d16_ns_per_req", "ns"),
	lower("server.raw_d16_4k_ns_per_req", "ns"),
	lower("server.raw_batch16_ns_per_item", "ns"),
	lower("server.allocs_per_req", "count"),
	higher("server.responses_per_flush", "count"),
	higher("server.pipeline_depth_p50", "count"),
	lower("server.insert_service_p50_ns", "ns"),
	lower("server.delete_service_p50_ns", "ns"),
	lower("server.shed_frac", "ratio"),
	lower("server.empty_delete_frac", "ratio"),
	lower("server.shard_imbalance", "ratio"),

	lower("wal.append_never_ns", "ns"),
	lower("wal.append_interval_ns", "ns"),
	lower("wal.append_always_us", "us"),
	higher("wal.group_commit_appends_per_fsync", "count"),
	lower("wal.bytes_per_user_byte", "ratio"),
	higher("wal.replay_items_per_s", "1/s"),
	lower("wal.snapshot_ms_per_100k", "ms"),
	lower("wal.fsync_p99_us", "us"),
	higher("wal.appends_per_fsync", "count"),
	lower("wal.snapshots", "count"),

	lower("pqclient.stub_d1_ns_per_op", "ns"),
	lower("pqclient.stub_d16_ns_per_op", "ns"),
	lower("pqclient.allocs_per_insert", "count"),
	lower("pqclient.allocs_per_delete", "count"),
	higher("pqclient.items_per_insert_frame", "count"),

	lower("cluster.frames_per_insert", "count"),
	lower("cluster.frames_per_delete", "count"),
	lower("cluster.putback_frac", "ratio"),
	lower("cluster.stash_max", "count"),
	lower("cluster.node_share_max", "ratio"),
	lower("cluster.rank_err_mean", "items"),

	lower("sim.events", "count"),
	lower("sim.simulated_cycles", "cycles"),
	lower("sim.host_ns_per_event", "ns"),
	lower("simpq.FunnelTree.p99_cycles", "cycles"),
	lower("simpq.SimpleLinear.mean_cycles", "cycles"),
	lower("simpq.MultiQueue.mean_cycles", "cycles"),
	higher("simpq.FunnelTree.combine_frac", "ratio"),
	higher("simpq.FunnelTree.elim_frac", "ratio"),

	lower("obs.counter_add_ns", "ns"),
	lower("obs.hist_observe_ns", "ns"),

	lower("loadgen.late_frac", "ratio"),
	lower("loadgen.late_p99_us", "us"),
	lower("loadgen.backlog_max", "count"),
	higher("loadgen.achieved_rate_frac", "ratio"),

	lower("proc.allocs_per_op", "count"),
	lower("proc.gc_cycles", "count"),
	lower("proc.gc_pause_ms", "ms"),

	lower("ladder.core_ns", "ns"),
	lower("ladder.wire_ns", "ns"),
	lower("ladder.server_ns", "ns"),
	lower("ladder.pqclient_ns", "ns"),
	lower("ladder.wal_ns", "ns"),
	lower("ladder.cluster_ns", "ns"),
	lower("ladder.total_ns", "ns"),
	lower("trace.overhead_frac", "ratio"),
	higher("trace.spans", "count"),
}

// benchmarkFile is the shape of the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkJSON() []byte {
	b, err := json.MarshalIndent(benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}, "", "  ")
	if err != nil {
		panic(err) // the spec tables hold only strings and numbers
	}
	return append(b, '\n')
}

func isEndToEnd(name string) bool {
	for _, m := range endToEndSpecs {
		if m.Name == name {
			return true
		}
	}
	return false
}

func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs} {
		for _, m := range specs {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
