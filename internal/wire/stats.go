package wire

// StatsVersion is the one QueueStats schema this package defines; the
// server stamps it on every STATS reply. The optional sections
// (Durability, Cluster) are absent when the feature behind them is off,
// not when the peer is older: client and server are built from this
// file.
const StatsVersion = 4

// QueueStats is the JSON document carried by a TStatsReply frame. It is
// defined here so server and client marshal/unmarshal the same shape.
//
// Counter semantics: Inserts counts admitted items, RetryAfter counts
// items shed by admission control, Deletes counts successful
// delete-mins and EmptyDeletes the delete-mins that found the queue
// (apparently) empty. Size is Inserts-Deletes — approximate while
// operations are in flight, exact at quiescence, mirroring the
// quiescent consistency of the underlying structures.
type QueueStats struct {
	Queue        string `json:"queue"`
	Algorithm    string `json:"algorithm"`
	Priorities   int    `json:"priorities"`
	Shards       int    `json:"shards"`
	Capacity     int64  `json:"capacity"` // 0 = unbounded
	Inserts      int64  `json:"inserts"`
	Deletes      int64  `json:"deletes"`
	EmptyDeletes int64  `json:"empty_deletes"`
	RetryAfter   int64  `json:"retry_after"`
	Size         int64  `json:"size"`
	Draining     bool   `json:"draining"`

	// StatsVersion is the constant StatsVersion, stamped by the server.
	StatsVersion int `json:"stats_version,omitempty"`
	// Durability is present only when the queue has a write-ahead log
	// attached.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Latency carries server-measured per-op service-time
	// distributions (nil only in ClusterClient's cross-node aggregate).
	// Server-side numbers exclude the network and client stack, so
	// comparing them with client-observed latencies separates queue
	// cost from wire cost.
	Latency *ServerLatencyStats `json:"latency,omitempty"`
	// Cluster is present only when the server runs with a cluster map;
	// it carries the full map plus this node's identity and misroute
	// count. See ClusterStats.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// Dist is a compact distribution summary derived from a server-side
// fixed-bucket histogram. Units depend on the field carrying it:
// nanoseconds for latencies, record counts for the WAL group-commit
// distribution. Quantiles are bucket-interpolated, so they carry
// power-of-two bucket resolution, not exact ranks.
type Dist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// ServerLatencyStats groups the per-op service-time distributions the
// server records around each request it handles, in nanoseconds.
// Batch-op samples time the whole batch, not per element.
type ServerLatencyStats struct {
	Insert         Dist `json:"insert"`
	InsertBatch    Dist `json:"insert_batch"`
	DeleteMin      Dist `json:"delete_min"`
	DeleteMinBatch Dist `json:"delete_min_batch"`
}

// DurabilityStats describes one queue's write-ahead log (see
// internal/wal).
type DurabilityStats struct {
	// FsyncPolicy is "always", "interval" or "never".
	FsyncPolicy string `json:"fsync_policy"`
	// LastLSN is the newest appended record; SnapshotLSN the newest
	// record covered by a snapshot. Their difference is the replay tail
	// a crash right now would cost on boot.
	LastLSN     uint64 `json:"last_lsn"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// Segments and WALBytes size the live log on disk.
	Segments int   `json:"segments"`
	WALBytes int64 `json:"wal_bytes"`
	// Appends counts log records, Fsyncs actual fsync(2) calls — their
	// ratio is the group-commit batching factor under SyncAlways.
	Appends              uint64 `json:"appends"`
	Fsyncs               uint64 `json:"fsyncs"`
	Snapshots            uint64 `json:"snapshots"`
	RecordsSinceSnapshot uint64 `json:"records_since_snapshot"`
	// RecoveredItems and ReplayedRecords describe the last boot; a boot
	// after a graceful shutdown replays zero records. TornTail reports
	// that boot found (and cleanly truncated) tail damage.
	RecoveredItems  int  `json:"recovered_items"`
	ReplayedRecords int  `json:"replayed_records"`
	TornTail        bool `json:"torn_tail,omitempty"`

	// FsyncLatency (nanoseconds per fsync) and GroupCommit (appended
	// records made durable per fsync) together say whether commit
	// latency is hardware fsync cost or queueing behind it.
	FsyncLatency *Dist `json:"fsync_latency,omitempty"`
	GroupCommit  *Dist `json:"group_commit_records,omitempty"`
}
