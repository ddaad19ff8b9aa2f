package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"sma/internal/stats"
)

// Observer bundles the per-database observability state: the metrics
// registry with its pre-registered engine/storage/parallel families, the
// structured logger, the slow-query threshold, and the query-id
// generator. A nil *Observer is the fully disabled state; every consumer
// nil-checks before touching it.
type Observer struct {
	Reg  *Registry
	Log  *slog.Logger
	Slow time.Duration // 0 disables the slow-query log

	Engine   *EngineMetrics
	Storage  *StorageMetrics
	Parallel *ParallelMetrics

	// Stats is the workload-introspection store behind the virtual system
	// tables (sma_stat_statements and friends). Nil only when the whole
	// observer is nil; Collector methods are nil-safe regardless.
	Stats *stats.Collector

	qid atomic.Uint64
}

// Config configures NewObserver.
type Config struct {
	// Logger receives structured engine logs; nil discards them.
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold; queries at or above it
	// log at Warn with their full stats. 0 disables the slow-query log.
	SlowQuery time.Duration
}

// EngineMetrics are the query-level families, fed by the engine cursor
// lifecycle. The buckets counter uses the paper's qualify / disqualify /
// ambivalent grading terminology as its outcome label.
type EngineMetrics struct {
	Queries         *CounterVec   // sma_engine_queries_total{strategy}
	QuerySeconds    *HistogramVec // sma_engine_query_seconds{strategy}
	Execs           *CounterVec   // sma_engine_execs_total{kind}
	ExecSeconds     *HistogramVec // sma_engine_exec_seconds{kind}
	SlowExecs       *Counter      // sma_engine_slow_execs_total
	Rows            *Counter      // sma_engine_rows_total
	PagesRead       *Counter      // sma_engine_pages_read_total
	Buckets         *CounterVec   // sma_engine_buckets_total{outcome}
	AmbivalentShare *Histogram    // sma_engine_ambivalent_share
	SlowQueries     *Counter      // sma_engine_slow_queries_total
}

// StorageMetrics are the buffer-pool-level families, fed by the storage
// layer.
type StorageMetrics struct {
	ReadSeconds       *Histogram // sma_storage_read_seconds
	PrefetchOccupancy *Histogram // sma_storage_prefetch_window_occupancy
}

// ParallelMetrics are the parallel-execution families, fed per parallel
// query from its statement's worker rows.
type ParallelMetrics struct {
	PartitionSkew     *Histogram // sma_parallel_partition_skew
	WorkerUtilization *Histogram // sma_parallel_worker_utilization
}

// NewObserver builds an observer with a fresh registry and every
// engine-side metric family registered.
func NewObserver(cfg Config) *Observer {
	reg := NewRegistry()
	o := &Observer{
		Reg:  reg,
		Log:  cfg.Logger,
		Slow: cfg.SlowQuery,
		Engine: &EngineMetrics{
			Queries: reg.CounterVec("sma_engine_queries_total",
				"Queries executed, by physical plan strategy.", "strategy"),
			QuerySeconds: reg.HistogramVec("sma_engine_query_seconds",
				"Query wall time from plan to cursor close, by strategy.",
				DefSecondsBuckets(), "strategy"),
			Execs: reg.CounterVec("sma_engine_execs_total",
				"Non-SELECT statements executed, by statement kind.", "kind"),
			ExecSeconds: reg.HistogramVec("sma_engine_exec_seconds",
				"Non-SELECT statement wall time, including durability waits, by statement kind.",
				DefSecondsBuckets(), "kind"),
			SlowExecs: reg.Counter("sma_engine_slow_execs_total",
				"Non-SELECT statements at or above the slow-query threshold."),
			Rows: reg.Counter("sma_engine_rows_total",
				"Result rows streamed by query cursors."),
			PagesRead: reg.Counter("sma_engine_pages_read_total",
				"Heap pages read by query scans."),
			Buckets: reg.CounterVec("sma_engine_buckets_total",
				"Bucket grading outcomes observed by scans (the paper's qualify/disqualify/ambivalent partition).",
				"outcome"),
			AmbivalentShare: reg.Histogram("sma_engine_ambivalent_share",
				"Per-query share of graded buckets that were ambivalent (had to be scanned tuple-wise).",
				DefShareBuckets()),
			SlowQueries: reg.Counter("sma_engine_slow_queries_total",
				"Queries at or above the slow-query threshold."),
		},
		Storage: &StorageMetrics{
			ReadSeconds: reg.Histogram("sma_storage_read_seconds",
				"Physical read latency, one sample per read call: a demand page or a prefetched run of pages.",
				DefSecondsBuckets()),
			PrefetchOccupancy: reg.Histogram("sma_storage_prefetch_window_occupancy",
				"Pages in flight or unconsumed in the prefetch window, sampled per consumed page.",
				DefCountBuckets()),
		},
		Parallel: &ParallelMetrics{
			PartitionSkew: reg.Histogram("sma_parallel_partition_skew",
				"Max-over-mean heap pages read per worker of parallel aggregations (1 = perfectly balanced).",
				DefRatioBuckets()),
			WorkerUtilization: reg.Histogram("sma_parallel_worker_utilization",
				"Per-worker busy time over the wall time of the parallel stage (its merge phase).",
				DefShareBuckets()),
		},
		Stats: stats.New(),
	}
	return o
}

// Logger returns the observer's logger, or a nil-safe discard logger.
func (o *Observer) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return discardLogger
	}
	return o.Log
}

// NextQueryID mints a process-unique query id ("q1", "q2", ...). Safe on
// a nil observer.
func (o *Observer) NextQueryID() string {
	if o == nil {
		return ""
	}
	return "q" + itoa(o.qid.Add(1))
}

// itoa is a tiny strconv.FormatUint to keep the hot path allocation-lean.
func itoa(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(buf[i:])
}

// discardLogger drops every record without formatting it. slog's own
// DiscardHandler arrived in a newer Go than this module targets.
var discardLogger = slog.New(discardHandler{})

// DiscardLogger returns a logger that drops every record; serving
// layers use it as the default when no logger is configured.
func DiscardLogger() *slog.Logger { return discardLogger }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
