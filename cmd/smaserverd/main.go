// Command smaserverd serves a database directory over the SQL-over-HTTP
// wire protocol: streaming /query, /exec, /status, and Prometheus
// /metrics, with bounded admission and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	smaserverd -dir ./db                          # serve on :7421
//	smaserverd -dir ./db -addr 127.0.0.1:7421 -max-concurrency 16
//	smaserverd -dir ./db -tls-cert cert.pem -tls-key key.pem
//	smaserverd -dir ./db -log-level debug -slow-query 250ms
//	smaserverd -dir ./db -debug-addr 127.0.0.1:7422   # pprof + runtime/metrics
//	smaserverd -dir ./db -verify-on-open -scrub-every 1h -statement-deadline 30s
//
// Health: GET /livez answers 200 while the process serves; GET /readyz
// drops to 503 while draining or when the database is degraded
// (corruption detected), so load balancers stop routing before requests
// fail. -verify-on-open runs one DB.Scrub pass right after Open, so damage
// starts the server degraded instead of waiting for a query to find it;
// -scrub-every keeps a background scrubber walking the store, one run of
// pages at a time so writers are not stalled behind a pass;
// -statement-deadline bounds every statement's execution: one stopped by
// it answers 504 (or ends its stream with an in-band error) and counts in
// watchdog_cancels.
//
// Structured logs (engine query log, slow-query log, server request log)
// go to stderr as logfmt lines tagged with per-query ids. The debug
// listener is separate from the serving address so pprof and the
// runtime/metrics dump can stay on a private interface.
//
// The database directory is exclusively locked (LOCK sentinel) while the
// daemon runs: a second smaserverd — or any embedded open — on the same
// directory fails fast instead of corrupting the SMA files.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"sma"
	"sma/internal/server"
)

func main() {
	addr := flag.String("addr", ":7421", "listen address")
	dir := flag.String("dir", "", "database directory (required)")
	maxConc := flag.Int("max-concurrency", 0, "max concurrently executing statements (0 = 2×GOMAXPROCS)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "max wait for an execution slot before 503")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget; past it in-flight queries are cancelled")
	dop := flag.Int("dop", 0, "default degree of intra-query parallelism (0/1 = serial)")
	poolPages := flag.Int("pool-pages", 0, "buffer pool capacity per table in pages (0 = default 2048)")
	batch := flag.Int("batch-size", 0, "tuples-per-batch target (0 or negative = default 1024)")
	prefetch := flag.Int("prefetch", 0, "prefetch window in pages (0 = default: two batches ahead, at least 16; negative = off)")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (serve HTTPS when set with -tls-key)")
	tlsKey := flag.String("tls-key", "", "TLS key file")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
	slowQuery := flag.Duration("slow-query", 0, "slow-query log threshold; queries at or above it log at warn with their SQL (0 disables)")
	debugAddr := flag.String("debug-addr", "", "optional private listen address serving net/http/pprof and a runtime/metrics dump under /debug/")
	verifyOnOpen := flag.Bool("verify-on-open", false, "run one scrub pass (every page checksum, every SMA file) after open, before serving; corruption starts the server degraded (read-only)")
	scrubEvery := flag.Duration("scrub-every", 0, "background scrub interval; each pass re-verifies every page and SMA file (0 disables)")
	stmtDeadline := flag.Duration("statement-deadline", 0, "server bound on every statement's execution; one that exceeds it answers 504 and counts in watchdog_cancels (0 disables)")
	flag.Parse()
	if *dir == "" {
		fatal(errors.New("-dir is required"))
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		fatal(errors.New("-tls-cert and -tls-key must be set together"))
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("-log-level: %w", err))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	opts := []sma.Option{
		sma.WithLogger(logger.With("component", "engine")),
		sma.WithSlowQueryLog(*slowQuery),
	}
	if *dop > 1 {
		opts = append(opts, sma.WithParallelism(*dop))
	}
	if *poolPages > 0 {
		opts = append(opts, sma.WithPoolPages(*poolPages))
	}
	if *batch != 0 {
		opts = append(opts, sma.WithBatchSize(*batch))
	}
	if *prefetch != 0 {
		opts = append(opts, sma.WithPrefetchWindow(*prefetch))
	}
	if *scrubEvery > 0 {
		opts = append(opts, sma.WithScrubInterval(*scrubEvery))
	}
	db, err := sma.Open(*dir, opts...)
	if err != nil {
		fatal(err)
	}
	sigctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *verifyOnOpen {
		if _, err := db.Scrub(sigctx); err != nil {
			db.Close()
			fatal(err)
		}
	}
	if err := db.Degraded(); err != nil {
		fmt.Fprintf(os.Stderr, "smaserverd: WARNING: serving degraded (read-only): %v\n", err)
	}

	srv := server.New(db, server.Config{
		MaxConcurrent:     *maxConc,
		QueueTimeout:      *queueTimeout,
		StatementDeadline: *stmtDeadline,
		Logger:            logger.With("component", "server"),
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			db.Close()
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smaserverd: debug endpoints on http://%s/debug/ (pprof, runtime)\n", dln.Addr())
		go func() {
			if err := (&http.Server{Handler: debugMux()}).Serve(dln); err != nil &&
				!errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug server exited", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		fatal(err)
	}
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	fmt.Fprintf(os.Stderr, "smaserverd: serving %s on %s://%s (tables: %d)\n",
		*dir, scheme, ln.Addr(), len(db.Tables()))

	errc := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			errc <- httpSrv.ServeTLS(ln, *tlsCert, *tlsKey)
		} else {
			errc <- httpSrv.Serve(ln)
		}
	}()

	select {
	case <-sigctx.Done():
		fmt.Fprintln(os.Stderr, "smaserverd: draining...")
	case err := <-errc:
		db.Close()
		fatal(err)
	}

	// Drain order: stop admitting and wait for in-flight cursors, then
	// close listeners/connections, then close (and unlock) the database.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "smaserverd: drain incomplete, cancelled in-flight queries: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "smaserverd: http shutdown: %v\n", err)
	}
	if err := db.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "smaserverd: bye")
}

// debugMux serves the pprof endpoints and a plain-text dump of every
// scalar runtime/metrics sample. Mounted only behind -debug-addr, which
// should stay on a private interface — profiles expose the process.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/runtime", handleRuntimeMetrics)
	return mux
}

// handleRuntimeMetrics samples the runtime/metrics registry and writes
// "name value" lines for the scalar kinds (histogram-kind metrics are
// summarized by their sample count).
func handleRuntimeMetrics(w http.ResponseWriter, r *http.Request) {
	descs := rtmetrics.All()
	samples := make([]rtmetrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	rtmetrics.Read(samples)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
		case rtmetrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
		case rtmetrics.KindFloat64Histogram:
			var count uint64
			for _, c := range s.Value.Float64Histogram().Counts {
				count += c
			}
			fmt.Fprintf(w, "%s histogram count=%d\n", s.Name, count)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smaserverd:", err)
	os.Exit(1)
}
