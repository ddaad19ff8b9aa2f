package main

import (
	"math"
	"time"
)

// spanSet answers questions about the recorded spans by name. Where the
// workload's own (native) statements produced spans of a name, only those
// count; otherwise the probes' spans stand in, so a layer's unit cost is
// known on every workload.
type spanSet struct {
	byName   map[string][]*span
	children map[int][]*span
	self     map[int]time.Duration
}

func newSpanSet(spans []*span) *spanSet {
	ss := &spanSet{byName: map[string][]*span{}, children: map[int][]*span{}, self: selfTimes(spans)}
	for _, s := range spans {
		ss.byName[s.Name] = append(ss.byName[s.Name], s)
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// pick returns the native spans of a name that satisfy keep (nil: all), or
// every such span when none is native.
func (ss *spanSet) pick(name string, keep func(*span) bool) []*span {
	var native, all []*span
	for _, s := range ss.byName[name] {
		if keep != nil && !keep(s) {
			continue
		}
		all = append(all, s)
		if s.Counts["native"] > 0 {
			native = append(native, s)
		}
	}
	if len(native) > 0 {
		return native
	}
	return all
}

func has(key string) func(*span) bool { return func(s *span) bool { return s.Counts[key] > 0 } }

func sumDur(spans []*span) (ns float64) {
	for _, s := range spans {
		ns += float64(s.End - s.Start)
	}
	return ns
}

func sumCount(spans []*span, key string) (v float64) {
	for _, s := range spans {
		v += s.Counts[key]
	}
	return v
}

func (ss *spanSet) sumSelf(spans []*span) (ns float64) {
	for _, s := range spans {
		ns += float64(ss.self[s.ID])
	}
	return ns
}

// medianDur and medianSelf are in nanoseconds.
func medianDur(spans []*span) float64 {
	v := make([]float64, len(spans))
	for i, s := range spans {
		v[i] = float64(s.End - s.Start)
	}
	return median(v)
}

func (ss *spanSet) medianSelf(spans []*span) float64 {
	v := make([]float64, len(spans))
	for i, s := range spans {
		v[i] = float64(ss.self[s.ID])
	}
	return median(v)
}

// replayedUnder sums the durations of a statement root's direct children.
// Partitions of a parallel statement run side by side in the engine, so of
// them only the slowest is on the statement's blocking path.
func (ss *spanSet) replayedUnder(root *span) float64 {
	var sum, slowest float64
	for _, c := range ss.children[root.ID] {
		d := float64(c.End - c.Start)
		if c.Counts["partition"] > 0 {
			slowest = math.Max(slowest, d)
			continue
		}
		sum += d
	}
	return sum + slowest
}

// derive turns the recorded spans and counters into the per-layer metrics.
func (w *walk) derive() {
	ss := newSpanSet(w.tr.spans)
	set := w.res.set
	us, ms := 1e3, 1e6
	perUnit := func(name, key string, keep func(*span) bool) float64 {
		spans := ss.pick(name, keep)
		return ratio(sumDur(spans), sumCount(spans, key))
	}

	set("parser.parse_us", medianDur(ss.pick("parser.parse", nil))/us, "us")
	set("parser.fingerprint_us", medianDur(ss.pick("parser.fingerprint", nil))/us, "us")
	set("parser.allocs_per_stmt", ratio(w.allocs.parse, w.allocs.parsed), "count")
	set("planner.plan_self_us", ss.medianSelf(ss.pick("planner.plan", nil))/us, "us")
	match := 1.0 // a workload without reads has nothing to mis-plan
	if w.match[1] > 0 {
		match = float64(w.match[0]) / float64(w.match[1])
	}
	set("planner.strategy_match", match, "fraction")
	set("core.grade_ns_per_bucket", perUnit("core.grade", "buckets", nil), "ns")
	graded := ss.pick("engine.query", has("buckets"))
	set("core.pruned_frac", ratio(sumCount(graded, "disqualified"), sumCount(graded, "buckets")), "fraction")
	set("core.ambivalent_frac", ratio(sumCount(graded, "ambivalent"), sumCount(graded, "buckets")), "fraction")
	set("core.on_append_ns_per_row", perUnit("core.on_append", "rows", nil), "ns")
	set("core.build_s", sumDur(ss.byName["core.build"])/1e9, "s")

	set("storage.disk_read_us_per_page", perUnit("storage.disk_read", "pages", nil)/us, "us")
	set("storage.verify_ns_per_page", perUnit("storage.verify", "pages", nil), "ns")
	set("storage.pool_hit_ns", perUnit("storage.pool_hit", "pages", nil), "ns")
	set("storage.pool_miss_us", perUnit("storage.pool_miss", "pages", nil)/us, "us")
	set("storage.decode_ns_per_row", perUnit("storage.decode", "rows", nil), "ns")

	scans := ss.pick("exec.scan", func(s *span) bool { return s.Counts["rows"] > 0 && s.Counts["projection"] == 0 })
	set("exec.scan_ns_per_row", ratio(sumDur(scans), sumCount(scans, "rows")), "ns")
	folds := ss.pick("exec.fold", has("rows"))
	set("exec.fold_ns_per_row", ratio(ss.sumSelf(folds), sumCount(folds, "rows")), "ns")
	set("exec.smagaggr_us", medianDur(ss.pick("exec.smagaggr", nil))/us, "us")
	set("exec.finish_us", medianDur(ss.pick("exec.finish", nil))/us, "us")
	set("exec.allocs_per_batch", ratio(w.allocs.fold, w.allocs.batches), "count")
	queries := ss.pick("engine.query", nil)
	set("exec.rows_examined_per_result_row", ratio(sumCount(queries, "rows_examined"), sumCount(queries, "rows_out")), "count")

	set("parallel.partition_us", medianDur(ss.pick("parallel.partition", nil))/us, "us")
	set("parallel.merge_us", medianDur(ss.pick("parallel.merge", nil))/us, "us")
	var imbalance []float64
	for _, pages := range w.partPages {
		var sum, largest float64
		for _, p := range pages {
			sum += float64(p)
			largest = math.Max(largest, float64(p))
		}
		if sum > 0 {
			imbalance = append(imbalance, largest*float64(len(pages))/sum)
		}
	}
	set("parallel.imbalance", median(imbalance), "ratio")

	execs := ss.pick("engine.exec", nil)
	set("engine.query_self_us", ss.medianSelf(queries)/us, "us")
	set("engine.exec_self_us", ss.medianSelf(execs)/us, "us")
	set("engine.open_ms", medianDur(ss.byName["engine.open"])/ms, "ms")
	set("engine.recover_ms", medianDur(ss.byName["engine.recover"])/ms, "ms")
	set("recovery_ms", medianDur(ss.byName["sma.recover"])/ms, "ms")

	set("wal.commit_us", medianDur(ss.pick("wal.commit", nil))/us, "us")
	set("wal.fsync_us", medianDur(ss.byName["wal.fsync"])/us, "us")
	replays := ss.byName["wal.replay"]
	set("wal.replay_mb_per_s", ratio(sumCount(replays, "bytes")/1e6, sumDur(replays)/1e9), "MB/s")

	renders := ss.pick("sma.render", has("rows"))
	set("sma.render_ns_per_row", ratio(sumDur(renders), sumCount(renders, "rows")), "ns")
	handlers := ss.pick("server.handler", nil)
	set("server.handler_self_us", ss.medianSelf(handlers)/us, "us")
	set("server.decode_req_us", medianDur(ss.pick("server.decode_req", nil))/us, "us")
	decodes := ss.pick("client.decode", has("rows"))
	set("client.decode_ns_per_row", ratio(sumCount(decodes, "next_ns"), sumCount(decodes, "rows")), "ns")
	paired := has("wire_pair")
	set("client.wire_overhead_us",
		(medianDur(ss.pick("client.query", paired))-medianDur(ss.pick("sma.query", paired)))/us, "us")

	readP50, writeP50 := medianDur(queries)/ms, medianDur(execs)/ms
	if w.hasRead {
		readP50 = w.untraced[false]
	}
	if w.hasWrite {
		writeP50 = w.untraced[true]
	}
	set("read_p50_ms", readP50, "ms")
	set("write_p50_ms", writeP50, "ms")

	// Coverage: the share of a statement's time that its outside-in replay
	// accounts for, statement by statement against the same statement's real
	// execution in the same phase (the sandbox drifts between phases). The
	// engine's own share (locks, cursor, literal conversion, journal,
	// observer and statistics bookkeeping) is not replayed; it is
	// engine.query_self_us / engine.exec_self_us.
	roots, render := execs, 0.0
	if w.hasRead {
		roots, render = queries, medianDur(ss.pick("sma.render", nil))
	}
	per := make([]float64, len(roots))
	for i, r := range roots {
		per[i] = (ss.replayedUnder(r) + render) / (float64(r.End-r.Start) + render)
	}
	coverage := median(per)
	if w.wires {
		// Over the wire the whole is the client's call; the embedded
		// statement inside the handler counts for its covered share, and the
		// HTTP and TCP machinery between client and handler is unattributed
		// (client.wire_overhead_us).
		var wire []float64
		for _, r := range ss.pick("client.query", paired) {
			var replayed float64
			for _, c := range ss.children[r.ID] {
				switch c.Name {
				case "client.decode":
					replayed += c.Counts["next_ns"]
				case "server.handler":
					replayed += float64(ss.self[c.ID])
					for _, g := range ss.children[c.ID] {
						if g.Name == "server.decode_req" {
							replayed += float64(g.End - g.Start)
						} else {
							replayed += coverage * float64(g.End-g.Start)
						}
					}
				}
			}
			wire = append(wire, replayed/float64(r.End-r.Start))
		}
		coverage = median(wire)
	}
	set("trace.coverage", coverage, "ratio")
}
