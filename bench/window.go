package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"sma/client"
)

// sample is one completed statement as its client saw it.
type sample struct {
	ns    int64 // latency
	at    int64 // completion time, from the window's start
	write bool
}

// windowResult is what a closed-loop window observed.
type windowResult struct {
	samples   []sample
	elapsed   time.Duration
	attempted int
	failed    int
	shed      int // statements the server refused with a 503
	firstErr  error
	allocKB   float64 // runtime.MemStats.TotalAlloc delta over the window, KiB
}

// runWindow drives the workload until d has passed.
func runWindow(e *env, d time.Duration) *windowResult {
	deadline := time.Now().Add(d)
	return drive(e, func(int) bool { return time.Now().Before(deadline) })
}

// runCount drives the workload for exactly n statements per client, so that
// counters taken around it repeat from run to run.
func runCount(e *env, n int) *windowResult {
	return drive(e, func(done int) bool { return done < n })
}

// drive runs the workload closed loop — each client sends its next statement
// only after the previous reply has been drained and checked — while more,
// asked with the client's statement count so far, says so. Checking and
// statement generation happen outside the timed call.
func drive(e *env, more func(done int) bool) *windowResult {
	res := &windowResult{}
	var mu sync.Mutex // guards res and the acked callbacks
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := range e.next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			attempted, failed, shed := 0, 0, 0
			var firstErr error
			fail := func(s *stmt, err error) {
				failed++
				var se *client.Error
				if errors.As(err, &se) && se.IsUnavailable() {
					shed++
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w (%.80s)", e.w.name, err, s.sql)
				}
			}
			for more(attempted) {
				s := e.next[c]()
				attempted++
				rows, strategy, lat, err := e.run(c, s)
				switch {
				case err != nil:
					fail(s, err)
					continue
				case s.write:
					if s.acked != nil {
						mu.Lock()
						s.acked()
						mu.Unlock()
					}
				default:
					if strategy != s.strategy {
						fail(s, fmt.Errorf("planned %s, workload expects %s", strategy, s.strategy))
						continue
					}
					if err := s.check(rows); err != nil {
						fail(s, err)
						continue
					}
				}
				local = append(local, sample{ns: lat.Nanoseconds(), at: time.Since(start).Nanoseconds(), write: s.write})
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.attempted += attempted
			res.failed += failed
			res.shed += shed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return res
}

// latencies returns the sorted latencies, in milliseconds, of the samples
// keep selects.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (r *windowResult) latencies(keep func(sample) bool) []float64 { return latencies(r.samples, keep) }

// slices cuts the window into k equal stretches of time and returns the
// samples that completed in each.
func (r *windowResult) slices(k int) [][]sample {
	out := make([][]sample, k)
	width := r.elapsed.Nanoseconds()/int64(k) + 1
	for _, s := range r.samples {
		i := min(int(s.at/width), k-1)
		out[i] = append(out[i], s)
	}
	return out
}

func anySample(sample) bool     { return true }
func readSample(s sample) bool  { return !s.write }
func writeSample(s sample) bool { return s.write }

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile applies the reporting rule: the highest percentile that
// still has at least ten samples beyond it (0 when not even the median has).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
