package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later issue). Spans of one statement
// share Stmt; Parent is the span that caused this one (0 for a root).
//
// Two kinds of span exist. A live span was timed where it sits: its interval
// is real. A replayed span re-executes, after the fact and from outside, a
// step that ran inside its parent (the grading inside planning, the page
// fetches inside a scan): its duration is measured, its position is not —
// it is laid out from its parent's start, after earlier replayed siblings —
// and counts["replayed"] is 1.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Stmt   int                `json:"stmt"`
	Name   string             `json:"name"` // layer.step, e.g. "planner.plan"
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`

	cursor int64 // where the next replayed child is laid out
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) count(name string, v float64) *span {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] += v
	return s
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) add(stmt int, parent *span, name string) *span {
	s := &span{ID: len(t.spans) + 1, Stmt: stmt, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// live times fn where it runs.
func (t *tracer) live(stmt int, parent *span, name string, fn func(s *span) error) (*span, error) {
	s := t.add(stmt, parent, name)
	s.Start = t.now()
	s.cursor = s.Start
	err := fn(s)
	s.End = t.now()
	return s, err
}

// replay times fn now and lays the span out inside parent (see span). Spans
// recorded while fn ran are its descendants and move with it.
func (t *tracer) replay(stmt int, parent *span, name string, fn func(s *span) error) (*span, error) {
	first := len(t.spans)
	s, err := t.live(stmt, parent, name, fn)
	shift := parent.cursor - s.Start
	for _, d := range t.spans[first:] {
		d.Start, d.End, d.cursor = d.Start+shift, d.End+shift, d.cursor+shift
	}
	parent.cursor = s.End
	s.count("replayed", 1)
	return s, err
}

// placed records a replayed span whose duration was accumulated elsewhere
// (the pieces of a scan interleaved with its consumer).
func (t *tracer) placed(stmt int, parent *span, name string, d time.Duration) *span {
	s := t.add(stmt, parent, name)
	s.Start = parent.cursor
	s.End = s.Start + d.Nanoseconds()
	s.cursor = s.Start
	parent.cursor = s.End
	return s.count("replayed", 1)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover (overlapping children count once, and a
// child reaching past its parent counts only up to the parent's end).
func selfTimes(spans []*span) map[int]time.Duration {
	children := map[int][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
