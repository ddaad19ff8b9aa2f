package oracle

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Op is one step of a generated workload: a SQL statement plus whether it
// is a SELECT (compared through Query) or a write/DDL (compared through
// Exec and RowsAffected).
type Op struct {
	SQL     string
	IsQuery bool
}

// Gen is a seeded pseudo-random workload generator over one table. The
// stream interleaves multi-row inserts, updates, deletes, SMA definition
// and removal, and aggregate/projection queries, so that over a few
// hundred operations the planner is steered through all three strategies
// (FullScan, SMA_GAggr, SMA_Scan) while the table churns underneath it.
//
// A run of writes and DDL is followed, before the next fresh query, by the
// last two query texts again — the older once, the newer twice — so the
// engine's statement cache sees the same text across every kind of change
// (planned again from its cached parse) and twice between changes (its
// plan template reused).
//
// Floating-point values are restricted to multiples of 0.5 with bounded
// magnitude and updates are additive, so every SUM/AVG both engines
// compute is exact regardless of accumulation order — parallel partial
// merges on the engine side cannot drift from the oracle's row-order sums
// by a ulp, making exact string comparison sound.
type Gen struct {
	rnd  *rand.Rand
	tbl  string   // relation the stream addresses (default Table)
	smas []smaDef // live SMAs
	seq  int      // SMA name sequence
	day  int      // monotone insert-date cursor (see insertDate)

	recent  [2]string // the last two fresh query texts, newer last
	wrote   bool      // a write or DDL since the last fresh query
	pending []string  // queries to issue before drawing again
}

// smaDef tracks one live SMA so query generation can emit aggregations
// that exactly match the defined set — the shape the planner answers with
// SMA_GAggr instead of scanning.
type smaDef struct {
	name    string
	form    string // e.g. "sum(V)"
	grouped bool   // group by K
}

// Table is the name of the generated workload's single relation.
const Table = "W"

// NewGen creates a generator. Equal seeds yield identical streams.
func NewGen(seed int64) *Gen {
	return NewGenFor(seed, Table)
}

// NewGenFor creates a generator whose stream addresses the named table
// instead of the default. Concurrent differential sessions give each
// session its own table so their streams stay independent while sharing
// one database.
func NewGenFor(seed int64, table string) *Gen {
	return &Gen{rnd: rand.New(rand.NewSource(seed)), tbl: strings.ToUpper(table)}
}

// Setup returns the statements creating the schema both engines start
// from. The fat PAD column keeps records-per-page small so multi-row
// inserts cross bucket boundaries early.
func (g *Gen) Setup() []string {
	return []string{
		fmt.Sprintf("create table %s (D date, K char(1), V float64, N int64, PAD char(500))", g.tbl),
	}
}

// Next produces the next operation of the stream.
func (g *Gen) Next() Op {
	if len(g.pending) == 0 {
		op := g.draw()
		if !op.IsQuery {
			g.wrote = true
			return op
		}
		if g.wrote && g.recent[0] != "" {
			g.pending = append(g.pending, g.recent[0], g.recent[1], g.recent[1])
		}
		g.pending = append(g.pending, op.SQL)
		g.recent[0], g.recent[1] = g.recent[1], op.SQL
		g.wrote = false
	}
	sql := g.pending[0]
	g.pending = g.pending[1:]
	return Op{SQL: sql, IsQuery: true}
}

// draw produces a fresh operation.
func (g *Gen) draw() Op {
	switch r := g.rnd.Intn(100); {
	case r < 24:
		return Op{SQL: g.insert()}
	case r < 38:
		return Op{SQL: g.update()}
	case r < 48:
		return Op{SQL: g.deleteStmt()}
	case r < 55:
		if len(g.smas) < 8 {
			return Op{SQL: g.defineSMA()}
		}
		return Op{SQL: g.dropSMA()}
	case r < 59:
		if len(g.smas) > 0 {
			return Op{SQL: g.dropSMA()}
		}
		return Op{SQL: g.defineSMA()}
	default:
		return Op{SQL: g.query(), IsQuery: true}
	}
}

// --- value helpers --------------------------------------------------------

// dateStr renders day index i (0-based, 28-day months) in 2024.
func dateStr(i int) string {
	if i < 0 {
		i = 0
	}
	i %= 12 * 28
	return fmt.Sprintf("2024-%02d-%02d", i/28+1, i%28+1)
}

// insertDate advances a monotone cursor with jitter, so stored dates are
// loosely clustered by insertion order — the paper's shipdate assumption
// that lets min/max SMAs disqualify whole buckets for range predicates.
func (g *Gen) insertDate() string {
	g.day += g.rnd.Intn(3)
	return dateStr(g.day)
}

// date picks a uniform date for predicates and updates.
func (g *Gen) date() string { return dateStr(g.rnd.Intn(12 * 28)) }

func (g *Gen) k() string { return string(rune('A' + g.rnd.Intn(5))) }

// v returns a float literal that is a multiple of 0.5 in [-50, 150].
func (g *Gen) v() string {
	return strconv.FormatFloat(float64(g.rnd.Intn(401)-100)/2, 'g', -1, 64)
}

func (g *Gen) n() string { return strconv.Itoa(g.rnd.Intn(400)) }

// --- DML ------------------------------------------------------------------

var padVals = []string{"p", "pp", "pad", ""}

func (g *Gen) row() string {
	var d string
	if g.rnd.Intn(2) == 0 {
		d = "date '" + g.insertDate() + "'"
	} else {
		d = "'" + g.insertDate() + "'" // date as a plain string literal
	}
	return fmt.Sprintf("(%s, '%s', %s, %s, '%s')",
		d, g.k(), g.v(), g.n(), padVals[g.rnd.Intn(len(padVals))])
}

func (g *Gen) insert() string {
	nRows := 2 + g.rnd.Intn(6)
	rows := make([]string, nRows)
	if g.rnd.Intn(5) == 0 {
		// Explicit column list in a random order (all columns: no NULLs).
		cols := []string{"D", "K", "V", "N", "PAD"}
		perm := g.rnd.Perm(len(cols))
		names := make([]string, len(cols))
		for i := range rows {
			vals := make([]string, len(cols))
			lits := []string{"date '" + g.insertDate() + "'", "'" + g.k() + "'", g.v(), g.n(), "'p'"}
			for j, p := range perm {
				names[j] = cols[p]
				vals[j] = lits[p]
			}
			rows[i] = "(" + strings.Join(vals, ", ") + ")"
		}
		return fmt.Sprintf("insert into %s (%s) values %s",
			g.tbl, strings.Join(names, ", "), strings.Join(rows, ", "))
	}
	for i := range rows {
		rows[i] = g.row()
	}
	return "insert into " + g.tbl + " values " + strings.Join(rows, ", ")
}

// set returns one SET clause. Numeric right-hand sides stay additive (no
// multiplication) so values remain exactly representable halves.
func (g *Gen) set(col string) string {
	switch col {
	case "V":
		switch g.rnd.Intn(4) {
		case 0:
			return "V = V + " + g.v()
		case 1:
			return "V = " + g.v() + " - V"
		case 2:
			return "V = N + " + g.v()
		default:
			return "V = " + g.v()
		}
	case "N":
		if g.rnd.Intn(2) == 0 {
			return "N = N + " + strconv.Itoa(1+g.rnd.Intn(7))
		}
		return "N = " + g.n()
	case "K":
		return "K = '" + g.k() + "'"
	default: // D
		// Shift dates by less than a bucket's span instead of assigning
		// random ones: wholesale random dates would widen every bucket's
		// [min(D), max(D)] to the full year, making all buckets ambivalent
		// and starving the SMA_Scan strategy of prunable ranges.
		if g.rnd.Intn(2) == 0 {
			return "D = D + " + strconv.Itoa(g.rnd.Intn(7))
		}
		return "D = D - " + strconv.Itoa(g.rnd.Intn(7))
	}
}

func (g *Gen) update() string {
	cols := []string{"V", "N", "K", "D"}
	g.rnd.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	sets := make([]string, 1+g.rnd.Intn(3))
	for i := range sets {
		sets[i] = g.set(cols[i])
	}
	sql := "update " + g.tbl + " set " + strings.Join(sets, ", ")
	if w := g.where(10); w != "" {
		sql += " " + w
	}
	return sql
}

func (g *Gen) deleteStmt() string {
	// A bare DELETE (the 1-in-40 case) wipes the table; later inserts
	// rebuild it, exercising SMAs over emptied-then-refilled buckets.
	if w := g.where(39); w != "" {
		return "delete from " + g.tbl + " " + w
	}
	return "delete from " + g.tbl
}

// --- predicates -----------------------------------------------------------

var cmpOps = []string{"<", "<=", "=", ">=", ">", "<>"}

func (g *Gen) atom() string {
	op := cmpOps[g.rnd.Intn(len(cmpOps))]
	switch g.rnd.Intn(5) {
	case 0:
		return "V " + op + " " + g.v()
	case 1:
		return "N " + op + " " + g.n()
	case 2:
		if g.rnd.Intn(2) == 0 {
			return "D " + op + " date '" + g.date() + "'"
		}
		return "D " + op + " '" + g.date() + "'"
	case 3:
		return "K " + op + " '" + g.k() + "'"
	default:
		return "V " + op + " N"
	}
}

// where returns "where <pred>" in p-out-of-40 draws, else "".
func (g *Gen) where(p int) string {
	if g.rnd.Intn(40) >= p {
		return ""
	}
	switch g.rnd.Intn(10) {
	case 0, 1:
		return "where " + g.atom() + " and " + g.atom()
	case 2:
		return "where " + g.atom() + " or " + g.atom()
	case 3:
		return "where not (" + g.atom() + ")"
	default:
		return "where " + g.atom()
	}
}

// --- SMA DDL --------------------------------------------------------------

var smaForms = []string{
	"min(D)", "max(D)", "min(V)", "max(V)", "sum(V)", "sum(N)", "min(N)", "max(N)", "count(*)",
}

func (g *Gen) defineSMA() string {
	g.seq++
	def := smaDef{
		name:    "S" + strconv.Itoa(g.seq),
		form:    smaForms[g.rnd.Intn(len(smaForms))],
		grouped: g.rnd.Intn(2) == 0,
	}
	g.smas = append(g.smas, def)
	sql := fmt.Sprintf("define sma %s select %s from %s", def.name, def.form, g.tbl)
	if def.grouped {
		sql += " group by K"
	}
	return sql
}

func (g *Gen) dropSMA() string {
	i := g.rnd.Intn(len(g.smas))
	name := g.smas[i].name
	g.smas = append(g.smas[:i], g.smas[i+1:]...)
	return "drop sma " + name + " on " + g.tbl
}

// --- queries --------------------------------------------------------------

var aggForms = []string{
	"count(*)", "sum(V)", "avg(V)", "min(V)", "max(V)",
	"min(D)", "max(D)", "sum(N)", "min(N)", "max(N)",
}

// aggs picks 1-3 distinct aggregate items, aliased so HAVING can cite them.
func (g *Gen) aggs() (list []string, aliases []string) {
	perm := g.rnd.Perm(len(aggForms))
	n := 1 + g.rnd.Intn(3)
	for _, p := range perm[:n] {
		alias := "AG" + strconv.Itoa(len(aliases))
		list = append(list, aggForms[p]+" as "+alias)
		aliases = append(aliases, alias)
	}
	return list, aliases
}

// smaBackedQuery builds an unpredicated aggregation whose aggregate list
// exactly matches live SMAs of one grouping (plus avg when its sum and a
// count are both covered) — the SMA_GAggr shape. ok is false when no SMA
// of the chosen grouping is live.
func (g *Gen) smaBackedQuery() (string, bool) {
	grouped := g.rnd.Intn(2) == 0
	var forms []string
	haveCount, haveSumV := false, false
	for _, d := range g.smas {
		if d.grouped != grouped {
			continue
		}
		forms = append(forms, d.form)
		haveCount = haveCount || d.form == "count(*)"
		haveSumV = haveSumV || d.form == "sum(V)"
	}
	if len(forms) == 0 {
		return "", false
	}
	if haveCount && haveSumV {
		forms = append(forms, "avg(V)")
	}
	g.rnd.Shuffle(len(forms), func(i, j int) { forms[i], forms[j] = forms[j], forms[i] })
	list := forms[:1+g.rnd.Intn(len(forms))]
	for i, f := range list {
		list[i] = f + " as AG" + strconv.Itoa(i)
	}
	if grouped {
		return "select K, " + strings.Join(list, ", ") + " from " + g.tbl + " group by K order by K", true
	}
	return "select " + strings.Join(list, ", ") + " from " + g.tbl, true
}

// scanBackedQuery builds a selective date-range aggregation that a live
// min(D) or max(D) SMA can grade, disqualifying whole buckets — the
// SMA_Scan shape (clustered insert dates make the range genuinely
// selective). ok is false when no D-bound SMA is live.
func (g *Gen) scanBackedQuery() (string, bool) {
	haveMin, haveMax := false, false
	for _, d := range g.smas {
		haveMin = haveMin || d.form == "min(D)"
		haveMax = haveMax || d.form == "max(D)"
	}
	// A random page read costs ~4 sequential ones, so the planner only
	// picks SMA_Scan when most buckets disqualify: bound the range to
	// roughly a sixth of the dates inserted so far.
	var where string
	span := g.rnd.Intn(g.day/8 + 1)
	switch {
	case haveMin && (!haveMax || g.rnd.Intn(2) == 0):
		where = "where D <= '" + dateStr(span) + "'"
	case haveMax:
		where = "where D >= '" + dateStr(g.day-span) + "'"
	default:
		return "", false
	}
	list, _ := g.aggs()
	if g.rnd.Intn(2) == 0 {
		return "select K, " + strings.Join(list, ", ") + " from " + g.tbl + " " + where +
			" group by K order by K", true
	}
	return "select " + strings.Join(list, ", ") + " from " + g.tbl + " " + where, true
}

func (g *Gen) query() string {
	switch g.rnd.Intn(8) {
	case 0, 1:
		if sql, ok := g.smaBackedQuery(); ok {
			return sql
		}
	case 2, 3:
		if sql, ok := g.scanBackedQuery(); ok {
			return sql
		}
	}
	switch g.rnd.Intn(10) {
	case 0, 1, 2: // global aggregate: SMA_GAggr bait when unpredicated
		list, _ := g.aggs()
		sql := "select " + strings.Join(list, ", ") + " from " + g.tbl
		if w := g.where(16); w != "" {
			sql += " " + w
		}
		return sql
	case 3, 4, 5, 6: // grouped aggregate, deterministically ordered
		list, aliases := g.aggs()
		sql := "select K, " + strings.Join(list, ", ") + " from " + g.tbl
		if w := g.where(14); w != "" {
			sql += " " + w
		}
		sql += " group by K"
		if g.rnd.Intn(4) == 0 {
			sql += " having " + aliases[0] + " " + cmpOps[g.rnd.Intn(len(cmpOps))] + " " + g.n()
		}
		sql += " order by K"
		return sql
	case 7: // select *
		sql := "select * from " + g.tbl
		if w := g.where(16); w != "" {
			sql += " " + w
		}
		return sql
	default: // column projection, physical order, optional LIMIT
		cols := []string{"D", "K", "V", "N"}
		g.rnd.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		sql := "select " + strings.Join(cols[:1+g.rnd.Intn(3)], ", ") + " from " + g.tbl
		if w := g.where(16); w != "" {
			sql += " " + w
		}
		if g.rnd.Intn(4) == 0 {
			sql += " limit " + strconv.Itoa(g.rnd.Intn(30))
		}
		return sql
	}
}
