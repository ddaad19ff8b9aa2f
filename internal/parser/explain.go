package parser

import (
	"fmt"
	"strings"
)

// ExplainStmt wraps a SELECT for plan inspection: "explain <select>"
// describes the chosen plan, "explain analyze <select>" executes the
// query traced and renders its phase times, page counts and grading
// counts.
type ExplainStmt struct {
	Analyze bool
	Query   *Query
	// SQL is the inner SELECT text, re-parsed by the engine's query path.
	SQL string
}

func (*ExplainStmt) isStatement() {}

// SplitExplain reports whether sql is an EXPLAIN [ANALYZE] statement and
// returns the inner statement text. It is purely lexical so the engine
// can route EXPLAIN through the streaming query path before parsing the
// inner SELECT.
func SplitExplain(sql string) (inner string, analyze, ok bool) {
	rest, found := cutKeyword(sql, "explain")
	if !found {
		return "", false, false
	}
	if r2, f2 := cutKeyword(rest, "analyze"); f2 {
		return r2, true, true
	}
	return rest, false, true
}

// cutKeyword strips one leading keyword (case-insensitive, preceded by
// optional whitespace, followed by a non-identifier byte) and returns
// the remainder.
func cutKeyword(s, kw string) (string, bool) {
	t := strings.TrimLeft(s, " \t\r\n")
	if len(t) < len(kw) || !strings.EqualFold(t[:len(kw)], kw) {
		return s, false
	}
	rest := t[len(kw):]
	if rest != "" && (isIdentByte(rest[0])) {
		return s, false
	}
	return rest, true
}

// isIdentByte reports whether b could continue an identifier, meaning
// the preceding keyword match was only a prefix.
func isIdentByte(b byte) bool {
	return b == '_' || ('0' <= b && b <= '9') ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z')
}

// parseExplain parses "explain [analyze] <select>" for ParseStatement.
// The inner SELECT is parsed on its own, and its normal form follows
// "explain [analyze]": the keywords are the text's first tokens.
func (p *parser) parseExplain() (Statement, error) {
	inner, analyze, ok := SplitExplain(p.src)
	if !ok {
		return nil, fmt.Errorf("parser: malformed EXPLAIN statement")
	}
	in := newParser(inner)
	in.record = p.record
	if in.record {
		in.norm.write("explain", false)
		if analyze {
			in.norm.write(" analyze", false)
		}
	}
	q, err := in.parseQuery()
	p.norm = in.norm
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Analyze: analyze, Query: q, SQL: inner}, nil
}
