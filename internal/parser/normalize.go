package parser

import "strings"

// Normalize canonicalizes a statement for fingerprinting: identifiers and
// keywords are lower-cased, every literal (numbers, strings, and the
// DATE '...' spelling) collapses to "?", comments vanish, and whitespace
// folds to single spaces. Two statements that differ only in literal
// values or formatting normalize to the same text.
//
// A multi-row INSERT is one logical statement however many rows it
// carries: a VALUES group made only of literals, with as many of them as
// the first group, is dropped, so "values (1, 'a'), (2, 'b'), (3, 'c')"
// and "values (4, 'd')" share a normal form. A group of another arity (a
// statement the parser rejects) stays and tells them apart.
//
// The result is display text, not SQL: it does not re-lex (the "?"
// placeholder is not a token of the dialect). Inputs that fail to lex are
// normalized textually (case/space folding only) so every string — even
// garbage that the parser would reject — has a stable normal form.
//
// The statement is scanned once, a token at a time, into a buffer the size
// of the normal form: a 20 KB load statement costs its scan and ~100 bytes.
//
// Normalize is the reference for the normal form, and the fallback for a
// text that does not parse. A text that parses gets the same normal form
// from the parse's own token stream (ParseStatementFingerprint,
// ParseQueryFingerprint, whose rules are emit's), so it is not scanned a
// second time; FuzzParseNormalForm holds the two to each other.
func Normalize(sql string) string {
	var arr [256]byte
	p := newParser(sql)
	buf, ok := p.normal(arr[:0])
	if !ok {
		return strings.Join(strings.Fields(strings.ToLower(sql)), " ")
	}
	return string(buf)
}

// normal appends the normal form of the rest of the input to buf; ok is
// false when the input does not lex.
func (p *parser) normal(buf []byte) (_ []byte, ok bool) {
	insert := p.isKeyword("insert")
	for {
		switch p.tok.kind {
		case tokEOF:
			return buf, true
		case tokBad:
			return nil, false
		}
		values := insert && p.isKeyword("values")
		buf = p.normalToken(buf)
		if values {
			buf = p.normalValues(buf)
		}
	}
}

// normalToken consumes one token — two for the DATE '...' spelling — and
// appends its normal form, space-separated from what is there.
func (p *parser) normalToken(buf []byte) []byte {
	t := p.next()
	if t.kind == tokSymbol && t.text == ";" && p.tok.kind == tokEOF {
		// A trailing semicolon is optional in the dialect; drop it so
		// "select 1" and "select 1;" share a fingerprint.
		return buf
	}
	if len(buf) > 0 {
		buf = append(buf, ' ')
	}
	switch {
	case t.kind == tokNumber, t.kind == tokString:
		return append(buf, '?')
	case t.kind == tokIdent && p.tok.kind == tokString && strings.EqualFold(t.text, "date"):
		// DATE '...' is a literal spelling; fold the pair into one "?"
		// so `d <= date '1995-06-17'` and `d <= date '1998-09-02'`
		// fingerprint identically.
		p.advance()
		return append(buf, '?')
	case t.kind == tokIdent:
		buf = append(buf, t.text...)
		lower(buf[len(buf)-len(t.text):])
		return buf
	}
	return append(buf, t.text...)
}

// lower lower-cases the ASCII letters of b in place.
func lower(b []byte) {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
}

// normalValues normalizes the groups of a VALUES list, the first token of
// which is p.tok, keeping the first group and every later one that does
// not have its shape. Later groups are scanned without being written, and
// scanned again into buf only when they have to stay.
func (p *parser) normalValues(buf []byte) []byte {
	isSym := func(s string) bool { return p.tok.kind == tokSymbol && p.tok.text == s }
	if !isSym("(") {
		return buf
	}
	buf, first := p.normalGroup(buf, true)
	for isSym(",") {
		p.advance()
		buf = append(buf, " ,"...)
		if !isSym("(") {
			break
		}
		m := p.mark()
		if _, arity := p.normalGroup(nil, false); arity >= 0 && arity == first {
			buf = buf[:len(buf)-len(" ,")] // the separator goes with its group
			continue
		}
		p.reset(m)
		buf, _ = p.normalGroup(buf, true)
	}
	return buf
}

// normalGroup consumes one parenthesized VALUES group, p.tok being its "(",
// appending its normal form to buf if emit is set, and returns the number
// of cells when the group holds nothing but literals, -1 otherwise.
func (p *parser) normalGroup(buf []byte, emit bool) (_ []byte, arity int) {
	arity = 1
	for depth := 0; p.tok.kind != tokEOF && p.tok.kind != tokBad; {
		closed := false
		switch t := p.tok; {
		case t.kind == tokNumber, t.kind == tokString:
		case t.kind == tokIdent && strings.EqualFold(t.text, "date"):
		case t.kind != tokSymbol:
			arity = -1
		case t.text == "(":
			if depth++; depth > 1 {
				arity = -1
			}
		case t.text == ")":
			depth--
			closed = depth == 0
		case t.text == ",":
			if arity > 0 {
				arity++
			}
		case t.text == "-", t.text == "+":
		default:
			arity = -1
		}
		if emit {
			buf = p.normalToken(buf)
		} else {
			p.advance()
		}
		if closed {
			return buf, arity
		}
	}
	return buf, -1
}

// Fingerprint returns the stable 64-bit fingerprint of a statement (FNV-1a
// over its normalized text) together with the normalized text itself.
//
// Stability contract: the fingerprint depends only on the normalized form,
// so it is invariant under literal values, letter case, whitespace,
// comments, a trailing semicolon and the number of same-shaped VALUES rows
// — but it is not stable across changes to the normalizer itself, so it
// must not be persisted to disk.
func Fingerprint(sql string) (uint64, string) {
	n := Normalize(sql)
	return hash(n), n
}

// hash is FNV-1a over a normal form.
func hash(n string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(n); i++ {
		h = (h ^ uint64(n[i])) * 1099511628211
	}
	return h
}

// ParseStatementFingerprint is ParseStatement that also returns the
// statement's fingerprint and normal form, the ones Fingerprint(src)
// returns: a text that parses is read once, its normal form written from
// the tokens the parse consumes. A text that does not parse gets
// Fingerprint's.
func ParseStatementFingerprint(src string) (Statement, uint64, string, error) {
	p := newParser(src)
	p.record = true
	st, err := p.parseStatement()
	fp, norm := p.fingerprint(err)
	return st, fp, norm, err
}

// ParseQueryFingerprint is ParseQuery with the fingerprint and normal form
// of ParseStatementFingerprint.
func ParseQueryFingerprint(src string) (*Query, uint64, string, error) {
	p := newParser(src)
	p.record = true
	q, err := p.parseQuery()
	fp, norm := p.fingerprint(err)
	return q, fp, norm, err
}

// fingerprint returns the fingerprint and normal form of a recorded parse
// that ended with err: what it wrote when it succeeded, Fingerprint's when
// it failed, since a failed parse may stop anywhere in the text.
func (p *parser) fingerprint(err error) (uint64, string) {
	if err != nil {
		return Fingerprint(p.src)
	}
	n := p.norm.String()
	return hash(n), n
}

// normBuf is the normal form a recording parse writes: in the parser's own
// array while it fits, which keeps a parser on its caller's stack, and on
// the heap once it outgrows it.
type normBuf struct {
	arr [256]byte
	n   int    // bytes in arr
	big []byte // the whole normal form, once it outgrew arr
}

func (b *normBuf) len() int {
	if b.big != nil {
		return len(b.big)
	}
	return b.n
}

// truncate drops what was written after the first n bytes.
func (b *normBuf) truncate(n int) {
	if b.big != nil {
		b.big = b.big[:n]
	} else {
		b.n = n
	}
}

// write appends s, lower-cased if lowered is set.
func (b *normBuf) write(s string, lowered bool) {
	if b.big == nil && b.n+len(s) > len(b.arr) {
		b.big = append(make([]byte, 0, 2*len(b.arr)+len(s)), b.arr[:b.n]...)
	}
	var dst []byte
	if b.big != nil {
		b.big = append(b.big, s...)
		dst = b.big[len(b.big)-len(s):]
	} else {
		dst = b.arr[b.n : b.n+len(s)]
		b.n += copy(dst, s)
	}
	if lowered {
		lower(dst)
	}
}

func (b *normBuf) String() string {
	if b.big != nil {
		return string(b.big)
	}
	return string(b.arr[:b.n])
}

// emit writes the normal form of t, a token the parse has just consumed,
// p.tok being the token after it. These are normalToken's rules applied a
// token at a time as the grammar reads: a literal is "?", DATE '...' one
// "?", a keyword or identifier lower case, and a trailing ";" nothing. A
// parse that backtracks truncates what it wrote (reset). An INSERT stops
// recording after its first VALUES group: the parse rejects a later group
// of another arity, and Normalize drops every one of the same.
func (p *parser) emit(t token) {
	switch {
	case t.kind == tokEOF, t.kind == tokBad:
		return
	case p.folded: // the string of a DATE literal
		p.folded = false
		return
	case t.kind == tokSymbol && t.text == ";" && p.tok.kind == tokEOF:
		return
	}
	if p.norm.len() > 0 {
		p.norm.write(" ", false)
	}
	switch {
	case t.kind == tokNumber, t.kind == tokString:
		p.norm.write("?", false)
	case t.kind == tokIdent && p.tok.kind == tokString && strings.EqualFold(t.text, "date"):
		p.norm.write("?", false)
		p.folded = true
	case t.kind == tokIdent:
		p.norm.write(t.text, true)
	default:
		p.norm.write(t.text, false)
	}
}
