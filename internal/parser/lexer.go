// Package parser implements the small SQL dialect of the engine: the
// paper's SMA definition DDL
//
//	define sma min
//	select min(L_SHIPDATE)
//	from LINEITEM
//	group by L_RETURNFLAG, L_LINESTATUS
//
// and the SELECT subset needed for the paper's workloads: aggregate select
// lists, arithmetic expressions, WHERE with AND/OR/NOT and comparisons,
// GROUP BY, ORDER BY, plus DATE and INTERVAL literals so that TPC-D
// Query 1 parses verbatim.
package parser

import "fmt"

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString // single-quoted
	tokSymbol // punctuation / operator
	tokBad    // the input does not lex here; parser.lexErr says why
)

// token is one lexeme. Its text is a substring of the source, never a copy.
type token struct {
	kind tokKind
	text string
	pos  int
}

// Byte classes of the dialect. The source is read as bytes: everything the
// grammar is made of is ASCII, and a byte >= 0x80 has no class, so outside a
// string literal or a comment it is an error at its offset.
const (
	clSpace uint8 = 1 << iota
	clLetter
	clDigit
	clSymbol // a one-byte operator or punctuation mark
)

var class = func() (c [256]uint8) {
	for _, b := range " \t\n\v\f\r" {
		c[b] |= clSpace
	}
	for b := 'a'; b <= 'z'; b++ {
		c[b] |= clLetter
		c[b-'a'+'A'] |= clLetter
	}
	c['_'] |= clLetter
	for b := '0'; b <= '9'; b++ {
		c[b] |= clDigit
	}
	for _, b := range "()*+-/,<>=;" {
		c[b] |= clSymbol
	}
	return c
}()

// mark is a parser position: where the scan stands, the token read ahead
// and how much normal form the tokens before it wrote. Restoring one is how
// the grammar's two ambiguities backtrack.
type mark struct {
	pos    int
	tok    token
	norm   int
	folded bool
}

// parser is a pull scanner over the source bytes with one token of
// look-ahead, and the recursive-descent grammar on top of it. Nothing
// tokenises the input up front: a token exists only while it is p.tok.
type parser struct {
	src string
	pos int   // scan position, just past tok
	tok token // the token read ahead
	// lexErr is the lexical error behind a tokBad look-ahead; errorf reports
	// it in place of the syntax error the bad token would cause.
	lexErr error
	// record makes advance write the normal form of each token it consumes
	// to norm (see emit); folded says the look-ahead is the string of a
	// DATE literal whose "?" is written already.
	record bool
	folded bool
	norm   normBuf
}

// newParser starts a scan of src with its first token read ahead.
func newParser(src string) parser {
	p := parser{src: src}
	p.advance()
	return p
}

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

func (p *parser) mark() mark { return mark{p.pos, p.tok, p.norm.len(), p.folded} }
func (p *parser) reset(m mark) {
	p.pos, p.tok, p.folded = m.pos, m.tok, m.folded
	p.norm.truncate(m.norm)
}

// bad ends the scan at a lexical error: the look-ahead becomes a tokBad
// that matches nothing, so the grammar fails where it stands.
func (p *parser) bad(start int, format string, args ...any) {
	if p.lexErr == nil {
		p.lexErr = fmt.Errorf(format, args...)
	}
	p.pos = len(p.src)
	p.tok = token{kind: tokBad, text: p.src[start:min(start+1, len(p.src))], pos: start}
}

// advance consumes the look-ahead: it scans the next token into p.tok and,
// when the parse records its normal form, writes the consumed one's.
func (p *parser) advance() {
	if !p.record {
		p.scan()
		return
	}
	t := p.tok
	p.scan()
	p.emit(t)
}

// scan reads the next token into p.tok.
func (p *parser) scan() {
	src, i := p.src, p.pos
	// Whitespace and "--" line comments.
	for i < len(src) {
		c := src[i]
		if class[c]&clSpace != 0 {
			i++
			continue
		}
		if c == '-' && i+1 < len(src) && src[i+1] == '-' {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		break
	}
	start := i
	if i >= len(src) {
		p.pos, p.tok = i, token{kind: tokEOF, pos: i}
		return
	}
	c := src[i]
	kind := tokSymbol
	switch {
	case class[c]&clLetter != 0:
		for i < len(src) && class[src[i]]&(clLetter|clDigit) != 0 {
			i++
		}
		kind = tokIdent
	case class[c]&clDigit != 0 || c == '.' && i+1 < len(src) && class[src[i+1]]&clDigit != 0:
		seenDot := false
		for i < len(src) {
			if src[i] == '.' {
				if seenDot {
					break
				}
				seenDot = true
			} else if class[src[i]]&clDigit == 0 {
				break
			}
			i++
		}
		kind = tokNumber
	case c == '\'':
		i++
		for i < len(src) && src[i] != '\'' {
			i++
		}
		if i >= len(src) {
			p.bad(start, "parser: unterminated string literal at offset %d", start)
			return
		}
		i++
		p.pos, p.tok = i, token{kind: tokString, text: src[start+1 : i-1], pos: start}
		return
	case (c == '<' || c == '>' || c == '!') && i+1 < len(src) && src[i+1] == '=',
		c == '<' && i+1 < len(src) && src[i+1] == '>':
		i += 2
	case class[c]&clSymbol != 0:
		i++
	default:
		p.bad(start, "parser: unexpected character %q at offset %d", c, start)
		return
	}
	p.pos, p.tok = i, token{kind: kind, text: src[start:i], pos: start}
}
