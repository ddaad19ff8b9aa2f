package parser

import "sma/internal/core"

// ParseSMADef parses the paper's "define sma" DDL into a core.Def.
func ParseSMADef(src string) (core.Def, error) {
	p := newParser(src)
	return p.parseSMADef()
}
