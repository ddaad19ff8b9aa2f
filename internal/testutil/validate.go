package testutil

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The metric-name and label-name grammars of the exposition format, kept
// apart from package obs's own so the reference parser shares nothing with
// the code it checks.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition is a strict parser for the Prometheus text
// exposition format (version 0.0.4), the reference the tests of obs,
// engine and server hold /metrics to. It enforces the rules the
// hand-rendered /metrics endpoint used to get wrong:
//
//   - every sample belongs to a family announced by # HELP and # TYPE
//     lines, in that order, immediately before its samples;
//   - metric and label names match the spec grammar;
//   - label values use only the legal escapes (\\, \", \n) and are
//     properly quoted;
//   - sample values parse as floats;
//   - no family is declared twice and no sample (name + label set)
//     repeats;
//   - histogram families carry cumulative, monotone _bucket series with
//     a closing le="+Inf" bucket whose value equals _count, plus a _sum;
//   - the output ends with a newline.
//
// It returns nil for a conforming exposition and a descriptive error
// (with the line number) otherwise.
func ValidateExposition(data []byte) error {
	text := string(data)
	if text == "" {
		return fmt.Errorf("exposition: empty body")
	}
	if !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("exposition: missing trailing newline")
	}

	type familyState struct {
		name     string
		typ      string
		hasHelp  bool
		buckets  map[string][]float64 // base label key -> cumulative bucket values
		lastLe   map[string]float64
		infSeen  map[string]float64
		sums     map[string]bool
		counts   map[string]float64
		declared bool
	}
	var cur *familyState
	declared := map[string]bool{}
	samples := map[string]bool{}

	finishHistogram := func(f *familyState) error {
		if f == nil || f.typ != "histogram" {
			return nil
		}
		for key := range f.buckets {
			inf, ok := f.infSeen[key]
			if !ok {
				return fmt.Errorf("exposition: histogram %s{%s} has no le=\"+Inf\" bucket", f.name, key)
			}
			cnt, ok := f.counts[key]
			if !ok {
				return fmt.Errorf("exposition: histogram %s{%s} has no _count sample", f.name, key)
			}
			if inf != cnt {
				return fmt.Errorf("exposition: histogram %s{%s}: +Inf bucket %v != _count %v", f.name, key, inf, cnt)
			}
			if !f.sums[key] {
				return fmt.Errorf("exposition: histogram %s{%s} has no _sum sample", f.name, key)
			}
		}
		for key := range f.counts {
			if _, ok := f.buckets[key]; !ok {
				return fmt.Errorf("exposition: histogram %s{%s} has _count but no buckets", f.name, key)
			}
		}
		return nil
	}

	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i, line := range lines {
		lineNo := i + 1
		if line == "" {
			return fmt.Errorf("exposition line %d: blank line", lineNo)
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				return fmt.Errorf("exposition line %d: HELP without text", lineNo)
			}
			if !metricNameRE.MatchString(name) {
				return fmt.Errorf("exposition line %d: invalid metric name %q", lineNo, name)
			}
			if declared[name] {
				return fmt.Errorf("exposition line %d: family %s declared twice", lineNo, name)
			}
			if err := finishHistogram(cur); err != nil {
				return err
			}
			declared[name] = true
			cur = &familyState{name: name, hasHelp: true,
				buckets: map[string][]float64{}, lastLe: map[string]float64{},
				infSeen: map[string]float64{}, sums: map[string]bool{}, counts: map[string]float64{}}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# TYPE "):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return fmt.Errorf("exposition line %d: TYPE without type", lineNo)
			}
			if cur == nil || cur.name != name || !cur.hasHelp {
				return fmt.Errorf("exposition line %d: TYPE %s not preceded by its HELP", lineNo, name)
			}
			if cur.typ != "" {
				return fmt.Errorf("exposition line %d: family %s typed twice", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("exposition line %d: unknown type %q", lineNo, typ)
			}
			cur.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("exposition line %d: stray comment %q (only HELP/TYPE allowed)", lineNo, line)
		}

		// Sample line: name[{labels}] value
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		if cur == nil || cur.typ == "" {
			return fmt.Errorf("exposition line %d: sample %s before any # TYPE", lineNo, name)
		}
		base := name
		suffix := ""
		if cur.typ == "histogram" {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, sfx) && strings.TrimSuffix(name, sfx) == cur.name {
					base, suffix = cur.name, sfx
					break
				}
			}
		}
		if base != cur.name {
			return fmt.Errorf("exposition line %d: sample %s outside its family block (current family %s)",
				lineNo, name, cur.name)
		}
		sampleKey := name + "{" + labelKey(labels) + "}"
		if samples[sampleKey] {
			return fmt.Errorf("exposition line %d: duplicate sample %s", lineNo, sampleKey)
		}
		samples[sampleKey] = true

		v, err := strconv.ParseFloat(value, 64)
		if err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			return fmt.Errorf("exposition line %d: bad value %q", lineNo, value)
		}

		if cur.typ == "histogram" {
			// Key histogram series by their labels minus le.
			var le string
			var rest []string
			for _, kv := range labels {
				if strings.HasPrefix(kv, "le=") {
					le = strings.Trim(kv[3:], `"`)
					continue
				}
				rest = append(rest, kv)
			}
			key := labelKey(rest)
			switch suffix {
			case "_bucket":
				if le == "" {
					return fmt.Errorf("exposition line %d: histogram bucket without le label", lineNo)
				}
				if le == "+Inf" {
					cur.infSeen[key] = v
				} else {
					if _, err := strconv.ParseFloat(le, 64); err != nil {
						return fmt.Errorf("exposition line %d: bad le value %q", lineNo, le)
					}
					prev := cur.buckets[key]
					if len(prev) > 0 && v < prev[len(prev)-1] {
						return fmt.Errorf("exposition line %d: histogram %s buckets not cumulative", lineNo, base)
					}
					cur.buckets[key] = append(prev, v)
				}
			case "_sum":
				cur.sums[key] = true
			case "_count":
				cur.counts[key] = v
				if bs := cur.buckets[key]; len(bs) > 0 && bs[len(bs)-1] > v {
					return fmt.Errorf("exposition line %d: histogram %s bucket exceeds _count", lineNo, base)
				}
			default:
				return fmt.Errorf("exposition line %d: bare sample %s in histogram family", lineNo, name)
			}
			if suffix == "_bucket" && le != "+Inf" {
				if _, seen := cur.infSeen[key]; seen {
					return fmt.Errorf("exposition line %d: bucket after le=\"+Inf\"", lineNo)
				}
			}
		}
	}
	return finishHistogram(cur)
}

// labelKey canonicalizes a label pair list for map keys.
func labelKey(pairs []string) string { return strings.Join(pairs, ",") }

// parseSample splits one sample line into its metric name, label pairs
// (each "key=\"escaped\""), and value text, validating the grammar.
func parseSample(line string) (name string, labels []string, value string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !metricNameRE.MatchString(name) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++ // skip escaped char
				if j < len(rest) {
					switch rest[j] {
					case '\\', '"', 'n':
					default:
						return "", nil, "", fmt.Errorf("illegal escape \\%c in label value", rest[j])
					}
				}
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, "", fmt.Errorf("unterminated label set")
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitLabelPairs(body) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !labelNameRE.MatchString(k) {
				return "", nil, "", fmt.Errorf("bad label pair %q", pair)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, "", fmt.Errorf("label value not quoted in %q", pair)
			}
			labels = append(labels, pair)
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, "", fmt.Errorf("missing space before value")
	}
	value = rest[1:]
	if value == "" || strings.Contains(value, " ") {
		return "", nil, "", fmt.Errorf("bad value field %q", value)
	}
	return name, labels, value, nil
}

// splitLabelPairs splits "a=\"x\",b=\"y\"" on commas outside quotes.
func splitLabelPairs(body string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for j := 0; j < len(body); j++ {
		c := body[j]
		switch {
		case inQuote && c == '\\':
			b.WriteByte(c)
			if j+1 < len(body) {
				j++
				b.WriteByte(body[j])
			}
			continue
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
			continue
		}
		b.WriteByte(c)
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}
