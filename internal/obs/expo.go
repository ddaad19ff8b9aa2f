package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4): families sorted by name, each preceded by its
// # HELP and # TYPE lines, label values escaped per the spec. Callback
// families are sampled here.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// write renders one family block.
func (f *family) write(w *bufio.Writer) error {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.fn()))
		return nil
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sers := make([]*series, len(keys))
	for i, k := range keys {
		sers[i] = f.series[k]
	}
	f.mu.Unlock()
	for _, s := range sers {
		switch f.typ {
		case "histogram":
			f.writeHistogram(w, s)
		default: // counter
			fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(f.labels, s.labelVals, "", ""),
				s.counter.Load())
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket samples
// (including +Inf), then _sum and _count.
func (f *family) writeHistogram(w *bufio.Writer, s *series) {
	cum, count, sum := s.hist.snapshot()
	for i, bound := range s.hist.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			renderLabels(f.labels, s.labelVals, "le", formatValue(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
		renderLabels(f.labels, s.labelVals, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
		renderLabels(f.labels, s.labelVals, "", ""), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name,
		renderLabels(f.labels, s.labelVals, "", ""), count)
}

// renderLabels renders a {k="v",...} label set, appending the extra pair
// (the histogram "le" label) when extraKey is non-empty. Returns "" for
// an empty set.
func renderLabels(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes help text: backslash and newline (quotes are legal).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float sample value.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
