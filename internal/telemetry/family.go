package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Family is one metric family as data: its name, type and help, declared
// once next to the instruments that feed it, and one Sample per labelled
// series. A Report carries every family of a scrape, so /metrics and
// `flymonctl stats -metrics` render the same list with the same writer
// (WriteText).
type Family struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"` // counter, gauge or histogram
	Help    string   `json:"help"`
	Samples []Sample `json:"samples,omitempty"`
}

// Sample is one series of a family. Labels alternate key and value. Value
// is the count or gauge reading, in nanoseconds when the family name ends
// in _seconds; Hist is set instead in a histogram family.
type Sample struct {
	Labels []string           `json:"labels,omitempty"`
	Value  uint64             `json:"value,omitempty"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// FamilySource contributes families to every Report of the registry it is
// attached to (AddFamilySource): the hook for planes telemetry cannot
// import, such as the tracer.
type FamilySource interface {
	Families() []Family
}

// sample builds one series; labels alternate key and value.
func sample(v uint64, labels ...string) Sample { return Sample{Labels: labels, Value: v} }

// histSample builds one histogram series.
func histSample(h HistogramSnapshot, labels ...string) Sample {
	return Sample{Labels: labels, Hist: &h}
}

func itoa(i int) string { return strconv.Itoa(i) }

func boolValue(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// catalogue collects the families of one scrape in declaration order.
type catalogue []Family

func (c *catalogue) add(typ, name, help string, samples []Sample) {
	*c = append(*c, Family{Name: name, Type: typ, Help: help, Samples: samples})
}

func (c *catalogue) counter(name, help string, s ...Sample)   { c.add("counter", name, help, s) }
func (c *catalogue) gauge(name, help string, s ...Sample)     { c.add("gauge", name, help, s) }
func (c *catalogue) histogram(name, help string, s ...Sample) { c.add("histogram", name, help, s) }

// WriteText renders families in the Prometheus text exposition format:
// HELP and TYPE once per family, then its series. A family without series
// is left out. Label values are escaped here and nowhere else, so no
// peer-supplied text (an RPC method, a span name) can end a sample early.
func WriteText(w io.Writer, fams []Family) error {
	b := bufio.NewWriter(w)
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		seconds := strings.HasSuffix(f.Name, "_seconds")
		for _, s := range f.Samples {
			switch {
			case s.Hist != nil:
				writeHist(b, f.Name, s.Labels, s.Hist)
			case seconds:
				fmt.Fprintf(b, "%s%s %g\n", f.Name, labelText(s.Labels), float64(s.Value)/1e9)
			default:
				fmt.Fprintf(b, "%s%s %d\n", f.Name, labelText(s.Labels), s.Value)
			}
		}
	}
	return b.Flush()
}

// writeHist renders one histogram series as cumulative buckets. Only the
// buckets from the first non-empty one on are written (31 lines per series
// is noise; cumulative counts stay correct), then +Inf, _sum and _count.
func writeHist(b *bufio.Writer, name string, labels []string, h *HistogramSnapshot) {
	var cum uint64
	for i, n := range h.Buckets[:HistogramBuckets-1] {
		cum += n
		if cum == 0 {
			continue
		}
		le := strconv.FormatFloat(float64(BucketUpperNs(i))/1e9, 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelText(slices.Concat(labels, []string{"le", le})), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelText(slices.Concat(labels, []string{"le", "+Inf"})), h.Count)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labelText(labels), float64(h.SumNs)/1e9)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelText(labels), h.Count)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelText renders alternating key, value pairs as {k="v",...}.
func labelText(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var s strings.Builder
	s.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			s.WriteByte(',')
		}
		s.WriteString(kv[i])
		s.WriteString(`="`)
		labelEscaper.WriteString(&s, kv[i+1])
		s.WriteByte('"')
	}
	s.WriteByte('}')
	return s.String()
}
