package obsv

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// promSample is one series line read back from an exposition page.
type promSample struct {
	name   string
	labels [][2]string // (name, unescaped value), in rendering order
	value  string
}

// readProm is a strict reader of the Prometheus text format (0.0.4):
// every family has exactly one HELP and one TYPE line, both before its
// samples; label values use only the \\, \" and \n escapes; every value
// parses as a float. Any deviation is an error.
func readProm(text string) ([]promSample, error) {
	if text != "" && !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("page does not end in a newline")
	}
	helps, types := map[string]bool{}, map[string]string{}
	var out []promSample
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if helps[name] || types[name] != "" {
				return nil, fmt.Errorf("%s: HELP repeated or after TYPE", name)
			}
			helps[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if !helps[name] || types[name] != "" {
				return nil, fmt.Errorf("%s: TYPE without HELP, or repeated", name)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("%s: unknown TYPE %q", name, kind)
			}
			types[name] = kind
			continue
		}
		s, err := readSample(line)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", line, err)
		}
		fam := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.name, suf); ok && types[base] == "histogram" {
				fam = base
			}
		}
		if types[fam] == "" {
			return nil, fmt.Errorf("%q: sample before its TYPE line", line)
		}
		out = append(out, s)
	}
	return out, nil
}

func readSample(line string) (promSample, error) {
	var s promSample
	i := 0
	for i < len(line) && (line[i] == '_' || line[i] >= 'a' && line[i] <= 'z' || line[i] >= 'A' && line[i] <= 'Z' || i > 0 && line[i] >= '0' && line[i] <= '9') {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("no metric name")
	}
	s.name, line = line[:i], line[i:]
	if strings.HasPrefix(line, "{") {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			name, rest, ok := strings.Cut(line, `="`)
			if !ok || name == "" {
				return s, fmt.Errorf("bad label pair")
			}
			var val strings.Builder
			j := 0
			for ; j < len(rest) && rest[j] != '"'; j++ {
				if rest[j] != '\\' {
					val.WriteByte(rest[j])
					continue
				}
				if j++; j == len(rest) {
					return s, fmt.Errorf("dangling escape")
				}
				switch rest[j] {
				case '\\', '"':
					val.WriteByte(rest[j])
				case 'n':
					val.WriteByte('\n')
				default:
					return s, fmt.Errorf("escape \\%c is not in the text format", rest[j])
				}
			}
			if j == len(rest) {
				return s, fmt.Errorf("unterminated label value")
			}
			s.labels = append(s.labels, [2]string{name, val.String()})
			line = rest[j+1:]
			if strings.HasPrefix(line, ",") {
				line = line[1:]
			} else if !strings.HasPrefix(line, "}") {
				return s, fmt.Errorf("label pairs not separated by a comma")
			}
		}
		line = line[1:]
	}
	v, ok := strings.CutPrefix(line, " ")
	if !ok {
		return s, fmt.Errorf("no space before the value")
	}
	if _, err := strconv.ParseFloat(v, 64); err != nil {
		return s, fmt.Errorf("value %q: %w", v, err)
	}
	s.value = v
	return s, nil
}

// find returns the value of the one series of name with exactly the
// given label pairs.
func find(t *testing.T, samples []promSample, name string, labels ...[2]string) string {
	t.Helper()
	var got []string
	for _, s := range samples {
		if s.name == name && slices.Equal(s.labels, labels) {
			got = append(got, s.value)
		}
	}
	if len(got) != 1 {
		t.Fatalf("%s%v: %d series, want 1", name, labels, len(got))
	}
	return got[0]
}

// FuzzWriteProm renders a registry built from arbitrary label values
// and reads it back strictly: every series must round-trip to its label
// values and value, integers exactly.
func FuzzWriteProm(f *testing.F) {
	// Regression seeds live in testdata/fuzz/FuzzWriteProm.
	f.Fuzz(func(t *testing.T, a, b string, n uint64, x float64) {
		r := NewRegistry()
		r.Counter("fz_total", "Counter.", "a", "b").With(a, b).Add(n)
		r.Histogram("fz_seconds", "Histogram.", []float64{0.5, 2}, "a").With(a).Observe(1)
		Func(r, "fz_gauge", "Integer gauge.", "gauge", []string{"v"}, func(emit func(uint64, ...string)) { emit(n, b) })
		Func(r, "fz_ratio", "Float gauge.", "gauge", []string{"v", "w"}, func(emit func(float64, ...string)) { emit(x, a, b) })
		Func(r, "fz_absent", "Emits nothing.", "gauge", nil, func(func(int, ...string)) {})

		var buf bytes.Buffer
		r.WriteProm(&buf)
		page := buf.String()
		samples, err := readProm(page)
		if err != nil {
			t.Fatalf("strict read: %v\n%s", err, page)
		}
		ab := [][2]string{{"a", a}, {"b", b}}
		if got := find(t, samples, "fz_total", ab...); got != strconv.FormatUint(n, 10) {
			t.Fatalf("counter = %s, want %d", got, n)
		}
		if got := find(t, samples, "fz_gauge", [2]string{"v", b}); got != strconv.FormatUint(n, 10) {
			t.Fatalf("gauge = %s, want %d", got, n)
		}
		got, _ := strconv.ParseFloat(find(t, samples, "fz_ratio", [2]string{"v", a}, [2]string{"w", b}), 64)
		if got != x && !(math.IsNaN(got) && math.IsNaN(x)) {
			t.Fatalf("float gauge = %g, want %g", got, x)
		}
		if got := find(t, samples, "fz_seconds_bucket", [2]string{"a", a}, [2]string{"le", "2"}); got != "1" {
			t.Fatalf("bucket le=2 = %s, want 1", got)
		}
		if got := find(t, samples, "fz_seconds_count", [2]string{"a", a}); got != "1" {
			t.Fatalf("histogram count = %s, want 1", got)
		}
		if strings.Contains(page, "fz_absent") {
			t.Fatalf("empty scrape-time family rendered:\n%s", page)
		}
	})
}
