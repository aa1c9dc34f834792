// Command benchjson converts `go test -bench` output into a JSON
// summary while echoing the input through unchanged, so it can sit at
// the end of a benchmark pipeline:
//
//	go test -run '^$' -bench Kernel -benchmem ./... | benchjson -o BENCH_conf.json
//
// The JSON keeps the raw benchmark lines alongside the parsed fields,
// so the original benchstat-compatible text can always be recovered
// from the file (benchstat consumes the "raw" strings directly).
//
// Each repeatable -meta key=value flag adds a line of run metadata to
// the summary's config, so a committed file can say how it was made:
//
//	... | benchjson -o BENCH_ranked.json -meta commit=$(git rev-parse --short HEAD) -meta count=9 -meta benchtime=1s
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. the delay
	// benchmarks' "p50-delay-ns/answer"), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
	Raw   string             `json:"raw"`
}

// File is the schema of the output document.
type File struct {
	// Config holds the `key: value` context lines go test prints before
	// the results (goos, goarch, pkg, cpu), then the -meta pairs.
	Config  map[string]string `json:"config"`
	Results []Result          `json:"results"`
}

// meta is the repeatable -meta key=value flag.
type meta map[string]string

func (m meta) String() string {
	pairs := make([]string, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

func (m meta) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	m[k] = v
	return nil
}

func main() {
	out := flag.String("o", "", "write the JSON summary to this file (required)")
	md := meta{}
	flag.Var(md, "meta", "add `key=value` run metadata to the summary's config (repeatable)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o FILE is required")
		os.Exit(2)
	}

	doc, err := summarize(os.Stdin, os.Stdout, md)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(doc.Results), *out)
}

// summarize parses go test -bench output from in, echoing every line to
// echo (the pipeline stays observable), and adds md to the config.
func summarize(in io.Reader, echo io.Writer, md meta) (File, error) {
	doc := File{Config: map[string]string{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if r, ok := parseBench(line); ok {
			doc.Results = append(doc.Results, r)
			continue
		}
		if k, v, ok := parseConfig(line); ok {
			doc.Config[k] = v
		}
	}
	for k, v := range md {
		doc.Config[k] = v
	}
	return doc, sc.Err()
}

// parseBench parses a benchmark result line:
//
//	BenchmarkFoo/bar-8   1234   5678 ns/op   90 B/op   2 allocs/op
func parseBench(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, NsPerOp: ns, Raw: line}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}

// parseConfig parses the `key: value` context lines (goos, goarch, pkg,
// cpu). Result-status lines (PASS, ok ...) are not key:value shaped and
// fall through.
func parseConfig(line string) (key, val string, ok bool) {
	i := strings.Index(line, ": ")
	if i <= 0 || strings.ContainsAny(line[:i], " \t") {
		return "", "", false
	}
	return line[:i], strings.TrimSpace(line[i+2:]), true
}
