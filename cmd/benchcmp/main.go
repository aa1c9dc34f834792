// Command benchcmp diffs two benchjson summaries (see cmd/benchjson)
// and fails when a named hot benchmark regressed:
//
//	go run ./cmd/benchcmp -old BENCH_sliding.base.json -new BENCH_sliding.json \
//	    -match 'SlidingTopK|TopKAcross' -threshold 10
//
// Every benchmark present in both files is printed with its ns/op
// delta; benchmarks whose name matches -match are gating — if any of
// them got slower by more than -threshold percent, benchcmp prints the
// offenders and exits 1. Improvements and non-matching benchmarks never
// fail the run, so the gate can sit in CI without being tripped by
// experiments that are expected to move.
//
// Extra metrics reported via b.ReportMetric (TTFA, per-answer delay,
// windows/sec, pruned-cells/op, ...) are diffed too, for every metric
// present in both files. Direction is inferred from the metric name:
// rates ("…/sec", "…-per-sec") regress by going down, times ("…delay…",
// "…ns", "…latency…") by going up, and anything else is informational
// only. Extreme-value metrics ("…max-delay…", "…ttfa…") are always
// informational: a single worst observation is too noisy to gate.
// SLO burn metrics ("burn", "shed-pct", "…miss-pct", "err-pct" — see
// cmd/sloharness) form their own lower-is-better class, gated with an
// absolute-increase floor so ratios idling near zero don't trip the
// relative threshold on noise. Memory metrics ("…-MB", like live-MB)
// regress by going up. Regressions beyond -extra-threshold percent on
// gating benchmarks fail the run like an ns/op regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// result mirrors the fields of cmd/benchjson's Result that the diff
// needs; unknown fields are ignored by encoding/json.
type result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

type file struct {
	Results []result `json:"results"`
}

func load(path string) (map[string]result, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]result, len(f.Results))
	var order []string
	for _, r := range f.Results {
		if _, dup := byName[r.Name]; !dup {
			order = append(order, r.Name)
		}
		// Duplicate names (e.g. -count > 1) keep the last run, matching
		// benchstat's "latest wins" reading of a single file.
		byName[r.Name] = r
	}
	return byName, order, nil
}

func main() {
	oldPath := flag.String("old", "", "baseline benchjson file (required)")
	newPath := flag.String("new", "", "candidate benchjson file (required)")
	match := flag.String("match", "SlidingTopK|TopKAcross", "regexp of gating benchmark names")
	threshold := flag.Float64("threshold", 10, "max allowed ns/op regression in percent for gating benchmarks")
	extraThreshold := flag.Float64("extra-threshold", 15, "max allowed Extra-metric regression in percent for gating benchmarks")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -old FILE and -new FILE are required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: bad -match: %v\n", err)
		os.Exit(2)
	}
	oldR, _, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	newR, order, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	var missing, failures []string
	fmt.Printf("%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range order {
		nr := newR[name]
		or, ok := oldR[name]
		if !ok {
			fmt.Printf("%-60s %14s %14.0f %8s\n", name, "-", nr.NsPerOp, "new")
			continue
		}
		delta := 0.0
		if or.NsPerOp > 0 {
			delta = (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		}
		gate := " "
		if re.MatchString(name) {
			gate = "*"
			if delta > *threshold {
				failures = append(failures, fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%% > %.1f%%)",
					name, or.NsPerOp, nr.NsPerOp, delta, *threshold))
			}
		}
		fmt.Printf("%-59s%s %14.0f %14.0f %+7.1f%%\n", name, gate, or.NsPerOp, nr.NsPerOp, delta)

		// Extra metrics present in both runs, in a stable order.
		var metrics []string
		for k := range nr.Extra {
			if _, both := or.Extra[k]; both {
				metrics = append(metrics, k)
			}
		}
		sort.Strings(metrics)
		for _, k := range metrics {
			ov, nv := or.Extra[k], nr.Extra[k]
			mdelta := 0.0
			if ov != 0 {
				mdelta = (nv - ov) / ov * 100
			}
			c := classifyMetric(k)
			regressed := metricRegressed(c, ov, nv, mdelta, *extraThreshold)
			if gate == "*" && regressed {
				failures = append(failures, fmt.Sprintf("%s %s: %.4g → %.4g (%+.1f%% beyond %.1f%%)",
					name, k, ov, nv, mdelta, *extraThreshold))
			}
			fmt.Printf("    %-56s %14.4g %14.4g %+7.1f%%  [%s]\n", k, ov, nv, mdelta, c.tag)
		}
	}
	for name := range oldR {
		if _, ok := newR[name]; !ok && re.MatchString(name) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("%-60s %14s %14s %8s\n", name, "-", "-", "gone")
	}

	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d gating benchmark(s) missing from %s:\n", len(missing), *newPath)
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		os.Exit(1)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d gating regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchcmp: no gating regression")
}
