package main

// Extra-metric classification. Direction is inferred from the metric
// name so new suites gate correctly without benchcmp changes; the class
// tag is printed next to each diff line.

import "strings"

// metricClass is the diff behaviour of one Extra metric.
type metricClass struct {
	// dir: +1 higher is better (throughput), -1 lower is better
	// (latency, burn, memory), 0 informational only.
	dir int
	// tag is the label printed in the diff ("rate", "time", "burn-rate",
	// "memory", "info").
	tag string
}

// burnAbsFloor damps burn-rate gating near zero: these metrics are
// ratios/percentages that legitimately sit at ~0, where a relative
// threshold amplifies noise (0.001 → 0.002 is "+100%"). An increase
// must also exceed this floor, in the metric's own unit, to gate.
const burnAbsFloor = 0.1

// classifyMetric maps an Extra metric name to its class. Precedence:
// extreme-value metrics are pinned informational first, then the SLO
// burn family (error-budget burn, shed/miss/error percentages — lower
// is better), then throughput rates, then times, then retained memory
// ("…-mb", lower is better).
func classifyMetric(name string) metricClass {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "max-delay"), strings.Contains(n, "ttfa"):
		// Extreme-value statistics: the single worst observation per
		// run, or the one-off time to first answer. Their run-to-run
		// spread on a shared 1-CPU box exceeds any usable threshold
		// (the untouched reference path swings >30%), so they are
		// reported but never gate — p50-delay gates in their place.
		return metricClass{0, "info"}
	case strings.Contains(n, "burn"), strings.Contains(n, "shed"),
		strings.Contains(n, "miss-pct"), strings.Contains(n, "miss-rate"),
		strings.Contains(n, "err-pct"), strings.Contains(n, "error-rate"):
		return metricClass{-1, "burn-rate"}
	case strings.HasSuffix(n, "/sec"), strings.HasSuffix(n, "/s"),
		strings.Contains(n, "per-sec"), strings.Contains(n, "persec"):
		return metricClass{+1, "rate"}
	case strings.Contains(n, "delay"), strings.Contains(n, "latency"),
		strings.HasSuffix(n, "-ns"), strings.HasSuffix(n, "ns/op"),
		strings.HasSuffix(n, "_ns"):
		return metricClass{-1, "time"}
	case strings.HasSuffix(n, "-mb"):
		return metricClass{-1, "memory"}
	}
	return metricClass{0, "info"}
}

// metricRegressed reports whether the (old, new) pair is a gating
// regression for the class at the given relative threshold (percent).
func metricRegressed(c metricClass, ov, nv, mdelta, threshold float64) bool {
	switch c.dir {
	case +1:
		return mdelta < -threshold
	case -1:
		if c.tag == "burn-rate" && nv-ov < burnAbsFloor {
			return false
		}
		return mdelta > threshold
	}
	return false
}
