package main

import "testing"

func TestClassifyMetric(t *testing.T) {
	cases := []struct {
		name string
		dir  int
		tag  string
	}{
		// Throughput rates: higher is better.
		{"windows/sec", +1, "rate"},
		{"events/sec", +1, "rate"},
		{"answers-per-sec", +1, "rate"},
		{"qps", 0, "info"}, // no recognized suffix: informational
		// Times: lower is better.
		{"p50-delay-ns/answer", -1, "time"},
		{"p99-ns", -1, "time"},
		{"latency_ns", -1, "time"},
		// Extreme-value metrics are pinned informational even though
		// they look like times.
		{"max-delay-ns/answer", 0, "info"},
		{"ttfa-p99-ns", 0, "info"},
		{"ttfa-ns", 0, "info"},
		// The SLO burn family: lower is better, own class.
		{"burn", -1, "burn-rate"},
		{"shed-pct", -1, "burn-rate"},
		{"deadline-miss-pct", -1, "burn-rate"},
		{"err-pct", -1, "burn-rate"},
		{"error-rate", -1, "burn-rate"},
		// Retained memory: lower is better.
		{"live-MB", -1, "memory"},
		{"heap-mb", -1, "memory"},
		{"mb-per-append", 0, "info"}, // the suffix, not a substring
		// Unknown names never gate.
		{"pruned-cells/op", 0, "info"},
	}
	for _, c := range cases {
		got := classifyMetric(c.name)
		if got.dir != c.dir || got.tag != c.tag {
			t.Errorf("classifyMetric(%q) = {%d %q}, want {%d %q}",
				c.name, got.dir, got.tag, c.dir, c.tag)
		}
	}
}

func TestMetricRegressed(t *testing.T) {
	const th = 15.0
	rate := classifyMetric("windows/sec")
	tm := classifyMetric("p99-ns")
	burn := classifyMetric("burn")
	mem := classifyMetric("live-MB")
	info := classifyMetric("qps")

	cases := []struct {
		name   string
		c      metricClass
		ov, nv float64
		want   bool
	}{
		{"rate drop beyond threshold fails", rate, 100, 80, true},
		{"rate drop within threshold passes", rate, 100, 90, false},
		{"rate increase passes", rate, 100, 200, false},
		{"time increase beyond threshold fails", tm, 100, 130, true},
		{"time decrease passes", tm, 130, 100, false},
		{"burn increase beyond threshold and floor fails", burn, 0.5, 1.2, true},
		{"burn decrease passes", burn, 1.2, 0.5, false},
		// The absolute floor: +100% relative but +0.002 absolute is
		// noise on a ratio that idles near zero.
		{"burn noise near zero passes", burn, 0.002, 0.004, false},
		{"memory growth beyond threshold fails", mem, 50, 60, true},
		{"memory growth within threshold passes", mem, 50, 55, false},
		{"memory drop passes", mem, 95, 75, false},
		{"info never gates", info, 100, 1000, false},
	}
	for _, c := range cases {
		mdelta := 0.0
		if c.ov != 0 {
			mdelta = (c.nv - c.ov) / c.ov * 100
		}
		if got := metricRegressed(c.c, c.ov, c.nv, mdelta, th); got != c.want {
			t.Errorf("%s: metricRegressed = %v, want %v", c.name, got, c.want)
		}
	}
}
