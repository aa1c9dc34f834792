package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestMetaFlag checks that repeated -meta key=value flags land in the
// summary's config next to go test's context lines, and that a
// malformed pair is rejected.
func TestMetaFlag(t *testing.T) {
	md := meta{}
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(md, "meta", "")
	if err := fs.Parse([]string{"-meta", "commit=abc123", "-meta", "count=9", "-meta", "benchtime=1s", "-meta", "note=a=b"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"commit", "=x"} {
		if err := fs.Parse([]string{"-meta", bad}); err == nil {
			t.Errorf("-meta %q parsed, want an error", bad)
		}
	}
	in := "goos: linux\npkg: markovseq/internal/ranked\n" +
		"BenchmarkX-2   \t       5\t 206591544 ns/op\t        75.74 live-MB\t110261396 B/op\t   88645 allocs/op\nPASS\n"
	var echo strings.Builder
	doc, err := summarize(strings.NewReader(in), &echo, md)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != in {
		t.Errorf("echoed %q, want the input unchanged", echo.String())
	}
	want := map[string]string{"goos": "linux", "pkg": "markovseq/internal/ranked",
		"commit": "abc123", "count": "9", "benchtime": "1s", "note": "a=b"}
	if len(doc.Config) != len(want) {
		t.Errorf("config %v, want %v", doc.Config, want)
	}
	for k, v := range want {
		if doc.Config[k] != v {
			t.Errorf("config[%q] = %q, want %q", k, doc.Config[k], v)
		}
	}
	if len(doc.Results) != 1 || doc.Results[0].Extra["live-MB"] != 75.74 {
		t.Errorf("results %+v, want BenchmarkX with live-MB 75.74", doc.Results)
	}
}
