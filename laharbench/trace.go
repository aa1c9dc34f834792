package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// its index; a request's root span has parent -1.
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; write saves them at
// exit. A nil *tracer records nothing, so the untraced requests share the
// traced code without paying for it beyond a nil check.
type tracer struct {
	t0    time.Time
	pass  string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens request req's root span at start; end closes it.
func (t *tracer) root(req int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Pass: t.pass, Name: "request", Req: req, ID: len(t.spans), Parent: -1, Start: start.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, end time.Time) {
	if t != nil {
		t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	}
}

// child records a span under the root span parent.
func (t *tracer) child(parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, Req: t.spans[parent].Req, ID: len(t.spans), Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// extra records a span of request req that lies outside its root, such as
// an extra measurement made after the request.
func (t *tracer) extra(req int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, Req: req, ID: len(t.spans), Parent: -1,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// perRequest returns, for requests [0, n) of a pass, the summed duration in
// milliseconds of their spans with the given name (0 where a request has
// none).
func (t *tracer) perRequest(pass, name string, n int) []float64 {
	out := make([]float64, n)
	for _, s := range t.spans {
		if s.Pass == pass && s.Name == name && s.Req >= 0 && s.Req < n {
			out[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// p50 is the median over requests [0, n) of a pass's per-request span time.
func (t *tracer) p50(pass, name string, n int) float64 {
	return nearestRank(t.perRequest(pass, name, n), 0.5)
}

// selfP50 is the median over requests of the upper pass's root span minus
// the lower pass's root span for the same request: the time the upper
// layer spent in itself.
func (t *tracer) selfP50(upper, lower string, n int) float64 {
	up, low := t.perRequest(upper, "request", n), t.perRequest(lower, "request", n)
	for i := range up {
		up[i] -= low[i]
	}
	return nearestRank(up, 0.5)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
