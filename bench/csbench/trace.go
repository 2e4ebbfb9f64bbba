package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent is the ID of the span that caused this one (0 for the query's
// root).
type span struct {
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer returns a tracer with room for n spans, so recording does
// not reallocate inside the timed pass.
func newTracer(n int) *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, n)} }

// begin opens a span and returns its ID.
func (t *tracer) begin(query, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Query: query, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes the span; a non-empty name replaces the one given at begin
// (for layers whose label depends on what the call did).
func (t *tracer) end(id int, name string) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	if name != "" {
		s.Name = name
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children count
// once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// coverage is the share of the root spans' time that their descendants'
// self time accounts for: what is left over is the harness's own glue
// between layer calls.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var roots, layers int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.End - s.Start
		} else {
			layers += self[s.ID]
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(layers) / float64(roots)
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
