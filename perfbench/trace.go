package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"silkmoth"
)

// span is one timed call the benchmark made into a layer. Spans of one
// sampled request share Req; Parent indexes the span that caused it in
// the same trace (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one goroutine's spans in memory; merge joins them.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.base).Nanoseconds(),
		End:    end.Sub(t.base).Nanoseconds(),
		Parent: parent,
		Req:    req,
	})
	return len(t.spans) - 1
}

// addStages attaches the four stage durations an explain capture reports
// as consecutive child spans starting at start. The engine reports only
// durations, so the children's placement within the parent is nominal.
func (t *tracer) addStages(ex silkmoth.StageTimes, start time.Time, parent int, req int64) {
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"stage.signature", ex.Signature},
		{"stage.collect", ex.Collect},
		{"stage.refine", ex.Refine},
		{"stage.verify", ex.Verify},
	} {
		t.add(st.name, start, start.Add(st.d), parent, req)
		start = start.Add(st.d)
	}
}

// merge concatenates per-goroutine traces, rebasing parent indices.
func merge(ts []*tracer) []span {
	var out []span
	for _, t := range ts {
		off := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// byReq groups spans by request, each group keyed by span name.
func byReq(spans []span) map[int64]map[string]span {
	out := map[int64]map[string]span{}
	for _, s := range spans {
		g := out[s.Req]
		if g == nil {
			g = map[string]span{}
			out[s.Req] = g
		}
		g[s.Name] = s
	}
	return out
}

// writeTrace writes the spans as JSON lines under dir, returning the path.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
