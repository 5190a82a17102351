package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It
// keeps them in memory and writes them out once, at exit. A nil *tracer
// records nothing, so the untraced run executes the same code.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// span is one finished call: its own id, the span that caused it, the id
// of the op (root span) it belongs to, and its interval in ns since t0.
type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a span in progress. The zero value (from a nil tracer) is
// inert: its children are inert too and end does nothing.
type spanRef struct {
	tr             *tracer
	id, parent, op uint64
	name           string
	start          int64
}

// root starts a span with no parent: one op, or one set-up step.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.nextID.Add(1)
	return spanRef{tr: t, id: id, op: id, name: name, start: int64(time.Since(t.t0))}
}

// child starts a span caused by s.
func (s spanRef) child(name string) spanRef {
	if s.tr == nil {
		return spanRef{}
	}
	return spanRef{tr: s.tr, id: s.tr.nextID.Add(1), parent: s.id, op: s.op, name: name, start: int64(time.Since(s.tr.t0))}
}

func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	end := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name, Start: s.start, End: end})
	s.tr.mu.Unlock()
}

// spanStats holds, per span name, every duration and every self time: the
// duration minus the part of the interval its children cover.
type spanStats struct {
	dur, self map[string][]time.Duration
}

func (t *tracer) stats() spanStats {
	st := spanStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], self[i])
	}
	return st
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span.
func selfTimes(spans []span) []time.Duration {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	self := selfTimes(t.spans)
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"dur_ns":%d,"self_ns":%d}`+"\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start, s.End-s.Start, int64(self[i]))
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
