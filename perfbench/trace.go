package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call in a traced run. Req groups the spans of one
// job or request; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps the spans of a traced run in memory. The calls a job makes
// on every run (newReq, begin, end) do nothing on a nil *tracer, so
// untraced jobs take the same path at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
	reqs  int
}

// newReq returns a fresh request id (0 on a nil tracer).
func (t *tracer) newReq() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// get returns the span begin returned as id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes the span begin returned and returns its duration (0 on a
// nil tracer).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// add records a span that completed elsewhere (a program-emitted one).
func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: start.Add(d)})
}

// sink adapts the tracer to the program's observability sink: every span
// the program emits is recorded under parent with request id req.
func (t *tracer) sink(parent, req int) obs.Sink { return obsSink{t, parent, req} }

type obsSink struct {
	t           *tracer
	parent, req int
}

func (s obsSink) Span(sp obs.Span)      { s.t.add(sp.Phase, s.parent, s.req, sp.Start, sp.Duration) }
func (s obsSink) Progress(obs.Progress) {}
func (s obsSink) Note(obs.Note)         {}

// addJSONSpans records the span events of a fim.Options.TraceWriter
// stream under parent.
func (t *tracer) addJSONSpans(stream []byte, parent, req int) error {
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Event    string    `json:"event"`
			Phase    string    `json:"phase"`
			Start    time.Time `json:"start"`
			Duration int64     `json:"duration"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		if ev.Event == "span" {
			t.add(ev.Phase, parent, req, ev.Start, time.Duration(ev.Duration))
		}
	}
	return sc.Err()
}

// durations returns the durations (ms) of the spans named name.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spansUnder returns the spans named name that descend from a span named
// root.
func (t *tracer) spansUnder(name, root string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			if t.spans[p-1].Name == root {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// write stores the spans as JSON lines followed by one self-time line.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	selfMs := make(map[string]float64, len(self))
	for name, d := range self {
		selfMs[name] = ms(d)
	}
	enc.Encode(map[string]any{"self_ms": selfMs})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
