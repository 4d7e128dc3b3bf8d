package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call: its name, its interval in nanoseconds since the
// trace started, and the index of the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so the untraced loop runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// add records an already finished span, given as offsets from t0.
func (t *tracer) add(name string, start, end int64, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return len(t.spans) - 1
}

// since is now as an offset from t0.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime sums the spans of one name: how many, their total duration
// (busy), and their self time — duration minus the part of it that child
// spans cover, overlapping children counted once.
type layerTime struct {
	Name  string
	Count int
	Busy  time.Duration
	Self  time.Duration
}

// layerTimes aggregates spans by name, sorted by name.
func layerTimes(spans []span) []layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Busy += time.Duration(d)
		lt.Self += time.Duration(d - covered(children[i], s.Start, s.End))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range s {
		if iv[0] > curHi {
			flush()
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	flush()
	return total
}

// busy returns the total duration of the spans named name.
func busy(lts []layerTime, name string) time.Duration {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.Busy
		}
	}
	return 0
}

// calls returns the number of spans named name.
func calls(lts []layerTime, name string) int {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.Count
		}
	}
	return 0
}
