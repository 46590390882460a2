package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spans is the benchmark's own span recorder: one span around each call
// it makes into a layer's public function, nested by call order, kept in
// memory and written out when the run ends. It is used from one
// goroutine only.
type spans struct {
	t0    time.Time
	list  []spanRec
	stack []int
}

// spanRec is one finished (or open) span; times are microseconds since
// the recorder started.
type spanRec struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) since(t time.Time) float64 { return float64(t.Sub(s.t0)) / 1e3 }

// begin opens a span under the innermost open one.
func (s *spans) begin(layer, name string) int {
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, spanRec{ID: id, Parent: parent, Layer: layer, Name: name, Start: s.since(time.Now())})
	s.stack = append(s.stack, id)
	return id
}

// end closes the innermost span, which must be id, and returns its length.
func (s *spans) end(id int) time.Duration {
	s.list[id].End = s.since(time.Now())
	s.stack = s.stack[:len(s.stack)-1]
	return time.Duration((s.list[id].End - s.list[id].Start) * 1e3)
}

// time runs f inside a span and returns the span's length.
func (s *spans) time(layer, name string, f func()) time.Duration {
	id := s.begin(layer, name)
	f()
	return s.end(id)
}

// add records a finished root span measured elsewhere (the fleet
// middleware's requests).
func (s *spans) add(layer, name string, start, end time.Time) {
	s.list = append(s.list, spanRec{ID: len(s.list), Parent: -1, Layer: layer, Name: name,
		Start: s.since(start), End: s.since(end)})
}

// selfTimes sums, per layer, each span's length minus the part its
// child spans cover.
func (s *spans) selfTimes() map[string]time.Duration {
	child := make([]float64, len(s.list))
	for _, r := range s.list {
		if r.Parent >= 0 {
			child[r.Parent] += r.End - r.Start
		}
	}
	self := map[string]time.Duration{}
	for i, r := range s.list {
		self[r.Layer] += time.Duration((r.End - r.Start - child[i]) * 1e3)
	}
	return self
}

// write stores the spans as JSON lines under dir and returns the path.
func (s *spans) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, r := range s.list {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
