package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// Span depths. The traced replay is serial (one client, one op in flight),
// so a span's parent is the innermost open span of a lower depth: interval
// containment on the monotonic clock, no header propagation needed.
const (
	depthOp     = iota // loadgen.op: one scheduled operation
	depthCall          // client.call (HTTP round trip) or a direct library call
	depthRouter        // router.serve
	depthShard         // shard.serve
	nDepths
)

// span is one timed interval: name, start, end, the span that caused it and
// the op it belongs to. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 = root
	Op     int    `json:"op"`     // op sequence number, -1 = outside any op
	Verb   string `json:"verb,omitempty"`
	// Stratum is the op's latency stratum (see stratifiedP50).
	Stratum int `json:"stratum"`
	depth   int
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs execute the same code without it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  [nDepths]int // innermost open span per depth, -1 = none
	cur   op           // the op in flight; Seq -1 = none
	// paused drops begin calls; set only while no request is in flight.
	paused bool
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), cur: op{Seq: -1}}
	for i := range r.open {
		r.open[i] = -1
	}
	return r
}

// beginOp opens the root span of one op; spans begun before its end belong
// to it.
func (r *recorder) beginOp(o op) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.cur = o
	r.mu.Unlock()
	return r.begin("loadgen.op", depthOp)
}

func (r *recorder) begin(name string, depth int) int {
	if r == nil || r.paused {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	for d := depth - 1; d >= 0 && parent < 0; d-- {
		parent = r.open[d]
	}
	sp := span{Name: name, Start: now, End: -1, Parent: parent, Op: -1, depth: depth}
	if parent >= 0 || depth == depthOp {
		// Otherwise: background or layer-pass work, not part of an op.
		sp.Op, sp.Verb, sp.Stratum = r.cur.Seq, r.cur.Verb.String(), r.cur.Stratum
	}
	r.spans = append(r.spans, sp)
	id := len(r.spans) - 1
	r.open[depth] = id
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id]
	sp.End = now
	if r.open[sp.depth] == id {
		r.open[sp.depth] = -1
	}
	if sp.depth == depthOp {
		r.cur = op{Seq: -1}
	}
}

// handler wraps an http.Handler in a span.
func (r *recorder) handler(name string, depth int, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.begin(name, depth)
		defer r.end(id)
		next.ServeHTTP(w, req)
	})
}

// transport wraps the load generator's http.RoundTripper in a client.call
// span that ends when the response body is closed, so it covers the body
// transfer and not just the time to the response headers.
func (r *recorder) transport(base http.RoundTripper) http.RoundTripper {
	if r == nil {
		return base
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		id := r.begin("client.call", depthCall)
		resp, err := base.RoundTrip(req)
		if err != nil {
			r.end(id)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { r.end(id) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover (overlapping children, as in a replicated put's two shard
// spans, are counted once).
func (r *recorder) selfTimes() []time.Duration {
	children := make([][][2]int64, len(r.spans))
	for _, sp := range r.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	out := make([]time.Duration, len(r.spans))
	for i, sp := range r.spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), sp.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], sp.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[i] = time.Duration(sp.End - sp.Start - covered)
	}
	return out
}

// write dumps the spans as a JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
