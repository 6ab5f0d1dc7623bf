package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanLayers are the layers spans are attributed to, by the prefix of the
// span name: the benchmark's own op roots, the client's HTTP calls (whose
// self time is server time not covered by a decorated call), and the
// repository modules the decorators and direct calls wrap.
var spanLayers = []string{"bench", "http", "asm", "soc", "rv32", "serve", "telemetry", "cover"}

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the span that caused it,
// Op the session stimulus, campaign or row run it belongs to.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer hands
// out ID 0 and records nothing, so untraced runs pay one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
	ops   map[string]*opRef // by session stimulus
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), ops: map[string]*opRef{}}
}

// opRef ties server-side spans to the client op that caused them: the
// client stores its in-flight request span in cur before each call, and the
// decorators, which only see the session spec, look the op up by stimulus.
type opRef struct {
	name     string // session stimulus or campaign ID
	stimulus string
	cur      atomic.Uint64
}

// newID allocates a span ID up front so children recorded before the
// parent ends can point at it.
func (t *tracer) newID() uint64 {
	if !t.on {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a pre-allocated ID.
func (t *tracer) add(id, parent uint64, name, op string, start, end time.Time) {
	if !t.on || id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// leaf records a span that has no children.
func (t *tracer) leaf(parent uint64, name, op string, start, end time.Time) {
	t.add(t.newID(), parent, name, op, start, end)
}

// bind registers the op a stimulus belongs to; the client calls it before
// submitting, the decorators call lookup.
func (t *tracer) bind(stimulus string, op *opRef) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.ops[stimulus] = op
	t.mu.Unlock()
}

func (t *tracer) unbind(stimulus string) {
	if !t.on {
		return
	}
	t.mu.Lock()
	delete(t.ops, stimulus)
	t.mu.Unlock()
}

// lookup returns the op for a stimulus, or nil.
func (t *tracer) lookup(stimulus string) *opRef {
	if !t.on {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops[stimulus]
}

// parentOf returns the op's in-flight client span and the op's name.
func parentOf(op *opRef) (uint64, string) {
	if op == nil {
		return 0, ""
	}
	return op.cur.Load(), op.name
}

// layerOf maps a span name to its layer, the prefix before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredNs(children[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs returns how much of [lo, hi) the union of ivs covers.
func coveredNs(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	flush := func() {
		a, b := max(cur[0], lo), min(cur[1], hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs {
		if iv[0] > cur[1] {
			flush()
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	flush()
	return total
}

// setSelfTimes reports per-layer self time and the span count.
func (t *tracer) setSelfTimes(r *report) {
	st := t.selfTimes()
	for _, layer := range spanLayers {
		r.set("self."+layer+"_ms", ms(st[layer]))
	}
	t.mu.Lock()
	r.set("bench.spans", float64(len(t.spans)))
	t.mu.Unlock()
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Epoch    string `json:"epoch"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.epoch.UTC().Format(time.RFC3339Nano), t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
