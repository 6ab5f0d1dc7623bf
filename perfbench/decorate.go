package main

import (
	"sync"
	"sync/atomic"
	"time"

	"vpdift/internal/cover"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
)

// meters accumulates what the decorators time inside the server. One set
// covers one measurement phase.
type meters struct {
	mu       sync.Mutex
	key      samples
	build    samples
	get      samples
	put      samples
	chunk    samples
	capture  samples
	hits     int
	misses   int
	instret  uint64
	sessions int // platforms built
}

func (m *meters) observe(dst *samples, d time.Duration) {
	m.mu.Lock()
	*dst = append(*dst, d)
	m.mu.Unlock()
}

// probes is what every decorator reports into. The phase pointer is swapped
// between the untraced and the traced phase of a run, so each phase starts
// from empty meters.
type probes struct {
	cur atomic.Pointer[phase]
}

type phase struct {
	m  *meters
	tr *tracer
}

func newProbes(tr *tracer) *probes {
	p := &probes{}
	p.reset(tr)
	return p
}

func (p *probes) reset(tr *tracer) { p.cur.Store(&phase{m: &meters{}, tr: tr}) }
func (p *probes) get() *phase      { return p.cur.Load() }

// timedFactory decorates a telemetry.SessionFactory, timing Key and Build
// and wrapping each built platform and coverage closure in timers too.
type timedFactory struct {
	inner telemetry.SessionFactory
	p     *probes
}

var _ telemetry.SessionFactory = (*timedFactory)(nil)

func (f *timedFactory) Key(spec telemetry.SessionSpec) (string, error) {
	ph := f.p.get()
	ref := ph.tr.lookup(spec.Stimulus)
	parent, op := parentOf(ref)
	t0 := time.Now()
	k, err := f.inner.Key(spec)
	t1 := time.Now()
	ph.m.observe(&ph.m.key, t1.Sub(t0))
	ph.tr.leaf(parent, "serve.key", op, t0, t1)
	if ref != nil && err == nil {
		// The store only sees the key; let its spans find the op too.
		ph.tr.bind("key:"+k, ref)
	}
	return k, err
}

func (f *timedFactory) Build(spec telemetry.SessionSpec) (telemetry.SessionConfig, error) {
	ph := f.p.get()
	ref := ph.tr.lookup(spec.Stimulus)
	parent, op := parentOf(ref)
	t0 := time.Now()
	sc, err := f.inner.Build(spec)
	t1 := time.Now()
	ph.m.observe(&ph.m.build, t1.Sub(t0))
	ph.tr.leaf(parent, "serve.build", op, t0, t1)
	if err != nil {
		return sc, err
	}
	ph.m.mu.Lock()
	ph.m.sessions++
	ph.m.mu.Unlock()
	if pl, ok := sc.Platform.(*soc.Platform); ok {
		sc.Platform = &timedPlatform{Platform: pl, ph: ph, op: ref}
	}
	if capture := sc.CoverSnapshot; capture != nil {
		sc.CoverSnapshot = func() *cover.Snapshot {
			parent, op := parentOf(ref)
			t0 := time.Now()
			s := capture()
			t1 := time.Now()
			ph.m.observe(&ph.m.capture, t1.Sub(t0))
			ph.tr.leaf(parent, "cover.capture", op, t0, t1)
			return s
		}
	}
	return sc, nil
}

// timedPlatform times every Run chunk the server's worker issues and counts
// the instructions each retires. It embeds *soc.Platform so every other
// method, including the forensics accessors the server probes for with a
// type assertion, is the platform's own.
type timedPlatform struct {
	*soc.Platform
	ph   *phase
	op   *opRef
	last uint64 // instret at the end of the previous chunk
}

func (p *timedPlatform) Run(horizon kernel.Time) error {
	t0 := time.Now()
	err := p.Platform.Run(horizon)
	t1 := time.Now()
	n := p.Platform.Instret()
	m := p.ph.m
	m.mu.Lock()
	m.chunk = append(m.chunk, t1.Sub(t0))
	m.instret += n - p.last
	m.mu.Unlock()
	p.last = n
	parent, op := parentOf(p.op)
	p.ph.tr.leaf(parent, "rv32.run_chunk", op, t0, t1)
	return err
}

// timedStore decorates a telemetry.ResultStore, timing Get (split into hit
// and miss counts) and Put.
type timedStore struct {
	inner telemetry.ResultStore
	p     *probes
}

var _ telemetry.ResultStore = (*timedStore)(nil)

func (s *timedStore) Get(key string) (telemetry.SessionResult, bool) {
	ph := s.p.get()
	t0 := time.Now()
	r, ok := s.inner.Get(key)
	t1 := time.Now()
	m := ph.m
	m.mu.Lock()
	m.get = append(m.get, t1.Sub(t0))
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.mu.Unlock()
	parent, op := parentOf(ph.tr.lookup("key:" + key))
	ph.tr.leaf(parent, "telemetry.store_get", op, t0, t1)
	return r, ok
}

func (s *timedStore) Put(key string, r telemetry.SessionResult) error {
	ph := s.p.get()
	t0 := time.Now()
	err := s.inner.Put(key, r)
	t1 := time.Now()
	ph.m.observe(&ph.m.put, t1.Sub(t0))
	parent, op := parentOf(ph.tr.lookup("key:" + key))
	ph.tr.leaf(parent, "telemetry.store_put", op, t0, t1)
	return err
}

func (s *timedStore) Len() int { return s.inner.Len() }

// setServerLayers reports what the decorators measured in one phase.
func (m *meters) setServerLayers(r *report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r.set("serve.key_us", us(m.key.median()))
	r.set("serve.build_ms", ms(m.build.median()))
	service := m.key.sum() + m.build.sum() + m.chunk.sum()
	r.set("serve.build_share", ratio(float64(m.build.sum()), float64(service)))
	r.set("platform.run_chunk_us", us(m.chunk.median()))
	r.set("platform.run_chunks", ratio(float64(len(m.chunk)), float64(m.sessions)))
	r.set("platform.mips", ratio(float64(m.instret)/1e6, m.chunk.sum().Seconds()))
	r.set("telemetry.store_hit_ratio", ratio(float64(m.hits), float64(m.hits+m.misses)))
	r.set("telemetry.store_get_us", us(m.get.median()))
	r.set("telemetry.store_put_us", us(m.put.median()))
	r.set("cover.capture_ms", ms(m.capture.median()))
}

// mips is the instructions the decorated platforms retired, in millions,
// per second of wall time: the simulation throughput the server delivered.
func (m *meters) mips(wall time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ratio(float64(m.instret)/1e6, wall.Seconds())
}
