package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics a user of the system sees, printed by an
// untraced run of every workload. Each one is defined on every workload (see
// README.md for what "op" means per workload) and is never zero on a run
// that did its work.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"mips", "MIPS"},
}

// tableRows are the Table II rows in perf.Workloads order; the per-row
// layer metrics are named after them.
var tableRows = []string{"qsort", "dhrystone", "primes", "sha512", "simple-sensor", "freertos-tasks", "immo-fixed"}

// perLayer lists the metrics of single layers, printed by a traced run of
// every workload. A layer a workload does not exercise reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.error_rate", "ratio"},
		{"bench.samples", "count"},
		{"bench.tail_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
		{"bench.spans", "count"},
		{"asm.assemble_ms", "ms"},
		{"soc.new_ms", "ms"},
		{"soc.metrics_us", "us"},
		{"rv32.vp_mips", "MIPS"},
		{"rv32.vpplus_mips", "MIPS"},
		{"rv32.vpplus_dec_mips", "MIPS"},
		{"rv32.dift_overhead_x", "x"},
		{"rv32.decode_hit_ratio", "ratio"},
	}
	for _, flavour := range []string{"vp_mips", "vpplus_mips", "vpplus_dec_mips"} {
		for _, row := range tableRows {
			defs = append(defs, metricDef{"rv32." + flavour + "." + row, "MIPS"})
		}
	}
	for _, row := range tableRows {
		defs = append(defs, metricDef{"rv32.instret." + row, "count"})
	}
	defs = append(defs,
		metricDef{"dift.suppressed", "count"},
		metricDef{"serve.key_us", "us"},
		metricDef{"serve.build_ms", "ms"},
		metricDef{"serve.build_share", "ratio"},
		metricDef{"platform.run_chunk_us", "us"},
		metricDef{"platform.run_chunks", "count"},
		metricDef{"platform.mips", "MIPS"},
		metricDef{"telemetry.submit_ms", "ms"},
		metricDef{"telemetry.queue_wait_ms", "ms"},
		metricDef{"telemetry.run_ms", "ms"},
		metricDef{"telemetry.store_ms", "ms"},
		metricDef{"telemetry.store_hit_ratio", "ratio"},
		metricDef{"telemetry.store_get_us", "us"},
		metricDef{"telemetry.store_put_us", "us"},
		metricDef{"telemetry.rejected_429", "count"},
		metricDef{"cover.capture_ms", "ms"},
		metricDef{"cover.rollup_ms", "ms"},
		metricDef{"cover.diff_ms", "ms"},
		metricDef{"cover.merge_offline_ms", "ms"},
		metricDef{"cover.edges_total", "count"},
		metricDef{"flight.bundles", "count"},
		metricDef{"wk.detected", "count"},
	)
	for _, layer := range spanLayers {
		defs = append(defs, metricDef{"self." + layer + "_ms", "ms"})
	}
	return defs
}()

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome: operation counts, end-to-end values
// from the untraced phase and layer values from the traced phase.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail counts one wrong or failed operation and keeps the first few reasons
// for the human-readable summary.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// unmeasured returns the first metric of defs the run left unset or not
// positive, "" when there is none.
func (r *report) unmeasured(defs []metricDef) string {
	for _, d := range defs {
		if r.values[d.name] <= 0 {
			return d.name
		}
	}
	return ""
}

// render returns the metric set as the result line prints it; a metric the
// run left unset is 0.
func (r *report) render(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// samples is a set of durations for percentile reporting.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1), 0 when empty.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// median is the middle sample, or the mean of the two middle ones: a run
// may have only three to five Table II passes or campaign pairs, where the
// nearest-rank median would always pick the lower of the middle two.
func (s samples) median() time.Duration {
	n := len(s)
	if n == 0 || n%2 == 1 {
		return s.quantile(0.5)
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return (c[n/2-1] + c[n/2]) / 2
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// tailPercentile picks the highest of p95, p90 and p75, up to the
// workload's preferred one, that still leaves at least ten samples beyond
// it. It returns 50 when none does. The cap keeps the percentile fixed from
// run to run: row runs are 21 fixed-work blocks, so a percentile that rose
// with the sample count would jump from one block to another.
func tailPercentile(n int, preferred float64) float64 {
	for _, p := range []float64{95, 90, 75} {
		if p <= preferred && float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// setLatency reports the op latency median and the tail of the latencies
// in tail, with the tail's percentile and sample count as layer metrics. On
// serve-short tail is the ops themselves; a run has too few Table II passes
// or campaign pairs for a tail, so there it is the row runs or the cells.
func (r *report) setLatency(ops, tail samples, preferredTail float64) {
	p := tailPercentile(len(tail), preferredTail)
	t := tail.median()
	if p > 50 {
		t = tail.quantile(p / 100)
	}
	r.set("op_p50_ms", ms(ops.median()))
	r.set("op_tail_ms", ms(t))
	r.set("bench.tail_pct", p)
	r.set("bench.samples", float64(len(tail)))
}

// setTraceOverhead reports how much slower the traced phase completed ops
// than the untraced one.
func (r *report) setTraceOverhead(traced *report) {
	r.set("bench.trace_overhead_pct", 100*(1-ratio(traced.values["ops_per_s"], r.values["ops_per_s"])))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupClock times a run's set-up repeatedly. The first repetition builds
// what the run uses; of the others, half run before the measurement and half
// after, so a host stall in one short window cannot move the median that is
// reported as setup_s. Collecting garbage first keeps an earlier
// repetition's leftovers out of the next one's time.
type setupClock struct {
	times samples
	again func() (time.Duration, error) // one more set-up, discarded
}

func (s *setupClock) repeat(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := s.again()
		if err != nil {
			return err
		}
		s.times = append(s.times, d)
	}
	return nil
}

func (s *setupClock) before() error { return s.repeat(setupReps/2 - 1) }

func (s *setupClock) after(r *report) error {
	if err := s.repeat(setupReps / 2); err != nil {
		return err
	}
	r.set("setup_s", s.times.median().Seconds())
	return nil
}
