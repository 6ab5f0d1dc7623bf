package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/perf"
	"vpdift/internal/soc"
)

// table2Scale is the one fixed Table II scale: a full pass over the seven
// rows and three flavours takes about five seconds, so a run measures
// several whole passes and every row weighs the same in every run.
const table2Scale = perf.ScaleSmall

// flavour is one platform organisation Table II compares.
type flavour struct {
	name      string // metric infix: vp, vpplus, vpplus_dec
	dift      bool
	decoupled bool
}

var flavours = []flavour{
	{name: "vp"},
	{name: "vpplus", dift: true},
	{name: "vpplus_dec", dift: true, decoupled: true},
}

// rowImage is a Table II row with its image assembled during set-up.
type rowImage struct {
	w   perf.Workload
	img *asm.Image
}

// assembleRows builds every row's image once, timing each assembly.
func assembleRows(tr *tracer) ([]rowImage, time.Duration, error) {
	ws := perf.Workloads(table2Scale)
	if len(ws) != len(tableRows) {
		return nil, 0, fmt.Errorf("table2: perf.Workloads has %d rows, want %d", len(ws), len(tableRows))
	}
	rows := make([]rowImage, len(ws))
	start := time.Now()
	for i, w := range ws {
		if w.Name != tableRows[i] {
			return nil, 0, fmt.Errorf("table2: row %d is %q, want %q", i, w.Name, tableRows[i])
		}
		t0 := time.Now()
		rows[i] = rowImage{w: w, img: w.Build()}
		tr.leaf(0, "asm.assemble", w.Name, t0, time.Now())
	}
	return rows, time.Since(start), nil
}

// rowRun is one measured (row, flavour) run.
type rowRun struct {
	row, flavour int
	instret      uint64
	newLoad      time.Duration // soc.New + Load
	run          time.Duration // Run or the row's Drive
	metrics      time.Duration // MetricsSnapshot
	total        time.Duration
	snap         map[string]uint64
}

// runRow runs one row on one flavour the way perf.RunOnceOpts does, timing
// each layer call separately.
func runRow(rows []rowImage, row int, fl flavour, tr *tracer) (rowRun, error) {
	ri := rows[row]
	op := ri.w.Name + "/" + fl.name
	root := tr.newID()
	t0 := time.Now()
	var pol *core.Policy
	if fl.dift {
		pol = perf.SessionPolicy(ri.w, ri.img)
	}
	pl, err := soc.New(soc.Config{Policy: pol, DecoupledTaint: fl.decoupled})
	if err != nil {
		return rowRun{}, fmt.Errorf("%s: %w", op, err)
	}
	if err := pl.Load(ri.img); err != nil {
		pl.Shutdown()
		return rowRun{}, fmt.Errorf("%s: load: %w", op, err)
	}
	t1 := time.Now()
	tr.leaf(root, "soc.new", op, t0, t1)
	horizon := ri.w.Horizon
	if horizon == 0 {
		horizon = kernel.Forever
	}
	if ri.w.Drive != nil {
		err = ri.w.Drive(pl, horizon)
	} else {
		err = pl.Run(horizon)
	}
	t2 := time.Now()
	tr.leaf(root, "rv32.run", op, t1, t2)
	snap := pl.MetricsSnapshot()
	t3 := time.Now()
	tr.leaf(root, "soc.metrics", op, t2, t3)
	exited, code := pl.Exited()
	pl.Shutdown()
	t4 := time.Now()
	tr.leaf(root, "soc.shutdown", op, t3, t4)
	tr.add(root, 0, "bench.row", op, t0, t4)
	if err != nil {
		return rowRun{}, fmt.Errorf("%s: %w", op, err)
	}
	if !exited || code != 0 {
		return rowRun{}, fmt.Errorf("%s: exited=%v code=%d, want a clean exit 0", op, exited, code)
	}
	return rowRun{
		row: row, instret: pl.Instret(),
		newLoad: t1.Sub(t0), run: t2.Sub(t1), metrics: t3.Sub(t2), total: t4.Sub(t0),
		snap: snap,
	}, nil
}

// table2Phase runs whole seed-shuffled passes over every (row, flavour)
// pair until the measuring time is used up, and checks each row's
// instruction count is the same on every flavour and every pass. A pass is
// the op: one regeneration of Table II on all three flavours.
func table2Phase(rows []rowImage, rng *rand.Rand, seconds float64, tr *tracer, r *report) ([]rowRun, samples, time.Duration) {
	type pair struct{ row, fl int }
	var grid []pair
	for i := range rows {
		for f := range flavours {
			grid = append(grid, pair{i, f})
		}
	}
	want := make([]uint64, len(rows))
	var runs []rowRun
	var passes samples
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
		passStart := time.Now()
		failed := r.failed
		for _, p := range grid {
			r.attempted++
			rr, err := runRow(rows, p.row, flavours[p.fl], tr)
			if err != nil {
				r.fail("table2: %v", err)
				continue
			}
			rr.flavour = p.fl
			if want[p.row] == 0 {
				want[p.row] = rr.instret
			} else if rr.instret != want[p.row] {
				r.fail("table2: %s/%s retired %d instructions, other runs %d",
					tableRows[p.row], flavours[p.fl].name, rr.instret, want[p.row])
				continue
			}
			runs = append(runs, rr)
		}
		if r.failed == failed {
			passes = append(passes, time.Since(passStart))
		}
	}
	return runs, passes, time.Since(start)
}

// setTable2EndToEnd reports the user-visible numbers of one phase.
func setTable2EndToEnd(runs []rowRun, passes samples, wall time.Duration, r *report) {
	var instr uint64
	var run time.Duration
	totals := make(samples, len(runs))
	for i, rr := range runs {
		instr += rr.instret
		run += rr.run
		totals[i] = rr.total
	}
	r.set("ops_per_s", float64(len(passes))/wall.Seconds())
	r.set("mips", ratio(float64(instr)/1e6, run.Seconds()))
	r.setLatency(passes, totals, 75)
}

// setTable2Layers reports the interpreter-side layer numbers of one phase.
func setTable2Layers(runs []rowRun, r *report) {
	type acc struct {
		instr uint64
		run   time.Duration
	}
	perFlavour := make([]acc, len(flavours))
	perRow := make([][]acc, len(flavours))
	for f := range perRow {
		perRow[f] = make([]acc, len(tableRows))
	}
	var newLoad, metrics samples
	var hits, misses float64
	var decRuns, suppressed float64
	for _, rr := range runs {
		perFlavour[rr.flavour].instr += rr.instret
		perFlavour[rr.flavour].run += rr.run
		perRow[rr.flavour][rr.row].instr += rr.instret
		perRow[rr.flavour][rr.row].run += rr.run
		newLoad = append(newLoad, rr.newLoad)
		metrics = append(metrics, rr.metrics)
		hits += float64(rr.snap["sim.decode_cache_hits"])
		misses += float64(rr.snap["sim.decode_cache_misses"])
		r.set("rv32.instret."+tableRows[rr.row], float64(rr.instret))
		if flavours[rr.flavour].decoupled {
			decRuns++
			suppressed += float64(rr.snap["dift.suppressed_total"])
		}
	}
	mipsOf := func(a acc) float64 { return ratio(float64(a.instr)/1e6, a.run.Seconds()) }
	for f, fl := range flavours {
		r.set("rv32."+fl.name+"_mips", mipsOf(perFlavour[f]))
		for i, row := range tableRows {
			r.set("rv32."+fl.name+"_mips."+row, mipsOf(perRow[f][i]))
		}
	}
	r.set("rv32.dift_overhead_x", ratio(mipsOf(perFlavour[0]), mipsOf(perFlavour[1])))
	r.set("rv32.decode_hit_ratio", ratio(hits, hits+misses))
	r.set("soc.new_ms", ms(newLoad.median()))
	r.set("soc.metrics_us", us(metrics.median()))
	// Per decoupled row run. With no observer or coverage attached the
	// decoupled VP+ runs in filtered mode and publishes nothing to the
	// monitor's ring: every retire counts as suppressed, and the emitted,
	// backpressure and stall counters stay 0, so they are not reported.
	r.set("dift.suppressed", ratio(suppressed, decRuns))
}

// runTable2 is the table2 workload: Table II rows on the VP, the VP+ with
// inline taint tracking and the VP+ with the decoupled monitor.
func runTable2(c runConfig, r *report) error {
	setupTracer := newTracer(c.trace)
	rows, first, err := assembleRows(setupTracer)
	if err != nil {
		return err
	}
	setup := &setupClock{times: samples{first}, again: func() (time.Duration, error) {
		_, d, err := assembleRows(newTracer(false))
		return d, err
	}}
	if err := setup.before(); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(c.seed), 0x7ab1e2))

	runs, passes, wall := table2Phase(rows, rng, c.seconds, newTracer(false), r)
	setTable2EndToEnd(runs, passes, wall, r)
	if err := setup.after(r); err != nil {
		return err
	}
	r.set("asm.assemble_ms", ms(setup.times.median()))
	if !c.trace {
		return nil
	}
	tr := setupTracer
	runs, passes, wall = table2Phase(rows, rng, c.seconds, tr, r)
	traced := newReport()
	setTable2EndToEnd(runs, passes, wall, traced)
	r.setTraceOverhead(traced)
	setTable2Layers(runs, r)
	tr.setSelfTimes(r)
	return c.writeSpans(tr)
}
