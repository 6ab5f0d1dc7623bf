// Command perfbench is the repository's benchmark. It runs one workload in
// process — Table II interpreter throughput, short sessions served over the
// /api/v1 HTTP surface, or covered campaigns — checks every output, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 16

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

func (c runConfig) writeSpans(tr *tracer) error {
	path := filepath.Join(c.spansDir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	if err := tr.write(path, c.workload, c.seed); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

var workloads = map[string]func(runConfig, *report) error{
	"table2":         runTable2,
	"serve-short":    runServeShort,
	"campaign-cover": runCampaignCover,
}

func main() {
	var c runConfig
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to run: table2, serve-short or campaign-cover")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: stimuli, session mix and grid order derive from it")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long each measuring phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds a traced phase and prints per-layer metrics instead of end-to-end ones")
	flag.StringVar(&c.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	flag.Parse()
	c.trace = traceFlag == 1
	run, ok := workloads[c.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload table2|serve-short|campaign-cover, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	if err := execute(c, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func execute(c runConfig, run func(runConfig, *report) error) error {
	// Every workload runs on one OS thread. The server keeps nproc workers
	// and the load nproc clients, but on a 2-vCPU VM spreading the process
	// over both vCPUs made every workload slower and its throughput vary by
	// up to 2x between runs: the numbers measured the host's cross-CPU
	// wake-ups, not the program.
	runtime.GOMAXPROCS(1)
	r := newReport()
	if err := run(c, r); err != nil {
		return err
	}
	r.set("max_rss_mb", maxRSSMB())
	r.set("bench.error_rate", ratio(float64(r.failed), float64(r.attempted)))
	if r.attempted == 0 {
		return fmt.Errorf("%s attempted no operations", c.workload)
	}
	// A run with failures still prints its result line (correct: false);
	// a clean run that left an end-to-end metric unmeasured is a bug here.
	if name := r.unmeasured(endToEnd); name != "" && r.failed == 0 {
		return fmt.Errorf("end-to-end metric %s not measured", name)
	}
	e2e, layers := r.render(endToEnd), r.render(perLayer)
	fmt.Printf("workload %s seed %d: %d attempted, %d failed (GOMAXPROCS %d)\n",
		c.workload, c.seed, r.attempted, r.failed, runtime.GOMAXPROCS(0))
	for _, p := range r.problems {
		fmt.Printf("  FAIL %s\n", p)
	}
	printTable("end-to-end", e2e)
	out := e2e
	if c.trace {
		printTable("per-layer", layers)
		out = layers
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(title string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
