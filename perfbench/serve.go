package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"vpdift/internal/serve"
	"vpdift/internal/telemetry"
	"vpdift/internal/wk"
)

// benchServer is the self-hosted server under test: telemetry.Server with a
// decorated serve.Factory and result store, on a loopback listener, with one
// worker per CPU.
type benchServer struct {
	sv     *telemetry.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when the Serve goroutine has returned
}

// startServer boots the server, warms the factory by resolving every spec
// the workload will submit (assembling and memoizing each image, as
// vp-serve's preload does) and returns once /readyz answers 200. The
// returned duration is the set-up time.
func startServer(p *probes, warm []telemetry.SessionSpec) (*benchServer, time.Duration, error) {
	t0 := time.Now()
	factory := serve.NewFactory()
	sv := telemetry.NewServer(
		telemetry.WithFactory(&timedFactory{inner: factory, p: p}),
		telemetry.WithResultStore(&timedStore{inner: telemetry.NewMemStore(), p: p}),
		telemetry.WithWorkers(runtime.NumCPU()),
	)
	sv.SetReady(false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	bs := &benchServer{sv: sv, hs: &http.Server{Handler: sv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(bs.served)
		bs.hs.Serve(ln)
	}()
	for _, spec := range warm {
		if _, err := factory.Key(spec); err != nil {
			bs.close()
			return nil, 0, fmt.Errorf("warm %s/%s: %w", spec.Workload, spec.Policy, err)
		}
	}
	sv.SetReady(true)
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(bs.base + "/readyz")
		if err != nil {
			bs.close()
			return nil, 0, fmt.Errorf("readyz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Since(t0) > 30*time.Second {
			bs.close()
			return nil, 0, fmt.Errorf("readyz still %d after 30s", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	hc.CloseIdleConnections()
	return bs, time.Since(t0), nil
}

// close stops the listener, waits for the Serve goroutine, then stops
// every session and the worker pool.
func (bs *benchServer) close() {
	bs.hs.Close()
	<-bs.served
	bs.sv.Close()
}

// startTimedServer starts the server a run measures, then times the first
// half of the set-up repetitions with throwaway servers.
func startTimedServer(p *probes, warm []telemetry.SessionSpec) (*benchServer, *setupClock, error) {
	bs, first, err := startServer(p, warm)
	if err != nil {
		return nil, nil, err
	}
	setup := &setupClock{times: samples{first}, again: func() (time.Duration, error) {
		s, d, err := startServer(newProbes(newTracer(false)), warm)
		if err == nil {
			s.close()
		}
		return d, err
	}}
	if err := setup.before(); err != nil {
		bs.close()
		return nil, nil, err
	}
	return bs, setup, nil
}

// client is one closed-loop caller with its own single connection.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	op   *opRef
	root uint64
	n429 int
}

func newClient(base string, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp, Timeout: 60 * time.Second}, base: base, tr: tr}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// begin starts a new op: its root span, and the stimulus the decorators
// use to find it.
func (c *client) begin(name, stimulus string) {
	c.op = &opRef{name: name, stimulus: stimulus}
	c.root = c.tr.newID()
	c.tr.bind(stimulus, c.op)
}

func (c *client) end(kind string, start time.Time) {
	c.tr.add(c.root, 0, "bench."+kind, c.op.name, start, time.Now())
	c.tr.unbind(c.op.stimulus)
}

// call issues one request under an http.<name> span and returns the raw
// body; want is the expected status.
func (c *client) call(name, method, path string, body any, want int) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	id := c.tr.newID()
	if c.op != nil {
		c.op.cur.Store(id)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	c.tr.add(id, c.root, "http."+name, c.opName(), t0, t1)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.n429++
		}
		return nil, 0, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, t1.Sub(t0), nil
}

func (c *client) opName() string {
	if c.op == nil {
		return ""
	}
	return c.op.name
}

// data unwraps the {"data": ...} envelope into v.
func data(body []byte, v any) error {
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decode envelope: %w", err)
	}
	return json.Unmarshal(env.Data, v)
}

// postCampaign creates a campaign and returns its ID.
func (c *client) postCampaign(spec telemetry.CampaignSpec) (string, time.Duration, error) {
	body, d, err := c.call("post_campaign", http.MethodPost, "/api/v1/campaigns", spec, http.StatusCreated)
	if err != nil {
		return "", 0, err
	}
	var info telemetry.CampaignInfo
	if err := data(body, &info); err != nil {
		return "", 0, err
	}
	return info.ID, d, nil
}

// streamCells follows a campaign's ordered SSE stream to its done frame,
// calling onCell for each cell as it arrives. This awaits results without
// polling: the server pushes each cell the moment it (and every cell before
// it) is done.
func (c *client) streamCells(id string, onCell func(telemetry.CellInfo)) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/campaigns/"+id+"/results?stream=sse", nil)
	if err != nil {
		return err
	}
	span := c.tr.newID()
	c.op.cur.Store(span)
	t0 := time.Now()
	defer func() { c.tr.add(span, c.root, "http.stream_results", c.op.name, t0, time.Now()) }()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("stream %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20) // covered cells carry whole snapshots
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			payload := []byte(strings.TrimPrefix(line, "data: "))
			if event == "done" {
				_, err := io.Copy(io.Discard, resp.Body) // let the connection be reused
				return err
			}
			var cell telemetry.CellInfo
			if err := json.Unmarshal(payload, &cell); err != nil {
				return fmt.Errorf("stream %s: decode cell: %w", id, err)
			}
			onCell(cell)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream %s: %w", id, err)
	}
	return errors.New("stream " + id + " ended without a done frame")
}

// deleteSession and deleteCampaign drop finished work, so the server does
// not keep every platform of the run alive.
func (c *client) deleteSession(id string) error {
	_, _, err := c.call("delete_session", http.MethodDelete, "/api/v1/sessions/"+id, nil, http.StatusOK)
	return err
}

func (c *client) deleteCampaign(id string) error {
	_, _, err := c.call("delete_campaign", http.MethodDelete, "/api/v1/campaigns/"+id, nil, http.StatusOK)
	return err
}

// cellSpec is one (workload, policy) grid point.
type cellSpec struct {
	workload string
	policy   string
}

// applicableAttacks lists the wk-N names the server accepts.
func applicableAttacks() []string {
	var out []string
	for _, a := range wk.Suite() {
		if a.Applicable() {
			out = append(out, fmt.Sprintf("wk-%d", a.Num))
		}
	}
	return out
}

// checkVerdict holds a finished cell to its expected outcome: micro and the
// Table II guests exit 0, an attack is detected under its policy and
// hijacks control (exit 99) without one, and the horizon-bounded
// immobilizer runs to its horizon without a violation. A detected attack
// must also keep its forensic bundle, which the server only finds when the
// decorated platform still exposes the forensics accessors.
func checkVerdict(workload, policy string, res *telemetry.SessionResult) error {
	if res == nil {
		return fmt.Errorf("%s/%s: no result", workload, policy)
	}
	if res.Canceled || res.TimedOut {
		return fmt.Errorf("%s/%s: canceled=%v timed_out=%v", workload, policy, res.Canceled, res.TimedOut)
	}
	switch {
	case strings.HasPrefix(workload, "wk-") && policy == "default":
		if !res.Detected || !res.Forensics {
			return fmt.Errorf("%s/default: detected=%v forensics=%v, Table I says detected (error %q)",
				workload, res.Detected, res.Forensics, res.Error)
		}
	case strings.HasPrefix(workload, "wk-"):
		if res.Detected || !res.Exited || res.ExitCode != wk.ExitAttackSucceeded {
			return fmt.Errorf("%s/%s: detected=%v exit=%v/%d, want an undetected hijack (exit %d)",
				workload, policy, res.Detected, res.Exited, res.ExitCode, wk.ExitAttackSucceeded)
		}
	case workload == "immo":
		if res.Detected || res.Error != "" || res.Exited || res.Instret == 0 {
			return fmt.Errorf("immo/%s: detected=%v exited=%v instret=%d error %q, want a clean run to the horizon",
				policy, res.Detected, res.Exited, res.Instret, res.Error)
		}
	default:
		if res.Detected || res.Error != "" || !res.Exited || res.ExitCode != 0 {
			return fmt.Errorf("%s/%s: detected=%v exit=%v/%d error %q, want exit 0",
				workload, policy, res.Detected, res.Exited, res.ExitCode, res.Error)
		}
	}
	return nil
}

// outcomeCounts tallies what the results showed.
type outcomeCounts struct {
	detected int
	bundles  int
}

func (o *outcomeCounts) add(res *telemetry.SessionResult) {
	if res == nil {
		return
	}
	if res.Detected {
		o.detected++
	}
	if res.Forensics {
		o.bundles++
	}
}

// serveDeck is one shuffled round of the serve-short mix: every workload
// the server accepts for a short session (micro and each applicable
// attack) once under the default policy and once without one.
func serveDeck() []cellSpec {
	var deck []cellSpec
	for _, w := range append([]string{"micro"}, applicableAttacks()...) {
		deck = append(deck, cellSpec{w, "default"}, cellSpec{w, "none"})
	}
	return deck
}

func warmSpecs(cells []cellSpec, horizonMs int64) []telemetry.SessionSpec {
	var out []telemetry.SessionSpec
	for _, c := range cells {
		out = append(out, telemetry.SessionSpec{Workload: c.workload, Policy: c.policy, HorizonMs: horizonMs})
	}
	return out
}

// sessionSample is one completed serve-short session.
type sessionSample struct {
	latency time.Duration
	submit  time.Duration
	timings *telemetry.SessionTimings // traced phase only
}

// servePhase runs the closed loop: each of nproc clients submits one
// session as a 1x1 campaign with a unique stimulus, follows its result
// stream, checks the verdict, then deletes the campaign and session.
func servePhase(bs *benchServer, seed int64, phaseTag string, seconds float64, tr *tracer, r *report) ([]sessionSample, time.Duration, outcomeCounts, int) {
	deck := serveDeck()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e55))
	var seq []cellSpec
	nextDeck := func() {
		d := append([]cellSpec(nil), deck...)
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		seq = append(seq, d...)
	}
	var (
		mu       sync.Mutex
		next     int
		results  []sessionSample
		outcomes outcomeCounts
		n429     int
		wg       sync.WaitGroup
	)
	take := func() (int, cellSpec) {
		mu.Lock()
		defer mu.Unlock()
		for next >= len(seq) {
			nextDeck()
		}
		next++
		return next - 1, seq[next-1]
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(bs.base, tr)
			defer c.closeIdle()
			for time.Now().Before(deadline) {
				i, cs := take()
				stim := fmt.Sprintf("seed%d-%s-%d", seed, phaseTag, i)
				sample, res, err := oneSession(c, cs, stim, tr.on)
				mu.Lock()
				r.attempted++
				if err == nil {
					err = checkVerdict(cs.workload, cs.policy, res)
				}
				if err != nil {
					r.fail("serve-short: %v", err)
				} else {
					results = append(results, sample)
				}
				outcomes.add(res)
				mu.Unlock()
			}
			mu.Lock()
			n429 += c.n429
			mu.Unlock()
		}()
	}
	wg.Wait()
	return results, time.Since(start), outcomes, n429
}

// oneSession submits one session and awaits its result. The latency runs
// from the POST to the result frame; fetching timings and deleting the
// session happen after it.
func oneSession(c *client, cs cellSpec, stim string, withTimings bool) (sessionSample, *telemetry.SessionResult, error) {
	c.begin(stim, stim)
	t0 := time.Now()
	defer c.end("session", t0)
	id, submit, err := c.postCampaign(telemetry.CampaignSpec{
		Policies: []string{cs.policy}, Workloads: []string{cs.workload}, Stimulus: stim,
	})
	if err != nil {
		return sessionSample{}, nil, err
	}
	var cell telemetry.CellInfo
	n := 0
	if err := c.streamCells(id, func(ci telemetry.CellInfo) { cell = ci; n++ }); err != nil {
		return sessionSample{}, nil, err
	}
	s := sessionSample{latency: time.Since(t0), submit: submit}
	if n != 1 || cell.Cached || cell.Session == "" {
		return s, cell.Result, fmt.Errorf("%s/%s: %d cells, cached=%v session %q; want one fresh session",
			cs.workload, cs.policy, n, cell.Cached, cell.Session)
	}
	if withTimings {
		body, _, err := c.call("get_session", http.MethodGet, "/api/v1/sessions/"+cell.Session, nil, http.StatusOK)
		if err != nil {
			return s, cell.Result, err
		}
		var info struct {
			Timings *telemetry.SessionTimings `json:"timings"`
		}
		if err := data(body, &info); err != nil {
			return s, cell.Result, err
		}
		s.timings = info.Timings
	}
	if err := c.deleteCampaign(id); err != nil {
		return s, cell.Result, err
	}
	return s, cell.Result, c.deleteSession(cell.Session)
}

// setServeEndToEnd reports one phase's user-visible numbers.
func setServeEndToEnd(results []sessionSample, wall time.Duration, m *meters, r *report) {
	lat := make(samples, len(results))
	for i, s := range results {
		lat[i] = s.latency
	}
	r.set("ops_per_s", float64(len(results))/wall.Seconds())
	r.set("mips", m.mips(wall))
	// A run has thousands of sessions, enough for p99, but on a shared
	// 2-vCPU host p99 moved by a fifth between runs of the same code (host
	// stalls land in it); the tail is p95, which a regression bound can hold.
	r.setLatency(lat, lat, 95)
}

// setServeLayers reports the server-side layer numbers of one phase.
func setServeLayers(results []sessionSample, outcomes outcomeCounts, n429 int, m *meters, r *report) {
	m.setServerLayers(r)
	var submit, queue, run, store samples
	for _, s := range results {
		submit = append(submit, s.submit)
		if t := s.timings; t != nil {
			queue = append(queue, time.Duration(t.QueueWaitNs))
			run = append(run, time.Duration(t.RunNs))
			store = append(store, time.Duration(t.StoreNs))
		}
	}
	r.set("telemetry.submit_ms", ms(submit.median()))
	r.set("telemetry.queue_wait_ms", ms(queue.median()))
	r.set("telemetry.run_ms", ms(run.median()))
	r.set("telemetry.store_ms", ms(store.median()))
	r.set("telemetry.rejected_429", float64(n429))
	r.set("flight.bundles", float64(outcomes.bundles))
	r.set("wk.detected", float64(outcomes.detected))
}

// runServeShort is the serve-short workload.
func runServeShort(c runConfig, r *report) error {
	tr := newTracer(c.trace)
	p := newProbes(newTracer(false))
	bs, setup, err := startTimedServer(p, warmSpecs(serveDeck(), 0))
	if err != nil {
		return err
	}
	defer bs.close()

	results, wall, _, _ := servePhase(bs, c.seed, "u", c.seconds, p.get().tr, r)
	setServeEndToEnd(results, wall, p.get().m, r)
	if err := setup.after(r); err != nil {
		return err
	}
	if !c.trace {
		return nil
	}
	p.reset(tr)
	results, wall, outcomes, n429 := servePhase(bs, c.seed, "t", c.seconds, tr, r)
	traced := newReport()
	setServeEndToEnd(results, wall, p.get().m, traced)
	r.setTraceOverhead(traced)
	setServeLayers(results, outcomes, n429, p.get().m, r)
	tr.setSelfTimes(r)
	return c.writeSpans(tr)
}
