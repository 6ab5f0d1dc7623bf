package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
)

// stubPlatform satisfies Platform without a real SoC: Run teleports the
// clock to the horizon and retires 10 instructions per simulated µs.
type stubPlatform struct {
	now     kernel.Time
	instret uint64
	o       *obs.Observer
	exitAt  kernel.Time
	exited  bool
	runErr  error
}

func (p *stubPlatform) Run(horizon kernel.Time) error {
	if p.runErr != nil {
		return p.runErr
	}
	if horizon > p.now {
		p.instret += uint64(horizon-p.now) / 100
		p.now = horizon
	}
	if p.exitAt != 0 && p.now >= p.exitAt {
		p.exited = true
	}
	return nil
}
func (p *stubPlatform) Now() kernel.Time { return p.now }
func (p *stubPlatform) MetricsSnapshotInto(dst map[string]uint64) {
	dst["sim.instret"] = p.instret
	dst["sim.time_ns"] = uint64(p.now)
}
func (p *stubPlatform) Observer() *obs.Observer { return p.o }
func (p *stubPlatform) Exited() (bool, uint32)  { return p.exited, 0 }

// listSessions fetches the enveloped v1 session list.
func listSessions(t *testing.T, ts *httptest.Server) []sessionInfo {
	t.Helper()
	r := doJSON(t, http.MethodGet, ts.URL+"/api/v1/sessions", nil)
	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if r.status != http.StatusOK {
		t.Fatalf("GET /api/v1/sessions: status %d", r.status)
	}
	if err := json.Unmarshal(r.Data, &list); err != nil {
		t.Fatal(err)
	}
	return list.Sessions
}

func waitDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, in := range listSessions(t, ts) {
			if in.ID == id && in.Done {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %q never finished", id)
}

func TestServerEndpoints(t *testing.T) {
	sv := NewServer()
	defer sv.Close()
	s := NewSampler(Options{})
	var fc fakeCounters
	fc.instret = 7
	s.TakeSample(1000, fc.snapshot)
	fc.instret = 9
	s.TakeSample(2000, fc.snapshot)
	if err := sv.Submit(SessionConfig{
		ID:       "alpha",
		Platform: &stubPlatform{},
		Sampler:  s,
		Horizon:  5_000_000, // 5ms: a few chunks, then done
	}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Submit(SessionConfig{ID: "alpha", Platform: &stubPlatform{}}); err == nil {
		t.Fatal("duplicate session ID accepted")
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	waitDone(t, ts, "alpha")

	// /healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("/healthz: %d %s", resp.StatusCode, body)
	}

	// /metrics
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `vpdift_sim_instret{session="alpha"} 50000`) {
		t.Errorf("/metrics missing instret sample:\n%s", text)
	}
	if err := ValidateExposition(text); err != nil {
		t.Errorf("/metrics invalid: %v\n%s", err, text)
	}

	// /api/v1/sessions
	infos := listSessions(t, ts)
	if len(infos) != 1 || infos[0].ID != "alpha" || !infos[0].Done ||
		infos[0].SimNs != 5_000_000 || infos[0].Samples != 2 {
		t.Errorf("/api/v1/sessions = %+v", infos)
	}

	// /api/v1/sessions/{id}/timeseries, streamed raw
	resp, err = http.Get(ts.URL + "/api/v1/sessions/alpha/timeseries?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"t_ns":1000`) {
		t.Errorf("timeseries = %q", body)
	}
	resp, err = http.Get(ts.URL + "/api/v1/sessions/alpha/timeseries?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "seq,t_ns,") {
		t.Errorf("csv timeseries = %q", body)
	}

	// Unknown session: an enveloped 404.
	for _, path := range []string{
		"/api/v1/sessions/nope/timeseries",
		"/api/v1/sessions/nope/events",
	} {
		r := doJSON(t, http.MethodGet, ts.URL+path, nil)
		if r.status != 404 || r.Error == nil || r.Error.Code != "not_found" {
			t.Errorf("%s: status %d error %+v, want enveloped 404", path, r.status, r.Error)
		}
	}
}

func TestServerMetricsMonotone(t *testing.T) {
	sv := NewServer()
	defer sv.Close()
	if err := sv.Submit(SessionConfig{ID: "run", Platform: &stubPlatform{}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	scrape := func() uint64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := parseSampleLine(line, `vpdift_sim_instret{session="run"} `); ok {
				return v
			}
		}
		t.Fatalf("no instret in scrape:\n%s", body)
		return 0
	}
	a := scrape()
	time.Sleep(20 * time.Millisecond)
	b := scrape()
	if b <= a {
		t.Errorf("instret not monotone across scrapes: %d then %d", a, b)
	}
}

func parseSampleLine(line, prefix string) (uint64, bool) {
	if !strings.HasPrefix(line, prefix) {
		return 0, false
	}
	var n uint64
	for _, c := range line[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

func TestServerEventsSSE(t *testing.T) {
	o := obs.New()
	o.PinClassify("secret", 0x100, 0x104, core.Tag(1))
	o.BeginInsn(0x8000, 0x00052283)
	o.OnLoad(0x100, 4, core.W(0xAB, core.Tag(1)))
	o.AssignReg(5)

	sv := NewServer()
	defer sv.Close()
	if err := sv.Submit(SessionConfig{
		ID:       "sse",
		Platform: &stubPlatform{o: o, exitAt: 1},
		Horizon:  1_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	waitDone(t, ts, "sse")

	resp, err := http.Get(ts.URL + "/api/v1/sessions/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var dataLines, doneEvents int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {\"seq\"") {
			dataLines++
			// Kind marshals as a string, so decode into a loose shape.
			var ev struct {
				Seq  uint64 `json:"seq"`
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil || ev.Seq == 0 {
				t.Errorf("bad SSE payload %q: %v", line, err)
			}
		}
		if line == "event: done" {
			doneEvents++
		}
	}
	if dataLines < 2 {
		t.Errorf("got %d SSE events, want >= 2 (classify + load)", dataLines)
	}
	if doneEvents != 1 {
		t.Errorf("got %d done events, want 1", doneEvents)
	}
}
