package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vpdift/internal/flight"
	"vpdift/internal/serve"
	"vpdift/internal/telemetry"
)

// parityCampaign covers both verdict kinds: clean exits and a detected
// attack that must keep its forensic bundle.
var parityCampaign = telemetry.CampaignSpec{
	Policies:  []string{"default", "none"},
	Workloads: []string{"micro", "wk-3"},
	Stimulus:  "parity",
}

func streamAll(t *testing.T, c *client, spec telemetry.CampaignSpec) []telemetry.CellInfo {
	t.Helper()
	c.begin(spec.Stimulus, spec.Stimulus)
	defer c.end("campaign", time.Now())
	id, _, err := c.postCampaign(spec)
	if err != nil {
		t.Fatalf("post campaign: %v", err)
	}
	var cells []telemetry.CellInfo
	if err := c.streamCells(id, func(ci telemetry.CellInfo) { cells = append(cells, ci) }); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return cells
}

// TestDecoratedServerParity holds the decorated server to the plain one:
// same results and verdicts per cell, and a detected wk-3 still serves its
// forensic bundle, which needs the platform decorator to keep the
// forensics accessors of the *soc.Platform it wraps.
func TestDecoratedServerParity(t *testing.T) {
	plainSrv := telemetry.NewServer(telemetry.WithFactory(serve.NewFactory()))
	defer plainSrv.Close()
	plainHTTP := httptest.NewServer(plainSrv.Handler())
	defer plainHTTP.Close()

	p := newProbes(newTracer(true))
	bs, _, err := startServer(p, nil)
	if err != nil {
		t.Fatalf("start decorated server: %v", err)
	}
	defer bs.close()

	tr := p.get().tr
	plain := streamAll(t, newClient(plainHTTP.URL, tr), parityCampaign)
	dc := newClient(bs.base, tr)
	decorated := streamAll(t, dc, parityCampaign)
	if len(plain) != 4 || len(decorated) != 4 {
		t.Fatalf("cells: plain %d, decorated %d, want 4 each", len(plain), len(decorated))
	}
	for i := range plain {
		a, b := plain[i].Result, decorated[i].Result
		if a == nil || b == nil {
			t.Fatalf("cell %d: missing result", i)
		}
		if a.Key != b.Key || a.Instret != b.Instret || a.Exited != b.Exited || a.ExitCode != b.ExitCode ||
			a.Detected != b.Detected || a.Violations != b.Violations || a.Forensics != b.Forensics || a.Error != b.Error {
			t.Errorf("cell %d (%s/%s): decorated result %+v differs from plain %+v",
				i, plain[i].Workload, plain[i].Policy, *b, *a)
		}
		if err := checkVerdict(decorated[i].Workload, decorated[i].Policy, b); err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
	}

	m := p.get().m
	if len(m.key) == 0 || len(m.build) != 4 || len(m.chunk) == 0 || len(m.put) != 4 || m.instret == 0 {
		t.Errorf("decorators saw %d keys, %d builds, %d chunks, %d puts, %d instructions",
			len(m.key), len(m.build), len(m.chunk), len(m.put), m.instret)
	}

	for _, cell := range decorated {
		if cell.Workload != "wk-3" || cell.Policy != "default" {
			continue
		}
		body, _, err := dc.call("get_forensics", http.MethodGet, "/api/v1/sessions/"+cell.Session+"/forensics", nil, http.StatusOK)
		if err != nil {
			t.Fatalf("forensics of detected wk-3: %v", err)
		}
		if _, err := flight.ValidateBundle(body); err != nil {
			t.Fatalf("forensics bundle: %v", err)
		}
		return
	}
	t.Fatal("no wk-3/default cell")
}

// TestCheckVerdictRejectsWrongOutcomes shows a wrong verdict counts as a
// failure.
func TestCheckVerdictRejectsWrongOutcomes(t *testing.T) {
	cases := []struct {
		workload, policy string
		res              telemetry.SessionResult
	}{
		{"wk-3", "default", telemetry.SessionResult{Exited: true, ExitCode: 99}},
		{"wk-3", "default", telemetry.SessionResult{Detected: true, Error: "violation"}},
		{"wk-3", "none", telemetry.SessionResult{Detected: true, Forensics: true}},
		{"micro", "default", telemetry.SessionResult{Exited: true, ExitCode: 1}},
		{"immo", "none", telemetry.SessionResult{Instret: 10, Error: "bus error"}},
	}
	for _, c := range cases {
		res := c.res
		if err := checkVerdict(c.workload, c.policy, &res); err == nil {
			t.Errorf("%s/%s %+v passed the verdict check", c.workload, c.policy, res)
		}
	}
	ok := telemetry.SessionResult{Detected: true, Forensics: true, Error: "violation"}
	if err := checkVerdict("wk-3", "default", &ok); err != nil {
		t.Errorf("detected wk-3 rejected: %v", err)
	}
}

// TestSelfTime checks a span's self time excludes the union of its
// children's intervals, overlapping or not.
func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	root := tr.newID()
	tr.leaf(root, "serve.build", "", at(10), at(40))
	tr.leaf(root, "rv32.run_chunk", "", at(30), at(60))
	tr.leaf(root, "cover.capture", "", at(80), at(90))
	tr.add(root, 0, "http.post", "", at(0), at(100))
	st := tr.selfTimes()
	if st["http"] != 40 || st["serve"] != 30 || st["rv32"] != 30 || st["cover"] != 10 {
		t.Fatalf("self times %v, want http 40, serve 30, rv32 30, cover 10", st)
	}
}

// TestTailPercentile checks the tail keeps ten samples beyond it and stays
// at the workload's cap however many samples a run makes.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n               int
		preferred, want float64
	}{{2000, 95, 95}, {240, 95, 95}, {150, 95, 90}, {84, 75, 75}, {105, 75, 75}, {20, 75, 50}} {
		if got := tailPercentile(c.n, c.preferred); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.preferred, got, c.want)
		}
	}
}
