package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"vpdift/internal/cover"
	"vpdift/internal/telemetry"
)

// campaignHorizonMs bounds every campaign cell's simulated time. It must
// let the small qsort exit (about 42 ms simulated) and it is what ends the
// endless immobilizer challenge loop.
const campaignHorizonMs = 50

// campaignLight is how many short cells (micro or an attack) each half of a
// campaign pair adds per policy, beside one heavy cell (immo or qsort).
const campaignLight = 3

var campaignPolicies = []string{"default", "none"}

// campaignPlan is one campaign: its stimulus, grid, and which workloads
// must come from the result store.
type campaignPlan struct {
	stimulus  string
	policies  []string
	workloads []string
	repeated  map[string]bool // workloads replayed from the source campaign
	source    int             // index of the replayed campaign, -1 if none
}

// planPair draws campaigns 2p and 2p+1, the op of this workload. The first
// runs a fresh grid under a new stimulus; the second replays the first's
// whole grid under the same stimulus (store reads) beside as many fresh
// workloads (writes), so half its cells repeat and its coverage must
// contain its source's. The seed picks the light workloads and the grid
// order; which half gets immo alternates from pair to pair. Every pair has
// the same shape (24 cells, 16 of them simulated, one immo and one qsort
// among them), so runs on different seeds do the same work.
func planPair(rng *rand.Rand, seed int64, phaseTag string, p int, light []string, immoFirst bool) (campaignPlan, campaignPlan) {
	stim := fmt.Sprintf("seed%d-%s-pair%d", seed, phaseTag, p)
	pick := append([]string(nil), light...)
	rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
	heavy := []string{"qsort", "immo"}
	if immoFirst {
		heavy[0], heavy[1] = heavy[1], heavy[0]
	}
	first := append(append([]string(nil), pick[:campaignLight]...), heavy[0])
	second := append(append([]string(nil), first...), pick[campaignLight:2*campaignLight]...)
	second = append(second, heavy[1])
	repeated := map[string]bool{}
	for _, w := range first {
		repeated[w] = true
	}
	shuffled := func(s []string) []string {
		s = append([]string(nil), s...)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	// The fresh heavy workload goes last in each grid row: where it sits in
	// the queue decides how well the two workers overlap it with the light
	// cells, and a seed-dependent position would make campaign time
	// seed-dependent.
	heavyLast := func(light []string, h string) []string { return append(shuffled(light), h) }
	a := campaignPlan{stimulus: stim, policies: shuffled(campaignPolicies),
		workloads: heavyLast(first[:campaignLight], heavy[0]), source: -1}
	b := campaignPlan{stimulus: stim, policies: shuffled(campaignPolicies),
		workloads: heavyLast(second[:len(second)-1], heavy[1]), repeated: repeated, source: 2 * p}
	return a, b
}

// campaignOutcome is what one campaign measured.
type campaignOutcome struct {
	submit   time.Duration
	rollup   time.Duration
	diff     time.Duration
	merge    time.Duration
	cells    samples // POST to each cell's frame on the stream
	edges    int
	hasDiff  bool
	outcomes outcomeCounts
	id       string
	sessions []string // sessions the fresh cells ran in, deleted once streamed
}

// campaignCoverage is the slice of the /coverage payload the checks read.
type campaignCoverage struct {
	CoveredCells int      `json:"covered_cells"`
	MergeErrors  []string `json:"merge_errors"`
}

// runCampaign posts one covered campaign, follows its ordered stream, then
// fetches the rollup, the raw merged snapshot and the diff against the
// previous campaign, checking each cell's verdict and the rollup's bytes.
func runCampaign(c *client, k int, plan campaignPlan, ids []string, r *report) (campaignOutcome, error) {
	var out campaignOutcome
	id := fmt.Sprintf("%s-c%d", plan.stimulus, k)
	c.begin(id, plan.stimulus)
	t0 := time.Now()
	defer c.end("campaign", t0)
	_, submit, err := c.postCampaign(telemetry.CampaignSpec{
		ID: id, Policies: plan.policies, Workloads: plan.workloads, Stimulus: plan.stimulus,
		HorizonMs: campaignHorizonMs, Cover: true,
	})
	if err != nil {
		return out, err
	}
	out.submit = submit
	out.id = id
	var cells []telemetry.CellInfo
	if err := c.streamCells(id, func(ci telemetry.CellInfo) {
		cells = append(cells, ci)
		out.cells = append(out.cells, time.Since(t0))
	}); err != nil {
		return out, err
	}
	if want := len(plan.policies) * len(plan.workloads); len(cells) != want {
		return out, fmt.Errorf("campaign %s streamed %d cells, want %d", id, len(cells), want)
	}
	snaps := make([]*cover.Snapshot, 0, len(cells))
	for i, cell := range cells {
		if !cell.Cached && cell.Session != "" {
			out.sessions = append(out.sessions, cell.Session)
		}
		r.attempted++
		out.outcomes.add(cell.Result)
		if err := checkCell(plan, i, cell); err != nil {
			r.fail("campaign-cover: %s: %v", id, err)
			continue
		}
		snaps = append(snaps, cell.Result.Cover)
	}

	body, d, err := c.call("get_coverage", http.MethodGet, "/api/v1/campaigns/"+id+"/coverage", nil, http.StatusOK)
	if err != nil {
		return out, err
	}
	out.rollup = d
	var cc campaignCoverage
	if err := data(body, &cc); err != nil {
		return out, err
	}
	raw, _, err := c.call("get_coverage_snapshot", http.MethodGet, "/api/v1/campaigns/"+id+"/coverage?format=snapshot", nil, http.StatusOK)
	if err != nil {
		return out, err
	}
	r.attempted++
	m0 := time.Now()
	offline, err := cover.MergeAll(snaps...)
	out.merge = time.Since(m0)
	switch {
	case err != nil:
		r.fail("campaign-cover: %s: offline merge: %v", id, err)
	case cc.CoveredCells != len(cells) || len(cc.MergeErrors) > 0:
		r.fail("campaign-cover: %s: rollup covered %d of %d cells, merge errors %v", id, cc.CoveredCells, len(cells), cc.MergeErrors)
	case !bytes.Equal(offline.JSON(), raw):
		r.fail("campaign-cover: %s: rollup snapshot differs from the offline MergeAll in cell order", id)
	default:
		out.edges = offline.EdgeCount()
	}

	for _, sid := range out.sessions {
		if err := c.deleteSession(sid); err != nil {
			return out, err
		}
	}
	if k > 0 {
		body, d, err := c.call("get_coverage_diff", http.MethodGet,
			"/api/v1/campaigns/"+id+"/coverage/diff?against="+ids[k-1], nil, http.StatusOK)
		if err != nil {
			return out, err
		}
		out.diff, out.hasDiff = d, true
		if plan.source == k-1 {
			var diff struct {
				Regression bool `json:"regression"`
			}
			r.attempted++
			if err := data(body, &diff); err != nil {
				return out, err
			}
			if diff.Regression {
				r.fail("campaign-cover: %s replays %s but its coverage diff reports a regression", id, ids[k-1])
			}
		}
	}
	return out, nil
}

// checkCell holds a cell to its verdict, to carrying a snapshot, and to
// coming from the store exactly when its workload was replayed.
func checkCell(plan campaignPlan, i int, cell telemetry.CellInfo) error {
	if cell.Index != i {
		return fmt.Errorf("cell %d streamed at position %d", cell.Index, i)
	}
	if err := checkVerdict(cell.Workload, cell.Policy, cell.Result); err != nil {
		return err
	}
	if cell.Result.Cover == nil {
		return fmt.Errorf("cell %d (%s/%s) has no coverage snapshot", i, cell.Workload, cell.Policy)
	}
	if want := plan.repeated[cell.Workload]; cell.Cached != want {
		return fmt.Errorf("cell %d (%s/%s) cached=%v, want %v", i, cell.Workload, cell.Policy, cell.Cached, want)
	}
	return nil
}

// campaignStats accumulates one phase.
type campaignStats struct {
	campaigns int
	pairs     samples // the op: a fresh campaign and its replay, with their checks
	cells     samples
	submit    samples
	rollup    samples
	diff      samples
	merge     samples
	edges     float64
	outcomes  outcomeCounts
}

// campaignPhase runs campaign pairs from one client until the measuring
// time is used up. It keeps the two newest campaigns (the next diff needs
// the previous one) and deletes older ones.
func campaignPhase(bs *benchServer, seed int64, phaseTag string, seconds float64, tr *tracer, r *report) (campaignStats, time.Duration) {
	light := append([]string{"micro"}, applicableAttacks()...)
	rng := rand.New(rand.NewPCG(uint64(seed), 0xca3a))
	c := newClient(bs.base, tr)
	defer c.closeIdle()
	var st campaignStats
	var ids []string
	start := time.Now()
	immoFirst := rng.IntN(2) == 1
	for p := 0; time.Since(start).Seconds() < seconds; p++ {
		a, b := planPair(rng, seed, phaseTag, p, light, immoFirst != (p%2 == 1))
		pairStart := time.Now()
		failed := r.failed
		for _, plan := range []campaignPlan{a, b} {
			k := len(ids)
			out, err := runCampaign(c, k, plan, ids, r)
			ids = append(ids, out.id)
			if k >= 2 && ids[k-2] != "" {
				if err := c.deleteCampaign(ids[k-2]); err != nil {
					r.attempted++
					r.fail("campaign-cover: delete %s: %v", ids[k-2], err)
				}
			}
			if err != nil {
				r.attempted++
				r.fail("campaign-cover: campaign %d: %v", k, err)
				continue
			}
			st.campaigns++
			st.cells = append(st.cells, out.cells...)
			st.submit = append(st.submit, out.submit)
			st.rollup = append(st.rollup, out.rollup)
			st.merge = append(st.merge, out.merge)
			if out.hasDiff {
				st.diff = append(st.diff, out.diff)
			}
			st.edges += float64(out.edges)
			st.outcomes.detected += out.outcomes.detected
			st.outcomes.bundles += out.outcomes.bundles
		}
		if r.failed == failed {
			st.pairs = append(st.pairs, time.Since(pairStart))
		}
	}
	return st, time.Since(start)
}

func setCampaignEndToEnd(st campaignStats, wall time.Duration, m *meters, r *report) {
	r.set("ops_per_s", float64(len(st.pairs))/wall.Seconds())
	r.set("mips", m.mips(wall))
	r.setLatency(st.pairs, st.cells, 95)
}

func setCampaignLayers(st campaignStats, m *meters, r *report) {
	m.setServerLayers(r)
	r.set("telemetry.submit_ms", ms(st.submit.median()))
	r.set("cover.rollup_ms", ms(st.rollup.median()))
	r.set("cover.diff_ms", ms(st.diff.median()))
	r.set("cover.merge_offline_ms", ms(st.merge.median()))
	r.set("cover.edges_total", ratio(st.edges, float64(st.campaigns)))
	r.set("flight.bundles", float64(st.outcomes.bundles))
	r.set("wk.detected", float64(st.outcomes.detected))
}

// campaignWarm lists every cell spec a campaign can contain.
func campaignWarm() []telemetry.SessionSpec {
	var cells []cellSpec
	for _, w := range append([]string{"micro", "immo", "qsort"}, applicableAttacks()...) {
		for _, p := range campaignPolicies {
			cells = append(cells, cellSpec{w, p})
		}
	}
	specs := warmSpecs(cells, campaignHorizonMs)
	for i := range specs {
		specs[i].Cover = true
	}
	return specs
}

// runCampaignCover is the campaign-cover workload.
func runCampaignCover(c runConfig, r *report) error {
	tr := newTracer(c.trace)
	p := newProbes(newTracer(false))
	bs, setup, err := startTimedServer(p, campaignWarm())
	if err != nil {
		return err
	}
	defer bs.close()

	st, wall := campaignPhase(bs, c.seed, "u", c.seconds, p.get().tr, r)
	setCampaignEndToEnd(st, wall, p.get().m, r)
	if err := setup.after(r); err != nil {
		return err
	}
	if !c.trace {
		return nil
	}
	p.reset(tr)
	st, wall = campaignPhase(bs, c.seed, "t", c.seconds, tr, r)
	traced := newReport()
	setCampaignEndToEnd(st, wall, p.get().m, traced)
	r.setTraceOverhead(traced)
	setCampaignLayers(st, p.get().m, r)
	tr.setSelfTimes(r)
	return c.writeSpans(tr)
}
