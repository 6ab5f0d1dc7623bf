package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/telemetry"
	"vpdift/internal/wk"
)

func TestNamesCoverWorkloadZoo(t *testing.T) {
	names := Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"immo", "micro", "qsort", "primes"} {
		if !have[want] {
			t.Errorf("Names() missing %q: %v", want, names)
		}
	}
	anyAttack := false
	for n := range have {
		if strings.HasPrefix(n, "wk-") {
			anyAttack = true
		}
	}
	if !anyAttack {
		t.Errorf("Names() lists no wk-N attacks: %v", names)
	}
}

func TestKeyDeterministicAndDiscriminating(t *testing.T) {
	f := NewFactory()
	base := telemetry.SessionSpec{Workload: "micro", Stimulus: "a"}
	k1, err := f.Key(base)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	k2, err := f.Key(base)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if k1 != k2 {
		t.Fatalf("same spec hashed differently: %s vs %s", k1, k2)
	}
	variants := []telemetry.SessionSpec{
		{Workload: "micro", Stimulus: "b"},
		{Workload: "micro", Stimulus: "a", Policy: "none"},
		{Workload: "micro", Stimulus: "a", HorizonMs: 7},
		{Workload: "micro", Stimulus: "a", SampleUs: 100},
		{Workload: "micro", Stimulus: "a", Observe: true},
		{Workload: "immo", Stimulus: "a"},
	}
	for _, v := range variants {
		kv, err := f.Key(v)
		if err != nil {
			t.Fatalf("Key(%+v): %v", v, err)
		}
		if kv == k1 {
			t.Errorf("spec %+v collides with base key %s", v, k1)
		}
	}
}

// TestKeyPinned pins literal keys: FileStore entries and campaign dedup
// outlive the process, so the key of an unchanged spec must never change,
// however Key computes it. The second round of lookups reuses the cached
// image hash and must agree with the first.
func TestKeyPinned(t *testing.T) {
	f := NewFactory()
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			spec telemetry.SessionSpec
			want string
		}{
			{telemetry.SessionSpec{Workload: "micro"}, "78102c6c21782b7ac44523e99cb572a4"},
			{telemetry.SessionSpec{Workload: "wk-3", Policy: "none", Stimulus: "s7", Cover: true}, "573c6b622c441351f38ddaba05ea3e99"},
			{telemetry.SessionSpec{Workload: "immo", Policy: "per-byte", HorizonMs: 20, SampleUs: 100, Observe: true}, "a5252dfec52788816acecc9a536ff848"},
			{telemetry.SessionSpec{Workload: "qsort", Scale: "small"}, "17b3339988a33b47374e35d20efd1b30"},
		} {
			got, err := f.Key(tc.spec)
			if err != nil {
				t.Fatalf("Key(%+v): %v", tc.spec, err)
			}
			if got != tc.want {
				t.Errorf("round %d: Key(%+v) = %s, want %s", round, tc.spec, got, tc.want)
			}
		}
	}
}

func TestBuildMicroRunsToExit(t *testing.T) {
	f := NewFactory()
	sc, err := f.Build(telemetry.SessionSpec{Workload: "micro"})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer sc.Close()
	if sc.Horizon != 0 {
		t.Errorf("micro horizon = %v, want 0 (run to exit)", sc.Horizon)
	}
	if err := sc.Platform.Run(kernel.S); err != nil {
		t.Fatalf("Run: %v", err)
	}
	exited, code := sc.Platform.Exited()
	if !exited || code != 0 {
		t.Fatalf("micro guest exited=%v code=%d, want clean exit", exited, code)
	}
}

func TestBuildImmoDriveDeliversChallenges(t *testing.T) {
	f := NewFactory()
	sc, err := f.Build(telemetry.SessionSpec{Workload: "immo", Stimulus: "t1", SampleUs: 1000})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer sc.Close()
	if sc.Drive == nil {
		t.Fatal("immo session has no drive closure")
	}
	if sc.Sampler == nil {
		t.Fatal("SampleUs set but no sampler attached")
	}
	// Interleave drive and run the way the server's chunked loop does.
	for i := 0; i < 12; i++ {
		if err := sc.Drive(); err != nil {
			t.Fatalf("Drive: %v", err)
		}
		if err := sc.Platform.Run(sc.Platform.Now() + kernel.MS); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	m := map[string]uint64{}
	sc.Platform.MetricsSnapshotInto(m)
	if m["io.can_frames_delivered"] == 0 && m["io.can_rx_frames"] == 0 {
		// Metric name varies; just insist the sim made progress under drive.
		if sc.Platform.Now() < 10*kernel.MS {
			t.Fatalf("immo session stalled at %v", sc.Platform.Now())
		}
	}
	if sc.Sampler.Total() == 0 {
		t.Error("sampler recorded no samples over 12ms at 1ms cadence")
	}
}

func TestBuildAttackDetected(t *testing.T) {
	// Use the first applicable attack so the test tracks the suite.
	var num int
	for _, a := range wk.Suite() {
		if a.Applicable() {
			num = a.Num
			break
		}
	}
	if num == 0 {
		t.Skip("no applicable attacks in suite")
	}
	f := NewFactory()
	sc, err := f.Build(telemetry.SessionSpec{Workload: fmt.Sprintf("wk-%d", num)})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer sc.Close()
	if sc.Horizon != kernel.S {
		t.Errorf("attack horizon = %v, want %v", sc.Horizon, kernel.S)
	}
	if err := sc.Drive(); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	err = sc.Platform.Run(sc.Horizon)
	var v *core.Violation
	if !errors.As(err, &v) {
		t.Fatalf("wk-%d under default policy: err = %v, want a *core.Violation", num, err)
	}
}

func TestResolveErrors(t *testing.T) {
	f := NewFactory()
	cases := []telemetry.SessionSpec{
		{Workload: "no-such-workload"},
		{Workload: "immo", Policy: "bogus"},
		{Workload: "micro", Policy: "per-byte"},
		{Workload: "wk-999"},
		{Workload: "qsort", Scale: "galactic"},
	}
	for _, spec := range cases {
		if _, err := f.Key(spec); err == nil {
			t.Errorf("Key(%+v) succeeded, want error", spec)
		}
	}
}
