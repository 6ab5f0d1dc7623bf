package wk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vpdift/internal/flight"
)

// TestForensicBundleEndsAtViolation runs every applicable attack with the
// default (recorder-on) platform and checks the acceptance invariant: each
// detected attack yields a validating bundle whose trace window ends at the
// violating instruction. A repeat run must freeze a bit-identical bundle —
// trace window, register/tag file, memory hexdumps and violation headline
// (host-volatile metrics are the one excluded field).
func TestForensicBundleEndsAtViolation(t *testing.T) {
	for _, a := range Suite() {
		a := a
		if !a.Applicable() {
			continue
		}
		t.Run(fmt.Sprintf("attack-%d", a.Num), func(t *testing.T) {
			res, v, b, err := RunForensic(&a, true, RunMode{})
			if err != nil {
				t.Fatal(err)
			}
			if res != Detected || v == nil {
				t.Fatalf("attack %d not detected (res=%v)", a.Num, res)
			}
			if b == nil {
				t.Fatalf("attack %d detected but produced no forensic bundle", a.Num)
			}
			parsed, err := flight.ValidateBundle(b.JSON())
			if err != nil {
				t.Fatalf("bundle failed validation: %v", err)
			}
			if len(parsed.Trace) == 0 {
				t.Fatal("bundle has an empty trace window")
			}
			last := parsed.Trace[len(parsed.Trace)-1]
			if last.Kind != "violation" || last.PC != flight.Hex32(v.PC) {
				t.Fatalf("trace window ends at %s/%s, want violation at %s",
					last.Kind, last.PC, flight.Hex32(v.PC))
			}
			if parsed.Violation == nil || parsed.Violation.PC != flight.Hex32(v.PC) {
				t.Fatalf("bundle violation headline = %+v, want pc %s",
					parsed.Violation, flight.Hex32(v.PC))
			}

			_, _, r, err := RunForensic(&a, true, RunMode{})
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				t.Fatal("repeat run produced no bundle")
			}
			if b.Reason != r.Reason || b.PC != r.PC || b.Instret != r.Instret ||
				b.SimNs != r.SimNs || b.Captured != r.Captured || b.Dropped != r.Dropped {
				t.Errorf("bundle headers diverge on repeat: reason=%s/%s pc=%s/%s instret=%d/%d",
					b.Reason, r.Reason, b.PC, r.PC, b.Instret, r.Instret)
			}
			if !reflect.DeepEqual(b.Regs, r.Regs) || !reflect.DeepEqual(b.Trace, r.Trace) ||
				!reflect.DeepEqual(b.Mem, r.Mem) || !reflect.DeepEqual(b.Violation, r.Violation) {
				t.Errorf("bundle body diverges on repeat")
			}
		})
	}
}

// TestForensicRecorderInvariance proves the always-on recorder is a pure
// observer: with the recorder disabled, every attack must reach the exact
// same verdict, violating PC and violation kind.
func TestForensicRecorderInvariance(t *testing.T) {
	for _, a := range Suite() {
		a := a
		if !a.Applicable() {
			continue
		}
		t.Run(fmt.Sprintf("attack-%d", a.Num), func(t *testing.T) {
			resOn, vOn, bOn, err := RunForensic(&a, true, RunMode{})
			if err != nil {
				t.Fatal(err)
			}
			resOff, vOff, bOff, err := RunForensic(&a, true, RunMode{FlightOff: true})
			if err != nil {
				t.Fatal(err)
			}
			if resOn != resOff {
				t.Fatalf("verdict diverges: on=%v off=%v", resOn, resOff)
			}
			if vOn.PC != vOff.PC || vOn.Kind != vOff.Kind || vOn.Addr != vOff.Addr {
				t.Fatalf("violation diverges: on=%v off=%v", vOn, vOff)
			}
			if bOn == nil {
				t.Fatal("recorder on produced no bundle")
			}
			if bOff != nil {
				t.Fatal("recorder off produced a bundle")
			}
		})
	}
}

// TestForensicReportGolden locks the human-readable report for a fixed
// attack against a golden file. The report is deterministic by construction
// (volatile fields are excluded from WriteReport); run with -update to
// regenerate after an intentional format change.
func TestForensicReportGolden(t *testing.T) {
	var attack *Attack
	for _, a := range Suite() {
		a := a
		if a.Num == 3 && a.Applicable() {
			attack = &a
			break
		}
	}
	if attack == nil {
		t.Fatal("attack 3 not applicable")
	}
	res, _, b, err := RunForensic(attack, true, RunMode{})
	if err != nil {
		t.Fatal(err)
	}
	if res != Detected || b == nil {
		t.Fatalf("attack 3 not detected with a bundle (res=%v)", res)
	}
	// The version string depends on how the binary was built; pin it so the
	// golden holds under both `go test` and any future tagged build.
	b.Version = "test"
	var got bytes.Buffer
	if err := b.WriteReport(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wk3.forensics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wk -run ForensicReportGolden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines := bytes.Split(got.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		n := len(gotLines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for k := 0; k < n; k++ {
			if !bytes.Equal(gotLines[k], wantLines[k]) {
				t.Fatalf("report deviates from golden at line %d:\ngot:  %s\nwant: %s",
					k+1, gotLines[k], wantLines[k])
			}
		}
		t.Fatalf("report length deviates from golden: got %d lines, want %d",
			len(gotLines), len(wantLines))
	}
}
