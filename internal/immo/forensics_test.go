package immo

import (
	"errors"
	"reflect"
	"testing"

	"vpdift/internal/core"
)

// TestForensicParityCaseStudy runs the paper's immobilizer attack scenarios
// and holds the flight recorder to the same contract the WK suite enforces:
// every violating scenario freezes a bundle whose trace window ends at the
// violation, bit-identical between two runs of the same stimulus, and
// disabling the recorder changes nothing about the verdict.
func TestForensicParityCaseStudy(t *testing.T) {
	scenarios := []struct {
		name    string
		cmd     byte
		payload []byte
		kind    core.ViolationKind
	}{
		{"direct-leak", 'a', nil, core.KindOutputClearance},
		{"branch-on-pin", 'c', nil, core.KindBranchClearance},
		{"overwrite-pin", 'o', []byte{0x42}, core.KindStoreClearance},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ei := mustECU(t, VariantFixed, PolicyBase)
			errI := ei.Command(sc.cmd, sc.payload...)
			er := mustECU(t, VariantFixed, PolicyBase)
			errR := er.Command(sc.cmd, sc.payload...)

			var vi, vr *core.Violation
			if !errors.As(errI, &vi) || !errors.As(errR, &vr) {
				t.Fatalf("want violations in both runs: %v, %v", errI, errR)
			}
			if vi.Kind != sc.kind {
				t.Fatalf("violation = %v, want kind %v", vi, sc.kind)
			}
			bI := ei.Platform.LastForensics()
			bR := er.Platform.LastForensics()
			if bI == nil || bR == nil {
				t.Fatalf("missing bundle: first=%v repeat=%v", bI != nil, bR != nil)
			}
			if bI.Reason != "violation" {
				t.Fatalf("bundle reason %q, want violation", bI.Reason)
			}
			if got := bI.Trace[len(bI.Trace)-1].Kind; got != "violation" {
				t.Fatalf("trace window ends at %q, want violation", got)
			}
			if !reflect.DeepEqual(bI.Regs, bR.Regs) {
				t.Errorf("register/tag files diverge")
			}
			if !reflect.DeepEqual(bI.Trace, bR.Trace) {
				t.Errorf("trace windows diverge (%d records, repeat %d)",
					len(bI.Trace), len(bR.Trace))
			}
			if !reflect.DeepEqual(bI.Violation, bR.Violation) {
				t.Errorf("violation headlines diverge:\nfirst:  %+v\nrepeat: %+v",
					bI.Violation, bR.Violation)
			}

			// Recorder off: same verdict, no bundle.
			eo, err := NewECUWithConfig(VariantFixed, PolicyBase, ECUConfig{FlightOff: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eo.Close)
			errO := eo.Command(sc.cmd, sc.payload...)
			var vo *core.Violation
			if !errors.As(errO, &vo) {
				t.Fatalf("recorder-off run did not violate: %v", errO)
			}
			if vo.Kind != vi.Kind || vo.PC != vi.PC || vo.Addr != vi.Addr {
				t.Fatalf("recorder-off violation diverges: on=%v off=%v", vi, vo)
			}
			if eo.Platform.LastForensics() != nil {
				t.Fatal("recorder-off platform produced a bundle")
			}
		})
	}
}
