package soc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
)

// Config.DecoupledTaint is deprecated and ignored: the VP+ has one
// interpreter. Configurations that still set it must get exactly the
// platform they would get without it.

// dmaLeakSrc programs a DMA copy of the secret (a bus-initiated tag move)
// and then leaks the copy to the UART.
const dmaLeakSrc = `
main:
	li t0, DMA_BASE
	la t1, secret
	sw t1, DMA_SRC(t0)
	la t1, scratch
	sw t1, DMA_DST(t0)
	li t1, 4
	sw t1, DMA_LEN(t0)
	li t1, 1
	sw t1, DMA_CTRL(t0)
	la t0, scratch
	lbu t1, 0(t0)
	li t0, UART_BASE
	sw t1, UART_TX(t0)    # leaked copy -> violation
	li a0, 0
	j exit
	.data
	.align 2
secret:	.word 0x11223344
scratch:
	.word 0
`

// TestDecoupledPlatformParity: setting the ignored field changes no
// verdict, tag or instruction count.
func TestDecoupledPlatformParity(t *testing.T) {
	img := guest.MustProgram(dmaLeakSrc)
	l := core.IFP1()
	lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
	secret := img.MustSymbol("secret")
	pol := core.NewPolicy(l, lc).
		WithOutput("uart0.tx", lc).
		WithRegion(core.RegionRule{Name: "secret", Start: secret, End: secret + 4, Classify: true, Class: hc})

	run := func(decoupled bool) (*core.Violation, map[string]uint64, uint64) {
		t.Helper()
		pl := MustNew(Config{Policy: pol, DecoupledTaint: decoupled})
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		err := pl.Run(kernel.S)
		var v *core.Violation
		if !errors.As(err, &v) || v.Port != "uart0.tx" {
			t.Fatalf("DecoupledTaint=%v: err = %v, want uart0.tx violation", decoupled, err)
		}
		return v, pl.TaintSummary(), pl.Instret()
	}

	vi, si, ni := run(false)
	vd, sd, nd := run(true)

	if !reflect.DeepEqual(vi, vd) {
		t.Errorf("violation diverged:\nunset: %+v\nset:   %+v", vi, vd)
	}
	if !reflect.DeepEqual(si, sd) {
		t.Errorf("taint summary diverged:\nunset: %v\nset:   %v", si, sd)
	}
	if ni != nd {
		t.Errorf("instret diverged: unset %d set %d", ni, nd)
	}
}

// TestDecoupledPlatformMetrics: a platform with the ignored field set
// publishes the same metric keys as one without, and none under the
// retired dift. prefix.
func TestDecoupledPlatformMetrics(t *testing.T) {
	img := guest.MustProgram(`
main:
	li a0, 0
	j exit
`)
	l := core.IFP1()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC))
	keys := func(decoupled bool) map[string]bool {
		t.Helper()
		pl := MustNew(Config{Policy: pol, DecoupledTaint: decoupled})
		defer pl.Shutdown()
		if err := pl.Load(img); err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(kernel.S); err != nil {
			t.Fatal(err)
		}
		ks := map[string]bool{}
		for k := range pl.MetricsSnapshot() {
			if strings.HasPrefix(k, "dift.") {
				t.Errorf("DecoupledTaint=%v: metric %q under the retired dift. prefix", decoupled, k)
			}
			ks[k] = true
		}
		return ks
	}
	if set, unset := keys(true), keys(false); !reflect.DeepEqual(set, unset) {
		t.Errorf("metric keys differ:\nset:   %v\nunset: %v", set, unset)
	}
}
