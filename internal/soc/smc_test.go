package soc

import (
	"runtime"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
)

// Self-modifying code through bus initiators: the decode caches are
// invalidated inline for the CPU's own direct-path stores, but writes that
// arrive over the TLM fabric — the DMA engine, or data stores routed
// through full transactions under TaintMemViaTLM — reach RAM behind the
// CPU's back and invalidate via the memory write hooks. These tests pin
// that hook path on both platforms.
//
// The guest calls victim (returns 1, warming the decode cache), rewrites
// victim's first instruction with `addi a0, x0, 7` via the path under
// test, calls victim again, and exits 0 only if the calls returned 1 and 7.
const smcDMAGuest = `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	call victim
	mv s0, a0            # 1
	li t0, DMA_BASE
	la t1, newinsn
	sw t1, DMA_SRC(t0)
	la t1, victim
	sw t1, DMA_DST(t0)
	li t1, 4
	sw t1, DMA_LEN(t0)
	li t1, 1
	sw t1, DMA_CTRL(t0)  # copy happens immediately in the model
	call victim          # must now return 7
	xori t0, a0, 7
	xori t1, s0, 1
	or a0, t0, t1        # 0 iff both calls returned as expected
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

victim:
	li a0, 1
	ret

newinsn:
	li a0, 7             # the word DMA copies over victim's first insn
`

func runSMCGuest(t *testing.T, cfg Config, src string) {
	t.Helper()
	pl := MustNew(cfg)
	defer pl.Shutdown()
	if err := pl.Load(guest.MustProgram(src)); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	exited, code := pl.Exited()
	if !exited || code != 0 {
		t.Fatalf("exited=%v code=%d, want clean exit 0 (stale instruction executed?)", exited, code)
	}
}

func TestSelfModifyingCodeViaDMAOnVP(t *testing.T) {
	runSMCGuest(t, Config{}, smcDMAGuest)
}

func TestSelfModifyingCodeViaDMAOnVPPlus(t *testing.T) {
	// A fetch-checking integrity policy with the whole image HI: the DMA
	// source word lives inside the image, so the copy carries HI tags and
	// the patched victim must (re-)pass the fetch check. This exercises
	// both halves of the hook: the stale decoded instruction is dropped
	// AND the cached fetch-tag summary is recomputed over the new bytes.
	img := guest.MustProgram(smcDMAGuest)
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
	runSMCGuest(t, Config{Policy: pol}, smcDMAGuest)
}

func TestSelfModifyingCodeViaTLMStore(t *testing.T) {
	// TaintMemViaTLM routes the patch store through a full TLM transaction
	// into mem.Memory.Transport instead of the CPU's direct path, so the
	// invalidation must come from the write hook.
	l := core.IFP2()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
	runSMCGuest(t, Config{Policy: pol, TaintMemViaTLM: true}, `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	call victim
	mv s0, a0            # 1
	la t0, victim
	la t1, newinsn
	lw t1, 0(t1)
	sw t1, 0(t0)         # TLM-routed store over victim's first insn
	call victim          # must now return 7
	xori t0, a0, 7
	xori t1, s0, 1
	or a0, t0, t1
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

victim:
	li a0, 1
	ret

newinsn:
	li a0, 7
`)
}

// TestVPPlusSetupAllocatesUnderThreeTimesRAM bounds the bytes a VP+
// session allocates before it runs. The tagged RAM takes two bytes per guest
// byte; the decode cache grows with the code a guest executes, so it must
// not add a RAM-sized share up front (a cache with one 16-byte entry per RAM
// word used to add four more).
func TestVPPlusSetupAllocatesUnderThreeTimesRAM(t *testing.T) {
	img := guest.MustProgram(smcDMAGuest)
	l := core.IFP2()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pl, err := New(Config{Policy: pol, RAMSize: DefaultRAMSize})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*DefaultRAMSize)
	t.Logf("soc.New + Load: %d bytes, %.2fx RAM", got, float64(got)/DefaultRAMSize)
	if got >= limit {
		t.Errorf("soc.New + Load allocated %d bytes, want < %d (3x RAM)", got, limit)
	}
}
