package rv32

import (
	"errors"
	"fmt"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/kernel"
)

// The predecoded-instruction cache must never let a core execute stale
// bytes: a guest that overwrites one of its own instructions has to see the
// new encoding on the next fetch. The tests below pin that invalidation
// semantics on both cores — for direct-path stores, with and without an
// intervening FENCE.I (the model invalidates eagerly on every store, which
// is stricter than the architecture requires, and FENCE.I must at minimum
// keep working as the architectural synchronization point).
//
// smcPatchBody calls victim (warming the cache with `li a0, 1`), overwrites
// victim's first instruction with `addi a0, x0, 7`, optionally issues
// FENCE.I, calls victim again, and packs both return values into a0:
// (first << 4) | second = 0x17 when the patch took effect.
func smcPatchBody(fence string) string {
	return `
_start:
	call victim          # warm the decode cache; returns 1
	mv s0, a0
	la t0, victim
	la t1, patch
	lw t1, 0(t1)
	sw t1, 0(t0)         # overwrite victim's first instruction
	` + fence + `
	call victim          # must now return 7
	slli s0, s0, 4
	or a0, a0, s0        # 0x17 on success
	call halt

victim:
	li a0, 1
	ret

	.data
	.align 2
patch:
	.word 0x00700513     # addi a0, x0, 7
`
}

func TestSelfModifyingCodePlainCore(t *testing.T) {
	for _, tc := range []struct {
		name, fence string
	}{
		{"with fence.i", "fence.i"},
		{"without fence.i", "nop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, _ := runPlain(t, smcPatchBody(tc.fence))
			if got := c.Regs[10]; got != 0x17 {
				t.Errorf("a0 = %#x, want 0x17 (stale instruction executed)", got)
			}
		})
	}
}

func TestSelfModifyingCodeTaintCore(t *testing.T) {
	// A no-check policy: the point here is purely that the VP+ decode cache
	// invalidates on stores, not what the tags say.
	for _, tc := range []struct {
		name, fence string
	}{
		{"with fence.i", "fence.i"},
		{"without fence.i", "nop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := core.IFP2()
			pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
			r := buildTaint(t, smcPatchBody(tc.fence), pol)
			if err := r.run(t); err != nil {
				t.Fatal(err)
			}
			if got := r.c.Regs[10].V; got != 0x17 {
				t.Errorf("a0 = %#x, want 0x17 (stale instruction executed)", got)
			}
		})
	}
}

func TestPatchedInstructionLosesFetchClearance(t *testing.T) {
	// The cached fetch-tag summary must die with the entry. victim is HI
	// text and its first fetch caches an allowed verdict; the patch word is
	// loaded from .data (outside the HI text region, so LI-tagged) and
	// stored over victim, so the second call must re-check the fold and
	// raise a fetch-clearance violation — a cached allowed=true surviving
	// the overwrite would be exactly the code-injection blind spot the WK
	// suite tests for. No FENCE.I on purpose: eager store invalidation
	// alone has to keep the summary honest.
	src := smcPatchBody("nop")
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(src+testEpilogue, asm.Options{Base: testRAMBase})
	pol := core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
			Classify: true, Class: hi,
		})
	r := buildTaint(t, src, pol)
	v := r.mustViolate(t, core.KindFetchClearance)
	if want := img.MustSymbol("victim"); v.PC != want {
		t.Errorf("violation at pc=%#x, want victim %#x", v.PC, want)
	}
}

func TestSelfModifyingCodeWithCacheDisabled(t *testing.T) {
	// The ablation configuration (always-decode slow path) must of course
	// see the new bytes too.
	c, _, _ := buildPlain(t, smcPatchBody("nop"))
	c.DisableDecodeCache()
	var delay kernel.Time
	n, st, err := c.Run(1_000_000, &delay)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st != RunHalt {
		t.Fatalf("status = %v after %d instructions, want halt", st, n)
	}
	if got := c.Regs[10]; got != 0x17 {
		t.Errorf("a0 = %#x, want 0x17", got)
	}
}

func TestICacheWatermarkAndInvalidate(t *testing.T) {
	ic := newICache(64)
	if ic.overlaps(0, 64) {
		t.Error("empty cache must not report overlap")
	}
	if !ic.grow(0) || len(ic.ents) != 16 {
		t.Fatalf("grow(0) on a 64-byte RAM gave %d entries, want 16", len(ic.ents))
	}
	ic.ents[2].state = icValid
	ic.noteFill(8)
	ic.ents[5].state = icValid
	ic.noteFill(20)
	if !ic.overlaps(8, 12) || !ic.overlaps(20, 24) || !ic.overlaps(0, 64) {
		t.Error("watermark must cover filled entries")
	}
	if ic.overlaps(0, 8) || ic.overlaps(24, 64) {
		t.Error("watermark must exclude [0,8) and [24,64)")
	}
	// Invalidate a range touching only the first entry.
	ic.invalidate(10, 11)
	if ic.ents[2].state != 0 {
		t.Error("byte write into word 2 must invalidate entry 2")
	}
	if ic.ents[5].state == 0 {
		t.Error("entry 5 must survive an invalidate of word 2")
	}
	ic.invalidateAll()
	if ic.ents[5].state != 0 {
		t.Error("invalidateAll must drop entry 5")
	}
	if ic.overlaps(0, 64) {
		t.Error("invalidateAll must reset the watermark")
	}
	// Out-of-range invalidates must clamp, not panic.
	ic.noteFill(60)
	ic.ents[15].state = icValid
	ic.invalidate(60, 100)
	if ic.ents[15].state != 0 {
		t.Error("clamped invalidate must still drop the last entry")
	}
}

func TestICacheGrowsOnDemand(t *testing.T) {
	const ramSize = 1 << 20
	ic := newICache(ramSize)
	if len(ic.ents) != 0 {
		t.Fatalf("a new cache holds %d entries, want none", len(ic.ents))
	}
	if !ic.grow(10) || len(ic.ents) != icMinGrow {
		t.Fatalf("first grow gave %d entries, want %d", len(ic.ents), icMinGrow)
	}
	ic.ents[10].state = icValid
	ic.ents[10].word = 0x00100513
	ic.noteFill(40)
	// Doubling from 1024 until word 5000 is covered: 2048, 4096, 8192.
	if !ic.grow(5000) || len(ic.ents) != 8192 {
		t.Fatalf("grow(5000) gave %d entries, want 8192", len(ic.ents))
	}
	if e := ic.ents[10]; e.state != icValid || e.word != 0x00100513 {
		t.Errorf("entry 10 lost across growth: %+v", e)
	}
	if ic.lo != 40 || ic.hi != 44 || ic.fills != 1 {
		t.Errorf("watermark/fills changed by growth: lo=%d hi=%d fills=%d", ic.lo, ic.hi, ic.fills)
	}
	// Growth is capped at RAM, and nothing past RAM is ever covered.
	if !ic.grow(ramSize/4-1) || len(ic.ents) != ramSize/4 {
		t.Errorf("grow to the last word gave %d entries, want %d", len(ic.ents), ramSize/4)
	}
	if ic.grow(ramSize / 4) {
		t.Error("grow past RAM must report false")
	}
	if ic.ents[10].state != icValid {
		t.Error("entry 10 lost across the capped growth")
	}

	// Invalidations past the grown slice are no-ops: nothing was filled
	// there. The watermark is pushed past len(ents) by hand to make the
	// ranges overlap it.
	ic = newICache(ramSize)
	ic.invalidate(0, ramSize)
	ic.invalidateAll()
	ic.noteFill(0x80000)
	ic.invalidate(0x80000, 0x80004) // empty slice
	ic.invalidateAll()
	ic.grow(1)
	ic.ents[1].state = icValid
	ic.noteFill(4)
	ic.noteFill(0x80000)
	ic.invalidate(0x10000, 0x80004)
	if ic.ents[1].state != icValid {
		t.Error("invalidate past len(ents) dropped entry 1")
	}
	ic.invalidateAll()
	if ic.ents[1].state != 0 || ic.overlaps(0, ramSize) {
		t.Error("invalidateAll with a watermark past len(ents) must still clear and reset")
	}

	// A disabled cache never grows.
	var off icache
	if off.grow(0) || len(off.ents) != 0 {
		t.Error("a disabled cache must not grow")
	}
}

// farCodeBody copies a two-instruction routine (`li a0, 1; ret`) from the
// text to farCode, far above the image, and calls it: the decode cache has
// to grow mid-run to hold it. It then patches the routine's first word with
// `addi a0, x0, 7` loaded from .data and calls it again, so the store must
// invalidate the grown entry. a0 packs both calls: 0x17 on success. The
// copied words come from the text, so under an integrity policy they keep
// the text's tag and pass the fetch clearance; the patch word comes from
// .data and must not.
const farCode = testRAMBase + 0x40000

var farCodeBody = fmt.Sprintf(`
	.equ FAR, %#x
_start:
	li s2, FAR
	la t0, routine
	lw t1, 0(t0)
	sw t1, 0(s2)
	lw t1, 4(t0)
	sw t1, 4(s2)
	jalr s2               # li a0, 1 at FAR
	mv s0, a0
	la t0, patch
	lw t1, 0(t0)
	sw t1, 0(s2)          # patch the cached far word
	jalr s2               # must now return 7
	slli s0, s0, 4
	or a0, a0, s0
	call halt

routine:
	li a0, 1
	ret

	.data
	.align 2
patch:
	.word 0x00700513      # addi a0, x0, 7
`, farCode)

// checkGrown requires a decode cache that covers farCode without having
// grown to the whole RAM, no uncached fetch, and the same fill count and
// watermark as ref, a run whose cache was grown to one entry per RAM word
// before it started (the cache's size before it grew on demand).
func checkGrown(t *testing.T, ic, ref *icache, uncached uint64) {
	t.Helper()
	idx := uint32(farCode-testRAMBase) >> 2
	if n := uint32(len(ic.ents)); n <= idx || n >= testRAMSize/4 {
		t.Errorf("cache holds %d entries; want more than %d (covering the far code) and fewer than %d (all RAM)",
			n, idx, testRAMSize/4)
	}
	if uncached != 0 {
		t.Errorf("%d fetches bypassed the cache, want 0", uncached)
	}
	if ic.fills != ref.fills || ic.lo != ref.lo || ic.hi != ref.hi {
		t.Errorf("fills=%d lo=%#x hi=%#x; a RAM-sized cache gives fills=%d lo=%#x hi=%#x",
			ic.fills, ic.lo, ic.hi, ref.fills, ref.lo, ref.hi)
	}
}

// growAll grows a cache to one entry per RAM word.
func growAll(ic *icache) { ic.grow(ic.words - 1) }

func TestDecodeCacheGrowsForFarCode(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		run := func(preGrow bool) *Core {
			c, _, _ := buildPlain(t, farCodeBody)
			if preGrow {
				growAll(&c.ic)
			}
			var delay kernel.Time
			if _, st, err := c.Run(1_000_000, &delay); err != nil || st != RunHalt {
				t.Fatalf("run: st=%v err=%v", st, err)
			}
			return c
		}
		c, ref := run(false), run(true)
		if got := c.Regs[10]; got != 0x17 {
			t.Errorf("a0 = %#x, want 0x17 (stale far instruction executed)", got)
		}
		checkGrown(t, &c.ic, &ref.ic, c.uncachedFetch)
	})
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	img := asm.MustAssemble(farCodeBody+testEpilogue, asm.Options{Base: testRAMBase})
	integrity := func() *core.Policy {
		return core.NewPolicy(l, li).
			WithFetchClearance(hi).
			WithRegion(core.RegionRule{
				Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
				Classify: true, Class: hi,
			})
	}
	run := func(pol *core.Policy, preGrow bool) (*TaintCore, error) {
		r := buildTaint(t, farCodeBody, pol)
		if preGrow {
			growAll(&r.c.ic)
		}
		return r.c, runQuanta(r.c, 1_000_000)
	}
	t.Run("taint inline", func(t *testing.T) {
		c, err := run(core.NewPolicy(l, li), false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := run(core.NewPolicy(l, li), true)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Regs[10].V; got != 0x17 {
			t.Errorf("a0 = %#x, want 0x17 (stale far instruction executed)", got)
		}
		checkGrown(t, &c.ic, &ref.ic, c.uncachedFetch)
	})
	t.Run("taint inline fetch clearance", func(t *testing.T) {
		c, err := run(integrity(), false)
		var v *core.Violation
		if !errors.As(err, &v) || v.Kind != core.KindFetchClearance {
			t.Fatalf("err = %v, want a fetch-clearance violation", err)
		}
		if v.PC != farCode {
			t.Errorf("violation at pc=%#x, want the patched far word %#x", v.PC, farCode)
		}
		// The first call ran the far copy cleanly, so the verdict came
		// from a re-check of the patched word in the grown cache.
		if got := c.Regs[8].V; got != 1 {
			t.Errorf("s0 = %#x, want 1 from the clean first call", got)
		}
		ref, _ := run(integrity(), true)
		checkGrown(t, &c.ic, &ref.ic, c.uncachedFetch)
	})
	// Resuming at quantum boundaries must not disturb the grown cache's
	// verdicts: small quanta end in the same state as one long run.
	t.Run("parity", func(t *testing.T) {
		runBothQuanta(t, farCodeBody, integrity())
	})
}

func TestDisabledDecodeCacheNeverGrows(t *testing.T) {
	c, _, _ := buildPlain(t, farCodeBody)
	c.DisableDecodeCache()
	var delay kernel.Time
	if _, st, err := c.Run(1_000_000, &delay); err != nil || st != RunHalt {
		t.Fatalf("run: st=%v err=%v", st, err)
	}
	if got := c.Regs[10]; got != 0x17 {
		t.Errorf("plain a0 = %#x, want 0x17", got)
	}
	if fills, uncached := c.DecodeCacheStats(); len(c.ic.ents) != 0 || fills != 0 || uncached != c.Instret {
		t.Errorf("plain: %d entries, %d fills, %d uncached of %d fetches; want 0, 0, all",
			len(c.ic.ents), fills, uncached, c.Instret)
	}

	l := core.IFP2()
	r := buildTaint(t, farCodeBody, core.NewPolicy(l, l.MustTag(core.ClassLI)))
	r.c.DisableDecodeCache()
	if err := r.run(t); err != nil {
		t.Fatal(err)
	}
	if got := r.c.Regs[10].V; got != 0x17 {
		t.Errorf("taint a0 = %#x, want 0x17", got)
	}
	if fills, uncached := r.c.DecodeCacheStats(); len(r.c.ic.ents) != 0 || fills != 0 || uncached != r.c.Instret {
		t.Errorf("taint: %d entries, %d fills, %d uncached of %d fetches; want 0, 0, all",
			len(r.c.ic.ents), fills, uncached, r.c.Instret)
	}
}

// smcNextBody rewrites the instruction that immediately follows the store,
// in the same straight-line run: no call or branch separates the store
// from the patched word. The loop runs twice so the target's decode-cache
// entry is warm when the second pass patches it; the first pass stores the
// original encoding, the second `addi a0, x0, 7`. a0 packs both passes:
// (first << 4) | second = 0x17 when the second pass executed the new word.
const smcNextBody = `
_start:
	la t0, target
	la t2, words
	li s0, 0
	li s1, 0
	li t3, 2
again:
	lw t1, 0(t2)
	sw t1, 0(t0)          # rewrite the very next instruction
target:
	addi a0, x0, 1        # addi a0, x0, 7 on the second pass
	slli s0, s0, 4
	or s0, s0, a0
	addi t2, t2, 4
	addi s1, s1, 1
	blt s1, t3, again
	mv a0, s0
	call halt

	.data
	.align 2
words:
	.word 0x00100513      # addi a0, x0, 1
	.word 0x00700513      # addi a0, x0, 7
`

func TestSelfModifyingCodeNextInstruction(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		c, _, _ := runPlain(t, smcNextBody)
		if got := c.Regs[10]; got != 0x17 {
			t.Errorf("a0 = %#x, want 0x17 (stale instruction executed)", got)
		}
	})
	l := core.IFP2()
	t.Run("taint inline", func(t *testing.T) {
		r := buildTaint(t, smcNextBody, core.NewPolicy(l, l.MustTag(core.ClassLI)))
		if err := runQuanta(r.c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		if got := r.c.Regs[10].V; got != 0x17 {
			t.Errorf("a0 = %#x, want 0x17 (stale instruction executed)", got)
		}
	})
}

// selfPatchBody stores a `beq x0, x0, 8` encoding over the storing
// instruction itself. The word retired at selfpatch is the sw, a
// fall-through: coverage must classify it from the executed word, not from
// the branch now sitting in RAM, and so record no edge out of it.
const selfPatchBody = `
_start:
	la t0, selfpatch
	la t1, beqword
	lw t1, 0(t1)
selfpatch:
	sw t1, 0(t0)
	call halt

	.data
	.align 2
beqword:
	.word 0x00000463      # beq x0, x0, 8
`

func TestCoverageUsesExecutedWord(t *testing.T) {
	check := func(t *testing.T, g *cover.GuestCov, img *asm.Image) {
		t.Helper()
		pc := img.MustSymbol("selfpatch")
		if n := g.Count(pc); n != 1 {
			t.Fatalf("selfpatch retired %d times, want 1", n)
		}
		if n := g.EdgeCount(pc, pc+4); n != 0 {
			t.Errorf("edge selfpatch -> +4 recorded %d times; the executed sw is no branch", n)
		}
	}
	newGuest := func() *cover.GuestCov {
		g := cover.NewGuest()
		g.Configure(testRAMBase, testRAMSize)
		return g
	}
	t.Run("plain", func(t *testing.T) {
		c, img, _ := buildPlain(t, selfPatchBody)
		g := newGuest()
		c.Cov = &cover.Cover{Guest: g}
		var delay kernel.Time
		if _, st, err := c.Run(1000, &delay); err != nil || st != RunHalt {
			t.Fatalf("run: st=%v err=%v", st, err)
		}
		check(t, g, img)
	})
	l := core.IFP2()
	t.Run("taint inline", func(t *testing.T) {
		r := buildTaint(t, selfPatchBody, core.NewPolicy(l, l.MustTag(core.ClassLI)))
		g := newGuest()
		r.c.Cov = &cover.Cover{Guest: g}
		if err := runQuanta(r.c, 1000); err != nil {
			t.Fatal(err)
		}
		check(t, g, r.img)
	})
}
