package rv32

import (
	"errors"
	"reflect"
	"testing"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

// runQuanta drives a core in quanta of the given size until halt, an
// error, or the step budget.
func runQuanta(c *TaintCore, quantum uint64) error {
	var delay kernel.Time
	for total := uint64(0); total < 1_000_000; {
		n, st, err := c.Run(quantum, &delay)
		total += n
		if err != nil {
			return err
		}
		if st == RunHalt {
			return nil
		}
	}
	return errors.New("step budget exhausted")
}

// runBothQuanta executes src under pol once as one long run and once in
// quanta of 256 instructions — every Run return and re-entry is a resume
// point — and requires bit-identical outcomes: errors, registers (values
// and tags), PC, Instret, and every RAM byte. It returns the long run's
// rig and error.
func runBothQuanta(t *testing.T, src string, pol *core.Policy) (*taintRig, error) {
	t.Helper()

	rl := buildTaint(t, src, pol)
	longErr := runQuanta(rl.c, 1_000_000)

	rs := buildTaint(t, src, pol)
	shortErr := runQuanta(rs.c, 256)

	if (longErr == nil) != (shortErr == nil) {
		t.Fatalf("error parity: quantum 1e6=%v quantum 256=%v", longErr, shortErr)
	}
	var vl, vs *core.Violation
	if errors.As(longErr, &vl) != errors.As(shortErr, &vs) {
		t.Fatalf("violation parity: quantum 1e6=%v quantum 256=%v", longErr, shortErr)
	}
	if vl != nil && !reflect.DeepEqual(vl, vs) {
		t.Errorf("violation diverged:\nquantum 1e6: %+v\nquantum 256: %+v", vl, vs)
	}
	if rl.c.PC != rs.c.PC {
		t.Errorf("PC diverged: %#x vs %#x", rl.c.PC, rs.c.PC)
	}
	if rl.c.Instret != rs.c.Instret {
		t.Errorf("Instret diverged: %d vs %d", rl.c.Instret, rs.c.Instret)
	}
	for r := 0; r < 32; r++ {
		if rl.c.Regs[r] != rs.c.Regs[r] {
			t.Errorf("x%d diverged: %+v vs %+v", r, rl.c.Regs[r], rs.c.Regs[r])
		}
	}
	dl, ds := rl.ram.Data(), rs.ram.Data()
	for i := range dl {
		if dl[i] != ds[i] {
			t.Fatalf("RAM[%#x] diverged: %+v vs %+v", i, dl[i], ds[i])
		}
	}
	return rl, longErr
}

// checkTags requires every register tag and every RAM byte tag to be the
// policy default, except the registers and RAM address ranges [lo, hi)
// listed as tainted, which must carry want.
func checkTags(t *testing.T, r *taintRig, regs [32]core.Word, want core.Tag, taintedRegs []int, taintedRAM ...[2]uint32) {
	t.Helper()
	def := r.pol.Default
	var hot [32]bool
	for _, x := range taintedRegs {
		hot[x] = true
	}
	for x := 0; x < 32; x++ {
		exp := def
		if hot[x] {
			exp = want
		}
		if regs[x].T != exp {
			t.Errorf("%s tag = %d, want %d", RegName(x), regs[x].T, exp)
		}
	}
	data := r.ram.Data()
	for i := range data {
		addr := testRAMBase + uint32(i)
		exp := def
		for _, rg := range taintedRAM {
			if addr >= rg[0] && addr < rg[1] {
				exp = want
			}
		}
		if data[i].T != exp {
			t.Errorf("RAM[%#x] tag = %d, want %d", addr, data[i].T, exp)
		}
	}
}

// flowSrc exercises the inline propagation paths: tainted loads and stores
// of all widths, ALU joins, taint death by overwrite, branches, and clean
// loops.
const flowSrc = `
_start:
	la t0, secret
	lw a0, 0(t0)        # taint enters a register
	li a1, 5
	add a2, a0, a1      # join: tainted
	sub t3, a1, a0      # join with only rs2 tainted
	la t1, buf
	sw a2, 0(t1)        # tainted store, word
	lb a3, 1(t1)        # tainted load, signed byte
	sh a0, 4(t1)        # tainted store, half
	lhu a4, 4(t1)       # tainted load, unsigned half
	xor a5, a4, a3      # tainted join
	slli a6, a5, 2
	srai a7, a5, 1
	mul s0, a5, a1
	divu s1, a5, a1
death:
	li a2, 0            # register taint death (tainted rd, clear source)
	mv a5, zero
	mv a6, zero
	mv a7, zero
	mv s0, zero
	mv s1, zero
	mv t3, zero
	sw x0, 0(t1)        # memory taint death by overwrite
	sw x0, 4(t1)
	sw x0, 0(t0)
	mv a0, zero
	mv a3, zero
	mv a4, zero
	li t2, 50           # clean loop
1:	lw a1, 0(t1)
	addi a1, a1, 1
	sw a1, 0(t1)
	addi t2, t2, -1
	bnez t2, 1b
	call halt
	.data
secret:
	.word 0x1337c0de
buf:
	.space 32
`

// TestInlineTagStateAfterTaintDeath checks the tag state at two points of
// flowSrc: just before the deaths, every value derived from the secret is
// HC; at halt, after every tainted register and byte was overwritten with
// clean data, every tag is back at the policy default.
func TestInlineTagStateAfterTaintDeath(t *testing.T) {
	img := asm.MustAssemble(flowSrc+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r := buildTaint(t, flowSrc, pol)
	hc := pol.L.MustTag(core.ClassHC)
	death, secret, buf := img.MustSymbol("death"), img.MustSymbol("secret"), img.MustSymbol("buf")

	var atDeath [32]core.Word
	var ramAtDeath []core.TByte
	r.c.Tracer = func(pc, insn uint32) {
		if pc == death {
			atDeath = r.c.Regs
			ramAtDeath = append([]core.TByte(nil), r.ram.Data()...)
		}
	}
	if err := runQuanta(r.c, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if ramAtDeath == nil {
		t.Fatal("death label never reached")
	}
	live := buildTaint(t, flowSrc, pol)
	copy(live.ram.Data(), ramAtDeath)
	// a0-a7 but a1 (the clean constant), s0, s1 and t3; the whole secret
	// word, the stored word and the stored half.
	checkTags(t, live, atDeath, hc, []int{8, 9, 10, 12, 13, 14, 15, 16, 17, 28},
		[2]uint32{secret, secret + 4}, [2]uint32{buf, buf + 6})

	checkTags(t, r, r.c.Regs, hc, nil)
}

// TestInlineViolationTagState runs one clearance violation per register-
// steered check point and asserts the violation kind and site, and the tag
// state the core stops in: the secret-derived registers tainted, the
// secret bytes still classified, and nothing else tainted — the violating
// instruction had no effect.
func TestInlineViolationTagState(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		arm     func(p *core.Policy)
		kind    core.ViolationKind
		tainted []int // registers carrying the secret's class at the stop
	}{
		{
			name: "branch",
			src: `
_start:
	la t0, secret
	lw a0, 0(t0)
bad:	bnez a0, 1f
1:	call halt
	.data
secret:
	.word 1
`,
			arm:     func(p *core.Policy) { p.WithBranchClearance(p.L.MustTag(core.ClassLC)) },
			kind:    core.KindBranchClearance,
			tainted: []int{10},
		},
		{
			name: "jalr",
			src: `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, halt
	add t1, t1, a0
bad:	jr t1
	.data
secret:
	.word 0
`,
			arm:     func(p *core.Policy) { p.WithBranchClearance(p.L.MustTag(core.ClassLC)) },
			kind:    core.KindBranchClearance,
			tainted: []int{6, 10},
		},
		{
			name: "memaddr",
			src: `
_start:
	la t0, secret
	lw a0, 0(t0)
	la t1, buf
	add t1, t1, a0
bad:	sw x0, 0(t1)
	call halt
	.data
secret:
	.word 4
buf:
	.space 64
`,
			arm:     func(p *core.Policy) { p.WithMemAddrClearance(p.L.MustTag(core.ClassLC)) },
			kind:    core.KindMemAddrClearance,
			tainted: []int{6, 10},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := asm.MustAssemble(tc.src+testEpilogue, asm.Options{Base: testRAMBase})
			secret := img.MustSymbol("secret")
			pol := confidentialityPolicy(secret, 4)
			tc.arm(pol)
			r, err := runBothQuanta(t, tc.src, pol)
			var v *core.Violation
			if !errors.As(err, &v) || v.Kind != tc.kind {
				t.Fatalf("err = %v, want %v violation", err, tc.kind)
			}
			hc := pol.L.MustTag(core.ClassHC)
			if bad := img.MustSymbol("bad"); v.PC != bad || r.c.PC != bad {
				t.Errorf("violation pc=%#x, core stopped at %#x; want both at %#x", v.PC, r.c.PC, bad)
			}
			if v.Have != hc {
				t.Errorf("violation tag = %d, want HC (%d)", v.Have, hc)
			}
			checkTags(t, r, r.c.Regs, hc, tc.tainted, [2]uint32{secret, secret + 4})
		})
	}
}

// TestQuantumResumeIdenticalState runs flowSrc, whose taint lives and dies
// across the 256-instruction boundary, in short and long quanta: resuming
// Run must carry the register file and RAM tags over exactly.
func TestQuantumResumeIdenticalState(t *testing.T) {
	img := asm.MustAssemble(flowSrc+testEpilogue, asm.Options{Base: testRAMBase})
	pol := confidentialityPolicy(img.MustSymbol("secret"), 4)
	r, err := runBothQuanta(t, flowSrc, pol)
	if err != nil {
		t.Fatal(err)
	}
	if r.c.Instret <= 256 {
		t.Fatalf("Instret = %d: the program never crossed a quantum boundary", r.c.Instret)
	}
}
