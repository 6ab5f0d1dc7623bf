// Package wk reproduces Table I of the paper: the Wilander–Kamkar buffer
// overflow attack suite, as ported to RISC-V by Palmiero et al. (IEEE HPEC
// 2018), run against the code-injection security policy of Section VI-B.
//
// Each attack smuggles the address of a "malicious" payload function into a
// control-flow slot (return address, function pointer, or longjmp buffer)
// by overflowing a buffer with attacker data arriving on the UART. The
// policy is IFP-2: the program image is classified High-Integrity at load
// time, the instruction-fetch unit has HI clearance, all external input is
// Low-Integrity, and — as in the paper — the payload function itself is
// classified LI before the test ("in a real world scenario, this code would
// be inserted by external components and thus also have an LI security
// class").
//
// Detection is a fetch-clearance violation at the first instruction of the
// payload. Eight of the eighteen attack forms are not applicable on RISC-V,
// for the same reasons as in the original port: there is no frame/base
// pointer to smash in the standard calling convention, and parameters
// travel in registers rather than on the stack.
package wk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
)

// Result is the Table I outcome of one attack.
type Result int

// Possible outcomes.
const (
	// NA: the attack form does not exist on RISC-V.
	NA Result = iota
	// Detected: the DIFT engine stopped the injected code.
	Detected
	// Missed: the attack ran to completion without a violation (never
	// expected; it would falsify Table I).
	Missed
)

// String renders the outcome in Table I terms.
func (r Result) String() string {
	switch r {
	case NA:
		return "N/A"
	case Detected:
		return "Detected"
	default:
		return "MISSED"
	}
}

// Attack is one row of Table I.
type Attack struct {
	Num       int
	Location  string // "Stack" or "Heap/BSS/Data"
	Target    string
	Technique string // "Direct" or "Indirect"
	NAReason  string // non-empty for non-applicable forms

	body    string
	payload func(img *asm.Image) []byte
}

// Applicable reports whether the attack exists on RISC-V.
func (a *Attack) Applicable() bool { return a.NAReason == "" }

// Build assembles the attack's victim program.
func (a *Attack) Build() (*asm.Image, error) {
	if !a.Applicable() {
		return nil, fmt.Errorf("wk: attack %d is not applicable: %s", a.Num, a.NAReason)
	}
	return guest.Program(a.body)
}

// Payload produces the attacker input for the assembled image.
func (a *Attack) Payload(img *asm.Image) []byte { return a.payload(img) }

// le32 encodes a little-endian address.
func le32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// fill returns n filler bytes.
func fill(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = 0x41
	}
	return out
}

// copyUART emits code copying n attacker bytes from the UART into the
// buffer whose address is already in t2. Clobbers t0..t4.
func copyUART(n int) string {
	return fmt.Sprintf(`
	li t3, %d
	li t0, UART_BASE
1:	lw t1, UART_RX(t0)
	srli t4, t1, UART_RX_EMPTY_BIT
	bnez t4, 1b
	sb t1, 0(t2)
	addi t2, t2, 1
	addi t3, t3, -1
	bnez t3, 1b
`, n)
}

// payloadFn is the "malicious code" all attacks try to execute. Outside the
// DIFT engine it runs and exits with the marker code 99 (proving the
// overflow works); under the policy its first fetch violates HI clearance.
const payloadFn = `
	.text
	.align 4
attack_code:
	li a0, 99
	j exit
attack_code_end:
`

// mainCallsVictim is the common driver: run the victim; if it returns
// normally the attack failed.
const mainCallsVictim = `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	call victim
	li a0, 1              # attack did not redirect control flow
	lw ra, 12(sp)
	addi sp, sp, 16
	ret
`

// ExitAttackSucceeded is the guest exit code of a successful (undetected)
// code injection.
const ExitAttackSucceeded = 99

// stackTop looks up the runtime stack top; victim frame layouts below are
// deterministic, so payload builders can compute exact slot addresses.
func stackTop(img *asm.Image) uint32 { return img.MustSymbol("__stack_top") }

// Suite returns all 18 Table I attacks in order.
func Suite() []Attack {
	return []Attack{
		{
			Num: 1, Location: "Stack", Target: "Function Pointer (param)", Technique: "Direct",
			NAReason: "parameters are passed in registers on RISC-V; there is no stack-resident parameter to overflow directly",
		},
		{
			Num: 2, Location: "Stack", Target: "Longjmp Buffer (param)", Technique: "Direct",
			NAReason: "jmp_buf parameters are passed by register-held reference; no adjacent stack copy exists",
		},
		attack3(),
		{
			Num: 4, Location: "Stack", Target: "Base Pointer", Technique: "Direct",
			NAReason: "the RISC-V calling convention has no saved base/frame pointer to corrupt",
		},
		attack5(),
		attack6(),
		attack7(),
		{
			Num: 8, Location: "Heap/BSS/Data", Target: "Longjmp Buffer", Technique: "Direct",
			NAReason: "the ported suite allocates no static jmp_buf adjacent to an overflowable static buffer",
		},
		attack9(),
		attack10(),
		attack11(),
		{
			Num: 12, Location: "Stack", Target: "Base Pointer", Technique: "Indirect",
			NAReason: "the RISC-V calling convention has no saved base/frame pointer to corrupt",
		},
		attack13(),
		attack14(),
		{
			Num: 15, Location: "Heap/BSS/Data", Target: "Return Address", Technique: "Indirect",
			NAReason: "return addresses never reside in static memory on RISC-V",
		},
		{
			Num: 16, Location: "Heap/BSS/Data", Target: "Base Pointer", Technique: "Indirect",
			NAReason: "the RISC-V calling convention has no saved base/frame pointer to corrupt",
		},
		attack17(),
		{
			Num: 18, Location: "Heap/BSS/Data", Target: "Longjmp Buffer", Technique: "Indirect",
			NAReason: "the ported suite allocates no static jmp_buf reachable from an overflowable static buffer",
		},
	}
}

// --- Direct attacks -------------------------------------------------------

// Attack 3: stack buffer overflows straight into the caller-saved return
// address.
func attack3() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -32
	sw ra, 28(sp)
	mv t2, sp             # 16-byte buffer at 0(sp); ra saved at 28(sp)
` + copyUART(32) + `
	lw ra, 28(sp)
	addi sp, sp, 32
	ret                   # returns into the injected payload
` + payloadFn
	return Attack{
		Num: 3, Location: "Stack", Target: "Return Address", Technique: "Direct",
		body: body,
		payload: func(img *asm.Image) []byte {
			return append(fill(28), le32(img.MustSymbol("attack_code"))...)
		},
	}
}

// Attack 5: stack buffer overflows an adjacent local function pointer.
func attack5() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -32
	sw ra, 28(sp)
	la t0, benign
	sw t0, 16(sp)         # local function pointer above the buffer
	mv t2, sp
` + copyUART(20) + `
	lw t0, 16(sp)
	jalr t0               # calls the overwritten pointer
	lw ra, 28(sp)
	addi sp, sp, 32
	ret
benign:
	ret
` + payloadFn
	return Attack{
		Num: 5, Location: "Stack", Target: "Function Pointer (local)", Technique: "Direct",
		body: body,
		payload: func(img *asm.Image) []byte {
			return append(fill(16), le32(img.MustSymbol("attack_code"))...)
		},
	}
}

// Attack 6: stack buffer overflows into a local jmp_buf's saved ra.
func attack6() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -96
	sw ra, 92(sp)
	addi a0, sp, 32       # jmp_buf at 32(sp); buffer at 0(sp)
	call setjmp
	bnez a0, 2f
	mv t2, sp
` + copyUART(36) + `
	addi a0, sp, 32
	li a1, 1
	call longjmp          # jumps through the corrupted buffer
2:	lw ra, 92(sp)
	addi sp, sp, 96
	ret
` + payloadFn
	return Attack{
		Num: 6, Location: "Stack", Target: "Longjmp Buffer", Technique: "Direct",
		body: body,
		payload: func(img *asm.Image) []byte {
			return append(fill(32), le32(img.MustSymbol("attack_code"))...)
		},
	}
}

// Attack 7: static buffer in .data overflows into an adjacent static
// function pointer.
func attack7() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -16
	sw ra, 12(sp)
	la t0, benign
	la t1, wk_fnptr
	sw t0, 0(t1)
	la t2, wk_buf
` + copyUART(20) + `
	la t1, wk_fnptr
	lw t0, 0(t1)
	jalr t0
	lw ra, 12(sp)
	addi sp, sp, 16
	ret
benign:
	ret
	.data
	.align 2
wk_buf:
	.space 16
wk_fnptr:
	.word 0
` + payloadFn
	return Attack{
		Num: 7, Location: "Heap/BSS/Data", Target: "Function Pointer", Technique: "Direct",
		body: body,
		payload: func(img *asm.Image) []byte {
			return append(fill(16), le32(img.MustSymbol("attack_code"))...)
		},
	}
}

// --- Indirect attacks -----------------------------------------------------
//
// The indirect form overflows a general pointer adjacent to the buffer and
// plants a value; the program later stores the attacker value through the
// pointer, corrupting a target the overflow itself cannot reach.

// indirectVictim is the shared victim: buffer at 0(sp), pointer at 16(sp),
// attacker value at 20(sp); the spilled function-pointer parameter lives at
// 40(sp); victim frame is 48 bytes under main's 16.
const indirectVictim = `
victim:
	addi sp, sp, -48
	sw ra, 44(sp)
	sw a0, 40(sp)         # spilled parameter
	la t0, wk_scratch
	sw t0, 16(sp)         # general pointer above the buffer
	mv t2, sp
` + // 24 attacker bytes: 16 filler + pointer + value
	""

// indirectFrame computes victim stack-slot addresses: main subtracts 16,
// victim subtracts 48.
func indirectFrame(img *asm.Image, off uint32) uint32 {
	return stackTop(img) - 16 - 48 + off
}

// Attack 9: indirect write into the spilled function-pointer parameter.
func attack9() Attack {
	body := `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	la a0, benign
	call victim
	li a0, 1
	lw ra, 12(sp)
	addi sp, sp, 16
	ret
` + indirectVictim + copyUART(24) + `
	lw t0, 16(sp)         # pointer (redirected to the spilled parameter)
	lw t1, 20(sp)         # attacker value
	sw t1, 0(t0)
	lw t0, 40(sp)         # call through the (corrupted) parameter
	jalr t0
	lw ra, 44(sp)
	addi sp, sp, 48
	ret
benign:
	ret
	.data
	.align 2
wk_scratch:
	.word 0
` + payloadFn
	return Attack{
		Num: 9, Location: "Stack", Target: "Function Pointer (param)", Technique: "Indirect",
		body: body,
		payload: func(img *asm.Image) []byte {
			p := fill(16)
			p = append(p, le32(indirectFrame(img, 40))...) // &spilled param
			p = append(p, le32(img.MustSymbol("attack_code"))...)
			return p
		},
	}
}

// Attack 10: indirect write into a caller jmp_buf passed as parameter.
func attack10() Attack {
	body := `
main:
	addi sp, sp, -96
	sw ra, 92(sp)
	addi a0, sp, 32       # jmp_buf in main's frame
	call setjmp
	bnez a0, 1f
	addi a0, sp, 32
	call victim           # victim longjmps through the corrupted buffer
1:	li a0, 1
	lw ra, 92(sp)
	addi sp, sp, 96
	ret
` + indirectVictim + copyUART(24) + `
	lw t0, 16(sp)
	lw t1, 20(sp)
	sw t1, 0(t0)          # corrupt jmp_buf saved ra
	lw a0, 40(sp)
	li a1, 1
	call longjmp
	.data
	.align 2
wk_scratch:
	.word 0
` + payloadFn
	return Attack{
		Num: 10, Location: "Stack", Target: "Longjump Buffer (param)", Technique: "Indirect",
		body: body,
		payload: func(img *asm.Image) []byte {
			// main: sp = top-96; jmp_buf at 32(sp) = top-64; victim frame
			// below: slots as in indirectFrame but with main's 96.
			jmpbuf := stackTop(img) - 96 + 32
			p := fill(16)
			p = append(p, le32(jmpbuf)...)
			p = append(p, le32(img.MustSymbol("attack_code"))...)
			return p
		},
	}
}

// Attack 11: indirect write into the victim's own saved return address.
func attack11() Attack {
	body := mainCallsVictim + indirectVictim + copyUART(24) + `
	lw t0, 16(sp)
	lw t1, 20(sp)
	sw t1, 0(t0)          # corrupt the saved ra at 44(sp)
	lw ra, 44(sp)
	addi sp, sp, 48
	ret
	.data
	.align 2
wk_scratch:
	.word 0
` + payloadFn
	return Attack{
		Num: 11, Location: "Stack", Target: "Return Address", Technique: "Indirect",
		body: body,
		payload: func(img *asm.Image) []byte {
			p := fill(16)
			p = append(p, le32(indirectFrame(img, 44))...) // &saved ra
			p = append(p, le32(img.MustSymbol("attack_code"))...)
			return p
		},
	}
}

// Attack 13: indirect write into a local function pointer.
func attack13() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -48
	sw ra, 44(sp)
	la t0, benign
	sw t0, 24(sp)         # local function pointer
	la t0, wk_scratch
	sw t0, 16(sp)
	mv t2, sp
` + copyUART(24) + `
	lw t0, 16(sp)
	lw t1, 20(sp)
	sw t1, 0(t0)          # corrupt the local pointer at 24(sp)
	lw t0, 24(sp)
	jalr t0
	lw ra, 44(sp)
	addi sp, sp, 48
	ret
benign:
	ret
	.data
	.align 2
wk_scratch:
	.word 0
` + payloadFn
	return Attack{
		Num: 13, Location: "Stack", Target: "Function Pointer (local)", Technique: "Indirect",
		body: body,
		payload: func(img *asm.Image) []byte {
			p := fill(16)
			p = append(p, le32(indirectFrame(img, 24))...)
			p = append(p, le32(img.MustSymbol("attack_code"))...)
			return p
		},
	}
}

// Attack 14: indirect write into a local jmp_buf.
func attack14() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -112
	sw ra, 108(sp)
	addi a0, sp, 48       # local jmp_buf
	call setjmp
	bnez a0, 2f
	la t0, wk_scratch
	sw t0, 16(sp)
	mv t2, sp
` + copyUART(24) + `
	lw t0, 16(sp)
	lw t1, 20(sp)
	sw t1, 0(t0)          # corrupt jmp_buf saved ra at 48(sp)
	addi a0, sp, 48
	li a1, 1
	call longjmp
2:	lw ra, 108(sp)
	addi sp, sp, 112
	ret
	.data
	.align 2
wk_scratch:
	.word 0
` + payloadFn
	return Attack{
		Num: 14, Location: "Stack", Target: "Longjmp Buffer", Technique: "Indirect",
		body: body,
		payload: func(img *asm.Image) []byte {
			// victim: sp = top-16-112; jmp_buf at 48(sp).
			jmpbuf := stackTop(img) - 16 - 112 + 48
			p := fill(16)
			p = append(p, le32(jmpbuf)...)
			p = append(p, le32(img.MustSymbol("attack_code"))...)
			return p
		},
	}
}

// Attack 17: indirect write through a static pointer into a static function
// pointer.
func attack17() Attack {
	body := mainCallsVictim + `
victim:
	addi sp, sp, -16
	sw ra, 12(sp)
	la t0, benign
	la t1, wk_fnptr
	sw t0, 0(t1)
	la t0, wk_scratch
	la t1, wk_ptr
	sw t0, 0(t1)
	la t2, wk_buf
` + copyUART(24) + `
	la t1, wk_ptr
	lw t0, 0(t1)          # pointer (redirected to wk_fnptr)
	la t1, wk_val
	lw t1, 0(t1)          # attacker value landed past the pointer
	sw t1, 0(t0)
	la t1, wk_fnptr
	lw t0, 0(t1)
	jalr t0
	lw ra, 12(sp)
	addi sp, sp, 16
	ret
benign:
	ret
	.data
	.align 2
wk_buf:
	.space 16
wk_ptr:
	.word 0
wk_val:
	.word 0
wk_fnptr:
	.word 0
wk_scratch:
	.word 0
` + payloadFn
	return Attack{
		Num: 17, Location: "Heap/BSS/Data", Target: "Function Pointer (local)", Technique: "Indirect",
		body: body,
		payload: func(img *asm.Image) []byte {
			p := fill(16)
			p = append(p, le32(img.MustSymbol("wk_fnptr"))...)
			p = append(p, le32(img.MustSymbol("attack_code"))...)
			return p
		},
	}
}

// Policy builds the Section VI-B code-injection policy for a victim image:
// IFP-2, program text HI, HI fetch clearance, everything external LI, and
// the payload function classified LI.
func Policy(img *asm.Image) *core.Policy {
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	return core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "payload", Start: img.MustSymbol("attack_code"), End: img.MustSymbol("attack_code_end"),
			Classify: true, Class: li,
		}).
		WithRegion(core.RegionRule{
			Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
			Classify: true, Class: hi,
		}).
		WithInput("uart0.rx", li)
}

// Note: the payload rule precedes the text rule because classification
// picks the first matching region and attack_code lies inside .text.

// Run executes one applicable attack. With dift enabled it returns the
// Table I outcome; with dift disabled it verifies the overflow actually
// hijacks control (exit code 99), returning Missed.
func Run(a *Attack, dift bool) (Result, error) {
	res, _, err := RunObserved(a, dift, nil)
	return res, err
}

// RunObserved is Run with an optional observer wired into the platform; the
// returned violation (nil unless Detected) then carries the provenance chain
// from the tainted input through the overflowed code pointer to the failed
// fetch-clearance check. The observer must be fresh — it binds to the
// attack's platform.
func RunObserved(a *Attack, dift bool, o *obs.Observer) (Result, *core.Violation, error) {
	return RunWithMode(a, dift, RunMode{Obs: o})
}

// RunMode configures how an attack's platform executes: an optional
// observer, whether the always-on flight recorder is disabled, and whether
// the coverage-observability layer is attached. Either way the verdict and
// violation must be identical — the recorder parity suite holds
// RunWithMode to that.
type RunMode struct {
	Obs       *obs.Observer
	FlightOff bool
	Cover     bool
}

// RunWithMode is RunObserved with the execution mode made explicit.
func RunWithMode(a *Attack, dift bool, mode RunMode) (Result, *core.Violation, error) {
	res, v, _, err := RunForensic(a, dift, mode)
	return res, v, err
}

// RunForensic is RunWithMode additionally returning the platform's forensic
// bundle — non-nil exactly when the run stopped on a violation or fault and
// the flight recorder was enabled.
func RunForensic(a *Attack, dift bool, mode RunMode) (Result, *core.Violation, *flight.Bundle, error) {
	res, v, bundle, _, err := runFull(a, dift, mode)
	return res, v, bundle, err
}

// RunCover runs one attack with the coverage layer attached and returns the
// run's serializable snapshot alongside the verdict. The snapshot's workload
// identity is "wk-<num>" and its policy "wk" (or "none" on the baseline VP),
// so snapshots from different attacks merge as disjoint runs.
func RunCover(a *Attack, dift bool, mode RunMode) (Result, *core.Violation, *cover.Snapshot, error) {
	mode.Cover = true
	res, v, _, snap, err := runFull(a, dift, mode)
	return res, v, snap, err
}

func runFull(a *Attack, dift bool, mode RunMode) (Result, *core.Violation, *flight.Bundle, *cover.Snapshot, error) {
	if !a.Applicable() {
		return NA, nil, nil, nil, nil
	}
	img, err := a.Build()
	if err != nil {
		return NA, nil, nil, nil, err
	}
	var pol *core.Policy
	if dift {
		pol = Policy(img)
	}
	cfg := soc.Config{Policy: pol, Obs: mode.Obs, FlightOff: mode.FlightOff}
	if mode.Cover {
		cfg.Cover = cover.New()
	}
	pl, err := soc.New(cfg)
	if err != nil {
		return NA, nil, nil, nil, err
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		return NA, nil, nil, nil, err
	}
	pl.UART.Inject(a.Payload(img))
	runErr := pl.Run(kernel.S)
	bundle := pl.LastForensics()
	var snap *cover.Snapshot
	if mode.Cover {
		polName := "none"
		if dift {
			polName = "wk"
		}
		snap = pl.CoverSnapshot(fmt.Sprintf("wk-%d", a.Num), polName)
	}

	var v *core.Violation
	if errors.As(runErr, &v) {
		if v.Kind != core.KindFetchClearance {
			return Detected, v, bundle, snap, fmt.Errorf("wk: attack %d raised %v, expected fetch clearance", a.Num, v)
		}
		if v.PC != img.MustSymbol("attack_code") {
			return Detected, v, bundle, snap, fmt.Errorf("wk: attack %d violated at pc=0x%x, expected payload entry", a.Num, v.PC)
		}
		return Detected, v, bundle, snap, nil
	}
	if runErr != nil {
		return Missed, nil, bundle, snap, runErr
	}
	exited, code := pl.Exited()
	if !exited {
		return Missed, nil, nil, snap, fmt.Errorf("wk: attack %d did not terminate", a.Num)
	}
	if code == ExitAttackSucceeded {
		return Missed, nil, nil, snap, nil
	}
	return Missed, nil, nil, snap, fmt.Errorf("wk: attack %d exited with %d; the overflow did not hijack control", a.Num, code)
}

// Table runs the whole suite under the policy and renders Table I.
func Table() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-14s %-26s %-10s %s\n", "Atk #", "Location", "Target", "Technique", "Result")
	suite := Suite()
	for i := range suite {
		a := &suite[i]
		res := NA
		if a.Applicable() {
			var err error
			res, err = Run(a, true)
			if err != nil {
				return "", err
			}
		}
		fmt.Fprintf(&b, "%-5d %-14s %-26s %-10s %s\n", a.Num, a.Location, a.Target, a.Technique, res)
	}
	return b.String(), nil
}
