package soc

import (
	"encoding/binary"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
)

// The CPU loop takes interrupts and halts only at instruction boundaries.
// An MMIO store that raises an interrupt line or halts the platform must
// take effect right after that store retires, on every flavour. These tests
// pin that per-boundary behaviour.

// runLoopFlavours gives the two platform flavours under a no-check
// policy; only the control flow matters here, not the tags.
func runLoopFlavours() []struct {
	name string
	cfg  Config
} {
	l := core.IFP2()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLI))
	return []struct {
		name string
		cfg  Config
	}{
		{"vp", Config{}},
		{"vpplus", Config{Policy: pol}},
	}
}

func TestMSIPStoreTrapsAtNextInstruction(t *testing.T) {
	// Raising msip with MIE and MSIE set: the interrupt is taken at the
	// boundary after the store, so mepc is the next instruction's pc. The
	// handler exits with 0 only if mepc and mcause are as expected.
	img := guest.MustProgram(`
main:
	la t0, handler
	csrw mtvec, t0
	li t0, 0x8            # MSIE
	csrw mie, t0
	csrsi mstatus, 8      # MIE
	li t0, CLINT_BASE + CLINT_MSIP
	li t1, 1
	sw t1, 0(t0)          # raise the software interrupt
after:
	li a0, 99             # reached only if the interrupt was missed
	j exit
handler:
	csrr t0, mepc
	la t1, after
	xor a0, t0, t1
	csrr t0, mcause
	li t1, 0x80000003     # machine software interrupt
	xor t0, t0, t1
	or a0, a0, t0
	j exit
`)
	for _, fl := range runLoopFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			pl := MustNew(fl.cfg)
			defer pl.Shutdown()
			if err := pl.Load(img); err != nil {
				t.Fatal(err)
			}
			if err := pl.Run(kernel.Forever); err != nil {
				t.Fatal(err)
			}
			if exited, code := pl.Exited(); !exited || code != 0 {
				t.Fatalf("exited=%v code=%#x, want 0 (mepc or mcause wrong)", exited, code)
			}
		})
	}
}

func TestSysCtrlStoreHaltsAtBoundary(t *testing.T) {
	// The exit store halts the core before the next instruction: the
	// instruction after it never retires, the PC rests on it, and Instret
	// is the same on every flavour.
	img := guest.MustProgram(`
main:
	li t0, SYSCTRL_BASE
	li a0, 0
	sw a0, 0(t0)          # exit(0)
halted:
	li t1, 1              # must never retire
	la t2, flag
	sw t1, 0(t2)
	j halted

	.data
	.align 2
flag:
	.word 0
`)
	var want uint64
	for _, fl := range runLoopFlavours() {
		t.Run(fl.name, func(t *testing.T) {
			pl := MustNew(fl.cfg)
			defer pl.Shutdown()
			if err := pl.Load(img); err != nil {
				t.Fatal(err)
			}
			if err := pl.Run(kernel.Forever); err != nil {
				t.Fatal(err)
			}
			if exited, code := pl.Exited(); !exited || code != 0 {
				t.Fatalf("exited=%v code=%d, want a clean exit 0", exited, code)
			}
			var pc uint32
			if pl.Core != nil {
				pc = pl.Core.PC
			} else {
				pc = pl.TaintCore.PC
			}
			if want := img.MustSymbol("halted"); pc != want {
				t.Errorf("pc = %#x, want %#x (the instruction after the exit store)", pc, want)
			}
			flag, err := pl.ReadRAM(img.MustSymbol("flag"), 4)
			if err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint32(flag) != 0 {
				t.Error("the instruction after the exit store retired")
			}
			got := pl.Instret()
			if want == 0 {
				want = got
			} else if got != want {
				t.Errorf("instret = %d, want %d as on the VP", got, want)
			}
		})
	}
}
