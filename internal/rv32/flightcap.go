package rv32

import "vpdift/internal/flight"

// Flight-recorder capture for both cores. The capture site is the end of
// the retire path in each interpreter loop, after the switch and every
// clearance check, so a record exists exactly when the instruction retired
// — violating or faulting instructions never reach it and are appended as
// terminal marks by the platform instead, which is what lets the bundle's
// trace window end at the violating instruction.

// flightFlags gives each opcode its static flight-record flag bits; the
// dynamic bits (FlagTaken, FlagTaintRd) are added at capture time.
var flightFlags = func() [numOps]uint8 {
	var t [numOps]uint8
	for _, op := range []Op{OpJAL, OpJALR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpMRET} {
		t[op] = flight.FlagBranch
	}
	for _, op := range []Op{OpLB, OpLH, OpLW, OpLBU, OpLHU} {
		t[op] = flight.FlagLoad
	}
	for _, op := range []Op{OpSB, OpSH, OpSW} {
		t[op] = flight.FlagStore
	}
	return t
}()

// The capture itself is hand-inlined near the end of each interpreter
// loop — Core.Run and TaintCore.Run — behind a `c.FR != nil` guard: it
// must cost a handful of instructions per retire, not a function call, and
// as a helper it exceeds the compiler's inlining budget. Both copies
// follow the same shape —
//
//	fl := flightFlags[i.Op]
//	if next != pc+4 { fl |= flight.FlagTaken }
//	(VP+ only) if i.Rd != 0 && c.Regs[i.Rd].T != c.def { fl |= flight.FlagTaintRd }
//	fill c.FR.Slot() with {instret, pc, w, faddr, 0, KindRetire, fl}
//
// where faddr is the per-iteration local the load/store cases set to the
// effective address and every other instruction leaves 0 (recomputing the
// address after the switch would be wrong when rd aliases rs1), and
// instret is the loop's local instruction count, the value Instret has
// while the instruction executes.

// RegName returns the ABI name of architectural register r (0..31).
func RegName(r int) string {
	if r < 0 || r >= len(abiNames) {
		return "?"
	}
	return abiNames[r]
}
