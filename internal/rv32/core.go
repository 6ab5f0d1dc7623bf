package rv32

import (
	"encoding/binary"
	"math"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/obs"
	"vpdift/internal/tlm"
)

// DecodeCacheFills reports how many predecoded-cache slots have been filled
// (i.e. slow-path decodes); the metrics exporter pairs it with Instret to
// derive the hit rate.
func (c *Core) DecodeCacheFills() uint64 { return c.ic.fills }

// DecodeCacheStats reports the decode-cache miss breakdown: fills (slow
// decodes that populated a slot) and uncached fetches (misaligned PC or the
// cache disabled — decoded without filling a slot). Hits are derived as
// Instret minus both.
func (c *Core) DecodeCacheStats() (fills, uncached uint64) { return c.ic.fills, c.uncachedFetch }

// Core is the plain (baseline, "VP") RV32IM instruction-set simulator.
// Accesses inside the RAM window use the direct memory slice (the DMI-like
// fast path); everything else is routed over the TLM bus.
type Core struct {
	Regs    [32]uint32
	PC      uint32
	Instret uint64

	// Halted is set by the platform (SysCtrl write) to stop execution.
	Halted bool

	// Tracer, when non-nil, is invoked before each instruction executes.
	Tracer func(pc, insn uint32)

	// Obs, when non-nil, receives instruction-boundary events (EvExec). The
	// baseline core carries no tags, so the platform wires this only when
	// the observer requests per-retire tracing (Options.TraceExec) — the
	// plain fetch loop is tight enough that even a guarded call per
	// instruction is measurable, and without TraceExec the events would be
	// dropped anyway. Taint provenance is the VP+ core's job.
	Obs *obs.Observer

	ram     []byte
	ramBase uint32
	ramSize uint32
	bus     *tlm.Bus

	// ic is the predecoded-instruction cache (see icache.go). The baseline
	// core carries it too, deliberately: accelerating only the VP+ would
	// flatter the Table II overhead ratio with a slow baseline.
	ic icache

	// irqPoll gates the per-instruction interrupt check: it is raised by
	// every event that could make an interrupt takeable (a device line
	// rising, writes to mstatus/mie, mret restoring MIE) and cleared when a
	// poll finds nothing pending, so the hot loop replaces a takeIRQ call
	// per instruction with one predictable branch.
	irqPoll bool

	mstatus  uint32
	mie      uint32
	mip      uint32
	mtvec    uint32
	mepc     uint32
	mcause   uint32
	mtval    uint32
	mscratch uint32

	// mmioBuf and mmioTxn are the one MMIO transaction loadBus/storeBus
	// reuse: the bus and its trace hooks copy what they need and keep no
	// pointer, so a per-access payload would only be a heap allocation (the
	// pointer escapes through the Target interface).
	mmioBuf [4]core.TByte
	mmioTxn tlm.Payload

	// Retire, when non-nil, is invoked once per executed instruction with
	// its pc and raw word — the guest profiler's hook (internal/trace).
	// Separate from Tracer so profiling composes with disassembly tracing;
	// like every hook it costs one predictable branch when nil. New fields
	// live at the end of the struct: inserting them higher up shifts the
	// hot fields (Regs, ram, ic) across cache lines, which costs the tight
	// interpreter loop measurably.
	Retire func(pc, insn uint32)

	// uncachedFetch counts fetches that bypassed the decode cache (misaligned
	// PC or cache disabled) — the non-fill half of the miss count.
	uncachedFetch uint64

	// Cov, when non-nil, receives post-retire coverage events
	// (internal/cover). Only the guest view applies on the baseline core —
	// there are no tags to heatmap and no policy to audit.
	Cov *cover.Cover

	// FR, when non-nil, is the always-on flight recorder: one compressed
	// record per retire, captured post-switch (see flightcap.go).
	FR *flight.Recorder
}

// NewCore builds a baseline core over plain RAM and a bus for MMIO. The
// core registers a write hook on the RAM so that bus-initiated writes (DMA,
// TLM transactions) invalidate its predecoded-instruction cache.
func NewCore(ram *mem.PlainMemory, ramBase uint32, bus *tlm.Bus) *Core {
	c := &Core{
		ram:     ram.Data(),
		ramBase: ramBase,
		ramSize: ram.Size(),
		bus:     bus,
		ic:      newICache(ram.Size()),
		irqPoll: true,
	}
	ram.AddWriteHook(c.InvalidateDecodeCache)
	return c
}

// DisableDecodeCache turns the predecoded-instruction cache off: every
// fetch decodes from RAM bytes again. For ablation benchmarks.
func (c *Core) DisableDecodeCache() { c.ic = icache{} }

// InvalidateDecodeCache drops predecoded entries covering RAM byte offsets
// [start, end). It is registered as the RAM write hook and may be called by
// platform code that mutates RAM behind the core's back.
func (c *Core) InvalidateDecodeCache(start, end uint32) { c.ic.invalidate(start, end) }

// SetIRQ drives the machine interrupt-pending lines (mask of IntMTI /
// IntMEI / IntMSI).
func (c *Core) SetIRQ(line uint32, level bool) {
	if level {
		c.mip |= line
		c.irqPoll = true
	} else {
		c.mip &^= line
	}
}

// PendingIRQ reports whether any enabled interrupt is pending (regardless of
// the global MIE bit) — the WFI wake-up condition.
func (c *Core) PendingIRQ() bool { return c.mie&c.mip != 0 }

// takeIRQ enters the highest-priority pending enabled interrupt, if the
// global enable allows. Finding nothing takeable clears irqPoll; the events
// that can change that verdict re-raise it.
func (c *Core) takeIRQ() (bool, error) {
	if c.mstatus&MstatusMIE == 0 {
		c.irqPoll = false
		return false, nil
	}
	pending := c.mie & c.mip
	if pending == 0 {
		c.irqPoll = false
		return false, nil
	}
	var cause uint32
	switch {
	case pending&IntMEI != 0:
		cause = CauseMExtInt
	case pending&IntMSI != 0:
		cause = causeInterruptBit | 3
	default:
		cause = CauseMTimerInt
	}
	return true, c.trap(cause, 0, c.PC)
}

// trap enters the machine trap handler.
func (c *Core) trap(cause, tval, epc uint32) error {
	if c.mtvec == 0 {
		return &TrapError{Cause: cause, Tval: tval, PC: epc}
	}
	if c.FR != nil {
		c.FR.MarkTrap(c.Instret, epc, tval, cause)
	}
	c.mepc = epc
	c.mcause = cause
	c.mtval = tval
	// MPIE <- MIE; MIE <- 0; MPP <- M.
	if c.mstatus&MstatusMIE != 0 {
		c.mstatus |= MstatusMPIE
	} else {
		c.mstatus &^= MstatusMPIE
	}
	c.mstatus &^= MstatusMIE
	c.mstatus |= MstatusMPP
	c.PC = c.mtvec &^ 3
	return nil
}

// trapCause gives the trap arguments (cause, tval, epc) for the synchronous
// trap raised by executing op at pc: ECALL, EBREAK, or the undecodable word
// w.
func trapCause(op Op, w, pc uint32) (cause, tval, epc uint32) {
	switch op {
	case OpECALL:
		return CauseECallM, 0, pc
	case OpEBREAK:
		return CauseBreakpoint, 0, pc
	}
	return CauseIllegalInstr, w, pc
}

// fetchWord assembles the little-endian instruction word at RAM offset off;
// the caller guarantees off+4 <= ramSize.
func (c *Core) fetchWord(off uint32) uint32 {
	return uint32(c.ram[off]) | uint32(c.ram[off+1])<<8 | uint32(c.ram[off+2])<<16 | uint32(c.ram[off+3])<<24
}

// fill decodes the word at RAM offset off into e: the slow half of the
// fetch, taken on a decode-cache miss (and on every fetch when the cache is
// off or the PC is misaligned).
func (c *Core) fill(e *icEntry, off uint32) {
	w := c.fetchWord(off)
	e.inst, e.word, e.state = Decode(w), w, icValid
}

// fillMiss decodes the word at RAM offset off (inside RAM) when the
// decode-cache hit test failed. An aligned word past the grown cache grows
// it and fills its entry; a misaligned PC, or any fetch with the cache off,
// decodes into scratch as an uncached fetch. It returns the filled entry.
// It must stay a call, not code in the loops: inlined, the growth's
// allocation would keep off live across a call and add a stack spill to
// every fetch, hits included. go:noinline holds that under any inlining
// budget or profile-guided build.
//
//go:noinline
func (c *Core) fillMiss(off uint32, scratch *icEntry) *icEntry {
	if off&3 == 0 && c.ic.grow(off>>2) {
		e := &c.ic.ents[off>>2]
		c.fill(e, off)
		c.ic.noteFill(off)
		return e
	}
	c.uncachedFetch++
	c.fill(scratch, off)
	return scratch
}

// memSize gives each load/store opcode its access width in bytes.
var memSize = [numOps]uint8{
	OpLB: 1, OpLBU: 1, OpSB: 1,
	OpLH: 2, OpLHU: 2, OpSH: 2,
	OpLW: 4, OpSW: 4,
}

// Run executes up to max instructions. It returns early on WFI with no
// pending interrupt, on halt, or on an error (bus error, unhandled trap).
// Timing annotations of MMIO transactions accumulate into delay.
//
// Run is the core's whole retire path in one loop: halt and interrupt
// checks, fetch through the decode cache, execute, and retire. pc and
// instret live in locals. Every outlined call in the loop — takeIRQ, the
// decode-cache fill, the hooks, the MMIO path (whose bus trace hook stamps
// records with Instret), csrOp, trap — is bracketed the same way: write pc
// and instret back to c.PC/c.Instret before it, reload them after it. The
// callee sees exact state (and may redirect c.PC), and neither local is
// live across a call: Go's calling convention preserves no registers, so a
// loop value live across any call would be spilled at the loop head on
// every iteration. Every fetch re-reads its decode-cache entry, so a store
// that invalidates the next instruction's entry is seen at once.
func (c *Core) Run(max uint64, delay *kernel.Time) (n uint64, st RunStatus, err error) {
	// One flag gates every per-retire hook; the flight recorder, always on
	// in production, keeps its own guard.
	hooked := c.Tracer != nil || c.Retire != nil || c.Obs != nil || c.Cov != nil
	start := c.Instret
	end := start + max
	if end < start {
		end = math.MaxUint64
	}
	pc, instret := c.PC, start
	var scratch icEntry // decode target for fetches the cache cannot hold
	for ; instret < end; instret++ {
		if c.Halted {
			return c.exit(pc, instret, start, RunHalt, nil)
		}
		if c.irqPoll {
			c.PC, c.Instret = pc, instret
			taken, err := c.takeIRQ()
			pc, instret = c.PC, c.Instret
			if err != nil {
				return c.exit(pc, instret, start, RunOK, err)
			}
			if taken {
				// Interrupt entry retires as one instruction: it counts
				// once in n (so once in InstrTime) and once in Instret,
				// with no retire record or coverage event. Instret figures,
				// the decode-cache hit count derived from them and the
				// goldens all depend on this accounting.
				continue
			}
		}

		off := pc - c.ramBase
		e := &scratch
		if idx := int(off >> 2); off&3 == 0 && idx < len(c.ic.ents) {
			e = &c.ic.ents[idx]
			if e.state == 0 {
				c.PC, c.Instret = pc, instret
				c.fill(e, off)
				c.ic.noteFill(off)
				pc, instret = c.PC, c.Instret
			}
		} else {
			// A word past the grown decode cache, misaligned PC, fetch outside
			// RAM, or the decode cache is off.
			if off >= c.ramSize || off+4 > c.ramSize {
				err := &BusError{What: "instruction fetch outside RAM", Addr: pc, PC: pc}
				return c.exit(pc, instret, start, RunOK, err)
			}
			c.PC, c.Instret = pc, instret
			e = c.fillMiss(off, e)
			pc, instret = c.PC, c.Instret
		}
		i, w := e.inst, e.word
		if hooked {
			c.PC, c.Instret = pc, instret
			c.fetchHooks(pc, w)
			pc, instret = c.PC, c.Instret
		}

		var faddr uint32 // load/store effective address for the flight record, else 0
		next := pc + 4
		switch i.Op {
		case OpLUI:
			c.set(i.Rd, uint32(i.Imm))
		case OpAUIPC:
			c.set(i.Rd, pc+uint32(i.Imm))
		case OpJAL:
			c.set(i.Rd, next)
			next = pc + uint32(i.Imm)
		case OpJALR:
			t := (c.Regs[i.Rs1] + uint32(i.Imm)) &^ 1
			c.set(i.Rd, next)
			next = t
		case OpBEQ:
			if c.Regs[i.Rs1] == c.Regs[i.Rs2] {
				next = pc + uint32(i.Imm)
			}
		case OpBNE:
			if c.Regs[i.Rs1] != c.Regs[i.Rs2] {
				next = pc + uint32(i.Imm)
			}
		case OpBLT:
			if int32(c.Regs[i.Rs1]) < int32(c.Regs[i.Rs2]) {
				next = pc + uint32(i.Imm)
			}
		case OpBGE:
			if int32(c.Regs[i.Rs1]) >= int32(c.Regs[i.Rs2]) {
				next = pc + uint32(i.Imm)
			}
		case OpBLTU:
			if c.Regs[i.Rs1] < c.Regs[i.Rs2] {
				next = pc + uint32(i.Imm)
			}
		case OpBGEU:
			if c.Regs[i.Rs1] >= c.Regs[i.Rs2] {
				next = pc + uint32(i.Imm)
			}
		case OpLB, OpLH, OpLW, OpLBU, OpLHU:
			addr := c.Regs[i.Rs1] + uint32(i.Imm)
			faddr = addr
			size := uint32(memSize[i.Op])
			var v uint32
			if a := addr - c.ramBase; a < c.ramSize && a+size <= c.ramSize {
				switch size {
				case 1:
					v = uint32(c.ram[a])
				case 2:
					v = uint32(binary.LittleEndian.Uint16(c.ram[a:]))
				default:
					v = binary.LittleEndian.Uint32(c.ram[a:])
				}
			} else {
				c.PC, c.Instret = pc, instret
				var err error
				v, err = c.loadBus(addr, size, delay, pc)
				pc, instret = c.PC, c.Instret
				if err != nil {
					return c.exit(pc, instret, start, RunOK, err)
				}
			}
			switch i.Op {
			case OpLB:
				v = uint32(int32(v<<24) >> 24)
			case OpLH:
				v = uint32(int32(v<<16) >> 16)
			}
			c.set(i.Rd, v)
		case OpSB, OpSH, OpSW:
			addr := c.Regs[i.Rs1] + uint32(i.Imm)
			faddr = addr
			size := uint32(memSize[i.Op])
			v := c.Regs[i.Rs2]
			if a := addr - c.ramBase; a < c.ramSize && a+size <= c.ramSize {
				switch size {
				case 1:
					c.ram[a] = byte(v)
				case 2:
					binary.LittleEndian.PutUint16(c.ram[a:], uint16(v))
				default:
					binary.LittleEndian.PutUint32(c.ram[a:], v)
				}
				// Keep the decode cache coherent with self-modifying code.
				// The watermark guard keeps the common data store at two
				// compares.
				if c.ic.overlaps(a, a+size) {
					c.ic.invalidate(a, a+size)
				}
			} else {
				c.PC, c.Instret = pc, instret
				err := c.storeBus(addr, v, size, delay, pc)
				pc, instret = c.PC, c.Instret
				if err != nil {
					return c.exit(pc, instret, start, RunOK, err)
				}
			}
		case OpADDI:
			c.set(i.Rd, c.Regs[i.Rs1]+uint32(i.Imm))
		case OpSLTI:
			c.set(i.Rd, b2u(int32(c.Regs[i.Rs1]) < i.Imm))
		case OpSLTIU:
			c.set(i.Rd, b2u(c.Regs[i.Rs1] < uint32(i.Imm)))
		case OpXORI:
			c.set(i.Rd, c.Regs[i.Rs1]^uint32(i.Imm))
		case OpORI:
			c.set(i.Rd, c.Regs[i.Rs1]|uint32(i.Imm))
		case OpANDI:
			c.set(i.Rd, c.Regs[i.Rs1]&uint32(i.Imm))
		case OpSLLI:
			c.set(i.Rd, c.Regs[i.Rs1]<<uint(i.Imm))
		case OpSRLI:
			c.set(i.Rd, c.Regs[i.Rs1]>>uint(i.Imm))
		case OpSRAI:
			c.set(i.Rd, uint32(int32(c.Regs[i.Rs1])>>uint(i.Imm)))
		case OpADD:
			c.set(i.Rd, c.Regs[i.Rs1]+c.Regs[i.Rs2])
		case OpSUB:
			c.set(i.Rd, c.Regs[i.Rs1]-c.Regs[i.Rs2])
		case OpSLL:
			c.set(i.Rd, c.Regs[i.Rs1]<<(c.Regs[i.Rs2]&31))
		case OpSLT:
			c.set(i.Rd, b2u(int32(c.Regs[i.Rs1]) < int32(c.Regs[i.Rs2])))
		case OpSLTU:
			c.set(i.Rd, b2u(c.Regs[i.Rs1] < c.Regs[i.Rs2]))
		case OpXOR:
			c.set(i.Rd, c.Regs[i.Rs1]^c.Regs[i.Rs2])
		case OpSRL:
			c.set(i.Rd, c.Regs[i.Rs1]>>(c.Regs[i.Rs2]&31))
		case OpSRA:
			c.set(i.Rd, uint32(int32(c.Regs[i.Rs1])>>(c.Regs[i.Rs2]&31)))
		case OpOR:
			c.set(i.Rd, c.Regs[i.Rs1]|c.Regs[i.Rs2])
		case OpAND:
			c.set(i.Rd, c.Regs[i.Rs1]&c.Regs[i.Rs2])
		case OpMUL:
			c.set(i.Rd, c.Regs[i.Rs1]*c.Regs[i.Rs2])
		case OpMULH:
			c.set(i.Rd, uint32(uint64(int64(int32(c.Regs[i.Rs1]))*int64(int32(c.Regs[i.Rs2])))>>32))
		case OpMULHSU:
			c.set(i.Rd, uint32(uint64(int64(int32(c.Regs[i.Rs1]))*int64(c.Regs[i.Rs2]))>>32))
		case OpMULHU:
			c.set(i.Rd, uint32(uint64(c.Regs[i.Rs1])*uint64(c.Regs[i.Rs2])>>32))
		case OpDIV:
			c.set(i.Rd, divS(c.Regs[i.Rs1], c.Regs[i.Rs2]))
		case OpDIVU:
			c.set(i.Rd, divU(c.Regs[i.Rs1], c.Regs[i.Rs2]))
		case OpREM:
			c.set(i.Rd, remS(c.Regs[i.Rs1], c.Regs[i.Rs2]))
		case OpREMU:
			c.set(i.Rd, remU(c.Regs[i.Rs1], c.Regs[i.Rs2]))
		case OpFENCE:
			// No-op: the memory model is sequentially consistent.
		case OpFENCEI:
			// Explicit fetch/store synchronization point: drop every predecoded
			// entry. (Stores already invalidate eagerly; FENCE.I additionally
			// pins the architectural contract for self-modifying code.)
			c.ic.invalidateAll()
		case OpMRET:
			// MIE <- MPIE; MPIE <- 1.
			if c.mstatus&MstatusMPIE != 0 {
				c.mstatus |= MstatusMIE
			} else {
				c.mstatus &^= MstatusMIE
			}
			c.mstatus |= MstatusMPIE
			c.irqPoll = true
			next = c.mepc
		case OpWFI:
			if !c.PendingIRQ() {
				return c.exit(next, instret+1, start, RunWFI, nil)
			}
		case OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
			c.PC, c.Instret = pc, instret
			trapped, err := c.csrOp(i, pc)
			pc, instret = c.PC, c.Instret
			if err != nil {
				return c.exit(pc, instret, start, RunOK, err)
			}
			if trapped { // illegal CSR: the trap replaced pc
				continue
			}
		default:
			// ECALL, EBREAK and undecodable words trap. A synchronous trap
			// retires without a retire record or coverage event; the flight
			// recorder marks the trap itself.
			c.PC, c.Instret = pc, instret
			err := c.trap(trapCause(i.Op, w, pc))
			pc, instret = c.PC, c.Instret
			if err != nil {
				return c.exit(pc, instret, start, RunOK, err)
			}
			continue
		}
		if c.FR != nil {
			// Flight capture, hand-inlined (see flightcap.go).
			fl := flightFlags[i.Op]
			if next != pc+4 {
				fl |= flight.FlagTaken
			}
			rec := c.FR.Slot()
			rec.Time = instret
			rec.PC = pc
			rec.Insn = w
			rec.Addr = faddr // zero unless a load or store set it
			rec.Aux = 0
			rec.Kind = flight.KindRetire
			rec.Flags = fl
		}
		if hooked && c.Cov != nil {
			c.PC, c.Instret = pc, instret
			c.coverStep(pc, w, next)
			pc, instret = c.PC, c.Instret
		}
		pc = next
	}
	return c.exit(pc, instret, start, RunOK, nil)
}

// exit writes the loop's pc and instret back and forms Run's results.
func (c *Core) exit(pc uint32, instret, start uint64, st RunStatus, err error) (uint64, RunStatus, error) {
	c.PC, c.Instret = pc, instret
	return instret - start, st, err
}

// fetchHooks runs the per-fetch hooks (tracer, profiler, observer) before
// the instruction at pc with word w executes.
func (c *Core) fetchHooks(pc, w uint32) {
	if c.Tracer != nil {
		c.Tracer(pc, w)
	}
	if c.Retire != nil {
		c.Retire(pc, w)
	}
	if c.Obs != nil {
		c.Obs.BeginInsn(pc, w)
	}
}

// coverStep feeds the coverage views for one retired instruction, whose
// executed word is w — not the RAM word at pc, which a store may have just
// rewritten. Called from Run behind the hook flag; violating or trapping
// instructions leave the loop before it and are not counted — the platform
// attributes terminal violations through the policy audit instead.
func (c *Core) coverStep(pc, w, next uint32) {
	if g := c.Cov.Guest; g != nil {
		g.OnRetire(pc, w, next)
	}
}

// set writes a destination register, keeping x0 hardwired to zero.
func (c *Core) set(rd uint8, v uint32) {
	if rd != 0 {
		c.Regs[rd] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b uint32) uint32 {
	switch {
	case b == 0:
		return 0xffffffff
	case a == 0x80000000 && b == 0xffffffff:
		return 0x80000000
	default:
		return uint32(int32(a) / int32(b))
	}
}

func divU(a, b uint32) uint32 {
	if b == 0 {
		return 0xffffffff
	}
	return a / b
}

func remS(a, b uint32) uint32 {
	switch {
	case b == 0:
		return a
	case a == 0x80000000 && b == 0xffffffff:
		return 0
	default:
		return uint32(int32(a) % int32(b))
	}
}

func remU(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}

// loadBus performs a load outside the RAM window as a TLM read of size
// bytes (1, 2 or 4), little-endian, zero-extended.
func (c *Core) loadBus(addr, size uint32, delay *kernel.Time, pc uint32) (uint32, error) {
	p := &c.mmioTxn
	*p = tlm.Payload{Cmd: tlm.Read, Addr: addr, Data: c.mmioBuf[:size], From: "cpu"}
	c.bus.Transport(p, delay)
	if p.Resp != tlm.OK {
		return 0, &BusError{What: "load " + p.Resp.String(), Addr: addr, PC: pc}
	}
	var v uint32
	for j := uint32(0); j < size; j++ {
		v |= uint32(c.mmioBuf[j].V) << (8 * j)
	}
	return v, nil
}

// storeBus performs a store outside the RAM window as a TLM write of size
// bytes (1, 2 or 4), little-endian.
func (c *Core) storeBus(addr, val, size uint32, delay *kernel.Time, pc uint32) error {
	for j := uint32(0); j < size; j++ {
		c.mmioBuf[j] = core.TByte{V: byte(val >> (8 * j))}
	}
	p := &c.mmioTxn
	*p = tlm.Payload{Cmd: tlm.Write, Addr: addr, Data: c.mmioBuf[:size], From: "cpu"}
	c.bus.Transport(p, delay)
	if p.Resp != tlm.OK {
		return &BusError{What: "store " + p.Resp.String(), Addr: addr, PC: pc}
	}
	return nil
}

// csrOp executes the Zicsr instructions. trapped reports an illegal CSR
// access, which entered the trap handler instead.
func (c *Core) csrOp(i Inst, pc uint32) (trapped bool, err error) {
	csr := uint32(i.Imm)
	old, ok := c.csrRead(csr)
	if !ok {
		return true, c.trap(CauseIllegalInstr, 0, pc)
	}
	var operand uint32
	imm := i.Op == OpCSRRWI || i.Op == OpCSRRSI || i.Op == OpCSRRCI
	if imm {
		operand = uint32(i.Rs1)
	} else {
		operand = c.Regs[i.Rs1]
	}
	var newVal uint32
	write := true
	switch i.Op {
	case OpCSRRW, OpCSRRWI:
		newVal = operand
	case OpCSRRS, OpCSRRSI:
		newVal = old | operand
		write = i.Rs1 != 0
	default: // CSRRC, CSRRCI
		newVal = old &^ operand
		write = i.Rs1 != 0
	}
	if write {
		if !c.csrWrite(csr, newVal) {
			return true, c.trap(CauseIllegalInstr, 0, pc)
		}
	}
	c.set(i.Rd, old)
	return false, nil
}

func (c *Core) csrRead(csr uint32) (uint32, bool) {
	switch csr {
	case CSRMstatus:
		return c.mstatus | MstatusMPP, true
	case CSRMisa:
		return misaRV32IM, true
	case CSRMie:
		return c.mie, true
	case CSRMip:
		return c.mip, true
	case CSRMtvec:
		return c.mtvec, true
	case CSRMepc:
		return c.mepc, true
	case CSRMcause:
		return c.mcause, true
	case CSRMtval:
		return c.mtval, true
	case CSRMscratch:
		return c.mscratch, true
	case CSRMvendorid, CSRMarchid, CSRMimpid, CSRMhartid:
		return 0, true
	case CSRMcycle, CSRCycle, CSRMinstret, CSRInstret, CSRTime:
		return uint32(c.Instret), true
	case CSRMcycleh, CSRCycleh, CSRMinstreth, CSRInstreth, CSRTimeh:
		return uint32(c.Instret >> 32), true
	default:
		return 0, false
	}
}

func (c *Core) csrWrite(csr, v uint32) bool {
	switch csr {
	case CSRMstatus:
		c.mstatus = v & (MstatusMIE | MstatusMPIE)
		c.irqPoll = true
	case CSRMie:
		c.mie = v & (IntMSI | IntMTI | IntMEI)
		c.irqPoll = true
	case CSRMip:
		// Interrupt-pending lines are wired from devices; software writes
		// are ignored (hardwired bits per the privileged spec).
	case CSRMtvec:
		c.mtvec = v &^ 3
	case CSRMepc:
		c.mepc = v &^ 1
	case CSRMcause:
		c.mcause = v
	case CSRMtval:
		c.mtval = v
	case CSRMscratch:
		c.mscratch = v
	case CSRMisa, CSRMvendorid, CSRMarchid, CSRMimpid, CSRMhartid:
		// Read-only: writes ignored.
	case CSRMcycle, CSRMcycleh, CSRMinstret, CSRMinstreth:
		// Counters are maintained by the simulator; writes ignored.
	case CSRCycle, CSRCycleh, CSRInstret, CSRInstreth, CSRTime, CSRTimeh:
		return false // user-mode counter aliases are read-only
	default:
		return false
	}
	return true
}
