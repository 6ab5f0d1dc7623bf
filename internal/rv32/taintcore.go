package rv32

import (
	"math"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/obs"
	"vpdift/internal/tlm"
)

// TaintCore is the DIFT-enabled ("VP+") RV32IM instruction-set simulator.
// It mirrors Core exactly in architectural behaviour and adds, per the
// paper's Section V:
//
//   - tag storage: every register and every memory byte carries a security
//     class tag;
//   - tag propagation: computational instructions join source tags with the
//     IFP's LUB, loads fold the tags of the accessed bytes, stores write the
//     data tag to every byte;
//   - execution clearance: configurable checks on the instruction-fetch
//     word, on branch conditions and indirect-jump/trap-vector targets, and
//     on load/store addresses;
//   - region store clearance: integrity protection of configured memory
//     ranges.
//
// A check failure aborts execution with a *core.Violation.
type TaintCore struct {
	Regs    [32]core.Word
	PC      uint32
	Instret uint64
	Halted  bool

	// Tracer, when non-nil, is invoked before each instruction executes.
	Tracer func(pc, insn uint32)

	// Obs, when non-nil, records taint-propagation provenance and metrics
	// (see internal/obs). Every hook call sits behind a nil check, exactly
	// like Tracer, so a core without an observer pays only predictable
	// not-taken branches.
	Obs *obs.Observer

	// obsS1/obsS2 snapshot the source operands consumed by the current
	// instruction for observeStep and the replay records (the interpreter
	// switch may overwrite them when rd aliases a source). Core fields
	// rather than loop locals so the hook-free loop does not carry two
	// extra live values across the switch.
	obsS1, obsS2 core.Word

	// ForceBusMem disables the DMI-style direct RAM path for data
	// accesses: every load/store becomes a full TLM transaction with
	// per-access to_bytes/from_bytes conversion, the memory-interface
	// organization the paper describes for its VP+ (Section V-B1,
	// modification 3). It roughly doubles the DIFT overhead factor; see
	// the ablation benches and EXPERIMENTS.md.
	ForceBusMem bool

	ram     []core.TByte
	ramBase uint32
	ramSize uint32
	bus     *tlm.Bus

	// ic is the predecoded-instruction cache (see icache.go). On this core
	// each entry also carries the fetch-tag summary: the LUB of the word's
	// byte tags and the cached fetch-clearance verdict, recomputed only
	// when a write invalidates the entry.
	ic icache

	// irqPoll gates the per-instruction interrupt check; see Core.irqPoll.
	irqPoll bool

	lat *core.Lattice
	pol *core.Policy
	def core.Tag

	// Cached policy switches (hot path).
	checkFetch   bool
	fetchClear   core.Tag
	checkBranch  bool
	branchClear  core.Tag
	checkMemAddr bool
	memAddrClear core.Tag
	hasRegions   bool

	mstatus  core.Word
	mie      core.Word
	mip      uint32
	mtvec    core.Word
	mepc     core.Word
	mcause   core.Word
	mtval    core.Word
	mscratch core.Word

	// mmioBuf and mmioTxn are the one reused MMIO transaction; see
	// Core.mmioTxn.
	mmioBuf [4]core.TByte
	mmioTxn tlm.Payload

	// Retire, when non-nil, is invoked once per executed instruction with
	// its pc and raw word — the guest profiler's hook (internal/trace).
	// New fields live at the end of the struct: inserting them higher up
	// shifts the hot fields (Regs, ram, ic) across cache lines, which
	// costs the tight interpreter loop measurably.
	Retire func(pc, insn uint32)

	// uncachedFetch counts fetches bypassing the decode cache; see
	// Core.uncachedFetch.
	uncachedFetch uint64

	// Cov, when non-nil, receives post-retire coverage events: guest
	// block/edge coverage, taint heatmap samples, and policy-audit check
	// counts (internal/cover). One predictable branch per retire when nil.
	Cov *cover.Cover

	// FR, when non-nil, is the always-on flight recorder: one compressed
	// record per retire, captured post-switch by the interpreter loop (see
	// flightcap.go).
	FR *flight.Recorder
}

// NewTaintCore builds a DIFT core over tainted RAM, enforcing the policy.
// The policy must have been validated against its lattice.
func NewTaintCore(ram *mem.Memory, ramBase uint32, bus *tlm.Bus, pol *core.Policy) *TaintCore {
	c := &TaintCore{
		ram:     ram.Data(),
		ramBase: ramBase,
		ramSize: ram.Size(),
		bus:     bus,
		lat:     pol.L,
		pol:     pol,
		def:     pol.Default,

		checkFetch:   pol.Exec.CheckFetch,
		fetchClear:   pol.Exec.Fetch,
		checkBranch:  pol.Exec.CheckBranch,
		branchClear:  pol.Exec.Branch,
		checkMemAddr: pol.Exec.CheckMemAddr,
		memAddrClear: pol.Exec.MemAddr,
		hasRegions:   len(pol.Regions) > 0,

		ic:      newICache(ram.Size()),
		irqPoll: true,
	}
	ram.AddWriteHook(c.InvalidateDecodeCache)
	for i := range c.Regs {
		c.Regs[i] = core.W(0, c.def)
	}
	c.mstatus = core.W(0, c.def)
	c.mie = core.W(0, c.def)
	c.mtvec = core.W(0, c.def)
	c.mepc = core.W(0, c.def)
	c.mcause = core.W(0, c.def)
	c.mtval = core.W(0, c.def)
	c.mscratch = core.W(0, c.def)
	return c
}

// DisableDecodeCache turns the predecoded-instruction cache off: every
// fetch folds byte tags and decodes again. For ablation benchmarks.
func (c *TaintCore) DisableDecodeCache() { c.ic = icache{} }

// DecodeCacheFills reports how many predecoded-cache slots have been filled
// (i.e. slow-path decodes); the metrics exporter pairs it with Instret to
// derive the hit rate.
func (c *TaintCore) DecodeCacheFills() uint64 { return c.ic.fills }

// DecodeCacheStats reports the decode-cache miss breakdown; see
// Core.DecodeCacheStats.
func (c *TaintCore) DecodeCacheStats() (fills, uncached uint64) {
	return c.ic.fills, c.uncachedFetch
}

// InvalidateDecodeCache drops predecoded entries (and their fetch-tag
// summaries) covering RAM byte offsets [start, end). Registered as the
// tainted RAM's write hook.
func (c *TaintCore) InvalidateDecodeCache(start, end uint32) { c.ic.invalidate(start, end) }

// SetIRQ drives the machine interrupt-pending lines.
func (c *TaintCore) SetIRQ(line uint32, level bool) {
	if level {
		c.mip |= line
		c.irqPoll = true
	} else {
		c.mip &^= line
	}
}

// PendingIRQ reports whether any enabled interrupt is pending.
func (c *TaintCore) PendingIRQ() bool { return c.mie.V&c.mip != 0 }

func (c *TaintCore) takeIRQ() (bool, error) {
	if c.mstatus.V&MstatusMIE == 0 {
		c.irqPoll = false
		return false, nil
	}
	pending := c.mie.V & c.mip
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

// trap enters the machine trap handler. Per the paper, the trap-vector
// target is subject to the branch execution clearance ("the same clearance
// is used to check the interrupt/trap handler address").
func (c *TaintCore) trap(cause, tval, epc uint32) error {
	if c.mtvec.V == 0 {
		return &TrapError{Cause: cause, Tval: tval, PC: epc}
	}
	if c.checkBranch {
		if c.Obs != nil {
			c.Obs.Checks.Branch++
		}
		if !c.lat.AllowedFlow(c.mtvec.T, c.branchClear) {
			v := core.NewViolation(c.lat, core.KindBranchClearance, c.mtvec.T, c.branchClear).
				WithPC(epc).WithValue(c.mtvec.V)
			if c.Obs != nil {
				c.Obs.OnViolation(v, 0, 0)
			}
			return v
		}
	}
	if c.FR != nil {
		c.FR.MarkTrap(c.Instret, epc, tval, cause)
	}
	c.mepc = core.W(epc, c.def)
	c.mcause = core.W(cause, c.def)
	c.mtval = core.W(tval, c.def)
	st := c.mstatus.V
	if st&MstatusMIE != 0 {
		st |= MstatusMPIE
	} else {
		st &^= MstatusMPIE
	}
	st &^= MstatusMIE
	st |= MstatusMPP
	c.mstatus = core.W(st, c.mstatus.T)
	c.PC = c.mtvec.V &^ 3
	return nil
}

// branchTagOK performs (and counts) the branch-condition / indirect-target
// clearance check. The violation construction is outlined into
// branchViolation so this stays within the inlining budget — it runs on
// every branch, jalr and mret.
func (c *TaintCore) branchTagOK(t core.Tag) bool {
	if !c.checkBranch {
		return true
	}
	if c.Obs != nil {
		c.Obs.Checks.Branch++
	}
	return c.lat.AllowedFlow(t, c.branchClear)
}

// branchViolation builds the branch-clearance violation after branchTagOK
// failed. rs1/rs2 name the source registers for provenance (obs.RegNone
// when the condition comes from a CSR such as mepc or mtvec).
func (c *TaintCore) branchViolation(t core.Tag, pc uint32, rs1, rs2 uint8) *core.Violation {
	v := core.NewViolation(c.lat, core.KindBranchClearance, t, c.branchClear).WithPC(pc)
	if c.Obs != nil {
		c.Obs.SetInsn(pc, c.insnWord(pc))
		var p1, p2 uint64
		if rs1 != obs.RegNone {
			p1 = c.Obs.RegSource(rs1)
		}
		if rs2 != obs.RegNone {
			p2 = c.Obs.RegSource(rs2)
		}
		c.Obs.OnViolation(v, p1, p2)
	}
	return v
}

// addrTagOK performs (and counts) the memory-address clearance check; the
// cold violation path lives in addrViolation, keeping this inlinable inside
// load and store.
func (c *TaintCore) addrTagOK(t core.Tag) bool {
	if !c.checkMemAddr {
		return true
	}
	if c.Obs != nil {
		c.Obs.Checks.MemAddr++
	}
	return c.lat.AllowedFlow(t, c.memAddrClear)
}

// addrViolation builds the mem-address-clearance violation after addrTagOK
// failed; base names the address-forming register for provenance.
func (c *TaintCore) addrViolation(t core.Tag, addr, pc uint32, base uint8) *core.Violation {
	v := core.NewViolation(c.lat, core.KindMemAddrClearance, t, c.memAddrClear).
		WithPC(pc).WithAddr(addr)
	if c.Obs != nil {
		c.Obs.SetInsn(pc, c.insnWord(pc))
		c.Obs.OnViolation(v, c.Obs.RegSource(base), 0)
	}
	return v
}

// fetchWord assembles the little-endian instruction word at RAM offset off;
// the caller guarantees off+4 <= ramSize.
func (c *TaintCore) fetchWord(off uint32) uint32 {
	return uint32(c.ram[off].V) | uint32(c.ram[off+1].V)<<8 |
		uint32(c.ram[off+2].V)<<16 | uint32(c.ram[off+3].V)<<24
}

// foldFetchTag joins the four byte tags of an instruction word via the
// load path's fold (core.Fold4): all-equal short circuit, LUB chain
// otherwise.
func (c *TaintCore) foldFetchTag(b0, b1, b2, b3 core.TByte) core.Tag {
	return core.Fold4(c.lat, b0, b1, b2, b3)
}

// fill decodes the word at RAM offset off into e together with its
// fetch-tag summary: the slow half of the fetch, taken on a decode-cache
// miss (and on every fetch when the cache is off or the PC is misaligned).
func (c *TaintCore) fill(e *icEntry, off uint32) {
	b0, b1, b2, b3 := c.ram[off], c.ram[off+1], c.ram[off+2], c.ram[off+3]
	w := uint32(b0.V) | uint32(b1.V)<<8 | uint32(b2.V)<<16 | uint32(b3.V)<<24
	e.tag, e.allowed = 0, true
	if c.checkFetch {
		if c.Obs != nil {
			c.Obs.Checks.Fetch++
		}
		e.tag = c.foldFetchTag(b0, b1, b2, b3)
		e.allowed = c.lat.AllowedFlow(e.tag, c.fetchClear)
	}
	e.inst, e.word, e.state = Decode(w), w, icValid
}

// fillMiss is the decode-cache miss path; see Core.fillMiss, including why
// it must not be inlined.
//
//go:noinline
func (c *TaintCore) fillMiss(off uint32, scratch *icEntry) *icEntry {
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

// Run executes up to max instructions; see Core.Run, whose loop structure
// and pc/instret bracketing rule this mirrors, plus the clearance checks and
// tag propagation. It is the VP+'s only interpreter: tags propagate inline,
// in the same switch that computes values.
func (c *TaintCore) Run(max uint64, delay *kernel.Time) (n uint64, st RunStatus, err error) {
	// One flag gates every per-retire hook; the flight recorder keeps its
	// own guard.
	hooked := c.Tracer != nil || c.Retire != nil || c.Obs != nil || c.Cov != nil
	// storeChecks gates the outlined pre-write half of a store.
	storeChecks := c.hasRegions || c.Obs != nil
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
				// Interrupt entry retires as one instruction; see Core.Run.
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
			c.fetchHooks(i, pc, w)
			pc, instret = c.PC, c.Instret
		}
		if !e.allowed {
			// Fetch clearance (a cached verdict on a hit): the word's tag
			// summary may not flow to the execution unit.
			c.PC, c.Instret = pc, instret
			err := c.fetchViolation(pc, w, e.tag)
			pc, instret = c.PC, c.Instret
			return c.exit(pc, instret, start, RunOK, err)
		}

		var faddr uint32 // load/store effective address for the flight record, else 0
		next := pc + 4
		r := &c.Regs
		switch i.Op {
		case OpLUI:
			c.set(i.Rd, core.W(uint32(i.Imm), c.def))
		case OpAUIPC:
			c.set(i.Rd, core.W(pc+uint32(i.Imm), c.def))
		case OpJAL:
			c.set(i.Rd, core.W(next, c.def))
			next = pc + uint32(i.Imm)
		case OpJALR:
			// Indirect jump: the target register steers control flow, so it is
			// subject to the branch clearance.
			if !c.branchTagOK(r[i.Rs1].T) {
				c.PC, c.Instret = pc, instret
				err := c.branchViolation(r[i.Rs1].T, pc, i.Rs1, obs.RegNone)
				pc, instret = c.PC, c.Instret
				return c.exit(pc, instret, start, RunOK, err)
			}
			t := (r[i.Rs1].V + uint32(i.Imm)) &^ 1
			c.set(i.Rd, core.W(next, c.def))
			next = t
		case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
			condTag := c.lat.LUB(r[i.Rs1].T, r[i.Rs2].T)
			if !c.branchTagOK(condTag) {
				c.PC, c.Instret = pc, instret
				err := c.branchViolation(condTag, pc, i.Rs1, i.Rs2)
				pc, instret = c.PC, c.Instret
				return c.exit(pc, instret, start, RunOK, err)
			}
			a, b := r[i.Rs1].V, r[i.Rs2].V
			var taken bool
			switch i.Op {
			case OpBEQ:
				taken = a == b
			case OpBNE:
				taken = a != b
			case OpBLT:
				taken = int32(a) < int32(b)
			case OpBGE:
				taken = int32(a) >= int32(b)
			case OpBLTU:
				taken = a < b
			default:
				taken = a >= b
			}
			if taken {
				next = pc + uint32(i.Imm)
			}
		case OpLB, OpLH, OpLW, OpLBU, OpLHU:
			base := r[i.Rs1]
			addr := base.V + uint32(i.Imm)
			faddr = addr
			if !c.addrTagOK(base.T) {
				c.PC, c.Instret = pc, instret
				err := c.addrViolation(base.T, addr, pc, i.Rs1)
				pc, instret = c.PC, c.Instret
				return c.exit(pc, instret, start, RunOK, err)
			}
			size := uint32(memSize[i.Op])
			var v core.Word
			if a := addr - c.ramBase; !c.ForceBusMem && a < c.ramSize && a+size <= c.ramSize {
				// Tag folding short-circuits when all accessed bytes carry
				// the same tag (the overwhelmingly common case — whole words
				// written by sw carry one tag), avoiding the LUB chain.
				switch size {
				case 1:
					b := c.ram[a]
					v = core.W(uint32(b.V), b.T)
				case 2:
					b0, b1 := c.ram[a], c.ram[a+1]
					v = core.W(uint32(b0.V)|uint32(b1.V)<<8, core.Fold2(c.lat, b0, b1))
				default:
					b0, b1, b2, b3 := c.ram[a], c.ram[a+1], c.ram[a+2], c.ram[a+3]
					v = core.W(uint32(b0.V)|uint32(b1.V)<<8|uint32(b2.V)<<16|uint32(b3.V)<<24, b0.T)
					if b1.T != v.T || b2.T != v.T || b3.T != v.T {
						c.PC, c.Instret = pc, instret
						v.T = core.Fold4(c.lat, b0, b1, b2, b3)
						pc, instret = c.PC, c.Instret
					}
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
				v.V = uint32(int32(v.V<<24) >> 24)
			case OpLH:
				v.V = uint32(int32(v.V<<16) >> 16)
			}
			c.set(i.Rd, v)
		case OpSB, OpSH, OpSW:
			base, val := r[i.Rs1], r[i.Rs2]
			addr := base.V + uint32(i.Imm)
			faddr = addr
			if !c.addrTagOK(base.T) {
				c.PC, c.Instret = pc, instret
				err := c.addrViolation(base.T, addr, pc, i.Rs1)
				pc, instret = c.PC, c.Instret
				return c.exit(pc, instret, start, RunOK, err)
			}
			size := uint32(memSize[i.Op])
			a := addr - c.ramBase
			ramOK := !c.ForceBusMem && a < c.ramSize && a+size <= c.ramSize
			if storeChecks {
				c.PC, c.Instret = pc, instret
				err := c.storeChecks(i, addr, size, val, pc, w)
				pc, instret = c.PC, c.Instret
				if err != nil {
					return c.exit(pc, instret, start, RunOK, err)
				}
			}
			if ramOK {
				// Store propagation: every written byte carries the data tag.
				switch size {
				case 1:
					c.ram[a] = core.TByte{V: byte(val.V), T: val.T}
				case 2:
					c.ram[a] = core.TByte{V: byte(val.V), T: val.T}
					c.ram[a+1] = core.TByte{V: byte(val.V >> 8), T: val.T}
				default:
					c.ram[a] = core.TByte{V: byte(val.V), T: val.T}
					c.ram[a+1] = core.TByte{V: byte(val.V >> 8), T: val.T}
					c.ram[a+2] = core.TByte{V: byte(val.V >> 16), T: val.T}
					c.ram[a+3] = core.TByte{V: byte(val.V >> 24), T: val.T}
				}
				// Keep the decode cache (and its fetch-tag summaries) coherent
				// with self-modifying or freshly injected code.
				if c.ic.overlaps(a, a+size) {
					c.ic.invalidate(a, a+size)
				}
			} else {
				c.PC, c.Instret = pc, instret
				err := c.storeBus(addr, size, val, delay, pc)
				pc, instret = c.PC, c.Instret
				if err != nil {
					return c.exit(pc, instret, start, RunOK, err)
				}
			}
		case OpADDI:
			c.aluImm(i, r[i.Rs1].V+uint32(i.Imm))
		case OpSLTI:
			c.aluImm(i, b2u(int32(r[i.Rs1].V) < i.Imm))
		case OpSLTIU:
			c.aluImm(i, b2u(r[i.Rs1].V < uint32(i.Imm)))
		case OpXORI:
			c.aluImm(i, r[i.Rs1].V^uint32(i.Imm))
		case OpORI:
			c.aluImm(i, r[i.Rs1].V|uint32(i.Imm))
		case OpANDI:
			c.aluImm(i, r[i.Rs1].V&uint32(i.Imm))
		case OpSLLI:
			c.aluImm(i, r[i.Rs1].V<<uint(i.Imm))
		case OpSRLI:
			c.aluImm(i, r[i.Rs1].V>>uint(i.Imm))
		case OpSRAI:
			c.aluImm(i, uint32(int32(r[i.Rs1].V)>>uint(i.Imm)))
		case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
			OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
			a, b := r[i.Rs1].V, r[i.Rs2].V
			var v uint32
			switch i.Op {
			case OpADD:
				v = a + b
			case OpSUB:
				v = a - b
			case OpSLL:
				v = a << (b & 31)
			case OpSLT:
				v = b2u(int32(a) < int32(b))
			case OpSLTU:
				v = b2u(a < b)
			case OpXOR:
				v = a ^ b
			case OpSRL:
				v = a >> (b & 31)
			case OpSRA:
				v = uint32(int32(a) >> (b & 31))
			case OpOR:
				v = a | b
			case OpAND:
				v = a & b
			case OpMUL:
				v = a * b
			case OpMULH:
				v = uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
			case OpMULHSU:
				v = uint32(uint64(int64(int32(a))*int64(b)) >> 32)
			case OpMULHU:
				v = uint32(uint64(a) * uint64(b) >> 32)
			case OpDIV:
				v = divS(a, b)
			case OpDIVU:
				v = divU(a, b)
			case OpREM:
				v = remS(a, b)
			default:
				v = remU(a, b)
			}
			// The paper's overloaded-operator semantics (Fig. 3 line 35):
			// the operator's value, the tag joined from both sources.
			// Provenance is recorded post-retire in observeStep, keeping the
			// join inline here.
			c.set(i.Rd, core.W(v, c.lat.LUB(r[i.Rs1].T, r[i.Rs2].T)))
		case OpFENCE:
			// No-op: the memory model is sequentially consistent.
		case OpFENCEI:
			// Explicit fetch/store synchronization: drop every predecoded
			// entry together with its fetch-tag summary.
			c.ic.invalidateAll()
		case OpMRET:
			// Return target comes from mepc: a control transfer steered by a
			// register, so the branch clearance applies (like jalr).
			if !c.branchTagOK(c.mepc.T) {
				c.PC, c.Instret = pc, instret
				err := c.branchViolation(c.mepc.T, pc, obs.RegNone, obs.RegNone)
				pc, instret = c.PC, c.Instret
				return c.exit(pc, instret, start, RunOK, err)
			}
			c.mret()
			next = c.mepc.V
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
			// ECALL, EBREAK and undecodable words trap; see Core.Run.
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
			if i.Rd != 0 && r[i.Rd].T != c.def {
				fl |= flight.FlagTaintRd
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
		if hooked {
			c.PC, c.Instret = pc, instret
			c.retireHooks(i, pc, w, next)
			pc, instret = c.PC, c.Instret
		}
		pc = next
	}
	return c.exit(pc, instret, start, RunOK, nil)
}

// exit writes the loop's pc and instret back and forms Run's results.
func (c *TaintCore) exit(pc uint32, instret, start uint64, st RunStatus, err error) (uint64, RunStatus, error) {
	c.PC, c.Instret = pc, instret
	return instret - start, st, err
}

// fetchHooks runs the per-fetch hooks before the instruction i at pc, with
// word w, executes: the tracer and profiler, and the snapshot of the source
// operands that observeStep and the replay records consume (the switch may
// overwrite them when rd aliases a source).
func (c *TaintCore) fetchHooks(i Inst, pc, w uint32) {
	if c.Tracer != nil {
		c.Tracer(pc, w)
	}
	if c.Retire != nil {
		c.Retire(pc, w)
	}
	c.obsS1, c.obsS2 = c.Regs[i.Rs1], c.Regs[i.Rs2]
}

// retireHooks runs the post-retire hooks for instruction i at pc, whose
// executed word is w and successor next.
func (c *TaintCore) retireHooks(i Inst, pc, w, next uint32) {
	if c.Obs != nil {
		c.observeStep(i, pc, w, next)
	}
	if c.Cov != nil {
		c.coverStep(i, pc, w, next)
	}
}

// mret restores the interrupt enable on MRET: MIE <- MPIE; MPIE <- 1. The
// branch-clearance check on mepc is the caller's.
func (c *TaintCore) mret() {
	st := c.mstatus.V
	if st&MstatusMPIE != 0 {
		st |= MstatusMIE
	} else {
		st &^= MstatusMIE
	}
	st |= MstatusMPIE
	c.mstatus = core.W(st, c.mstatus.T)
	c.irqPoll = true
}

// coverStep feeds the coverage views for one retired instruction: guest
// block/edge coverage, taint heatmap samples (store sites and the register
// file — safe post-switch because stores never write back a register, so
// Regs[rs1]/Regs[rs2] still hold the address base and data tag), and the
// policy audit's per-clearance-point check counts. w is the executed word,
// not the RAM word at pc, which a store may have just rewritten. Called
// from retireHooks behind Run's single hook flag, so the hook-free loop
// pays one predictable branch. Violating instructions leave the loop
// before it and are attributed through PolicyAudit.NoteViolation by the
// platform; a retire under an enabled fetch check counts as one enforcement
// even when the decode cache memoized the verdict.
func (c *TaintCore) coverStep(i Inst, pc, w, next uint32) {
	cv := c.Cov
	if g := cv.Guest; g != nil {
		g.OnRetire(pc, w, next)
	}
	if t := cv.Taint; t != nil {
		t.OnRetireRegs(&c.Regs)
		switch i.Op {
		case OpSB:
			t.OnStore(c.Regs[i.Rs1].V+uint32(i.Imm), 1, c.Regs[i.Rs2].T)
		case OpSH:
			t.OnStore(c.Regs[i.Rs1].V+uint32(i.Imm), 2, c.Regs[i.Rs2].T)
		case OpSW:
			t.OnStore(c.Regs[i.Rs1].V+uint32(i.Imm), 4, c.Regs[i.Rs2].T)
		}
	}
	if a := cv.Audit; a != nil {
		if c.checkFetch {
			a.Fetch.Checks++
		}
		switch i.Op {
		case OpJALR, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpMRET:
			if c.checkBranch {
				a.Branch.Checks++
			}
		case OpLB, OpLH, OpLW, OpLBU, OpLHU:
			if c.checkMemAddr {
				a.MemAddr.Checks++
			}
		case OpSB, OpSH, OpSW:
			if c.checkMemAddr {
				a.MemAddr.Checks++
			}
			if c.hasRegions {
				a.NoteStore(c.Regs[i.Rs1].V + uint32(i.Imm))
			}
		}
	}
}

// aluImm writes an I-type ALU result carrying the source register's tag.
// Provenance recording happens post-retire in observeStep so this stays
// inlinable in the interpreter switch.
func (c *TaintCore) aluImm(i Inst, v uint32) {
	c.set(i.Rd, core.W(v, c.Regs[i.Rs1].T))
}

// set writes a destination register, keeping x0 hardwired to zero with the
// policy default class.
func (c *TaintCore) set(rd uint8, w core.Word) {
	if rd != 0 {
		c.Regs[rd] = w
	}
}

// insnWord refetches the instruction word at pc for cold diagnostic paths
// (violation reports, deferred provenance recording).
func (c *TaintCore) insnWord(pc uint32) uint32 {
	off := pc - c.ramBase
	if off < c.ramSize && off+4 <= c.ramSize {
		return c.fetchWord(off)
	}
	return 0
}

// observeStep records the retired instruction's provenance: the
// instruction-boundary bookkeeping (BeginInsn), op events for ALU results,
// load events and the register assignments that consume them, and
// indirect-jump PC provenance, for the executed word w. Called from
// retireHooks behind Run's single hook flag; the *pre-execution* source
// operands are snapshot in c.obsS1/c.obsS2 by fetchHooks (the switch may
// overwrite them when rd aliases a source) rather than passed as
// arguments, so the hook-free path carries no extra live values. Deferring
// all recording to one post-retire call keeps the ALU and memory cases free
// of per-instruction observer branches. Store events are the exception:
// storeChecks emits them before the bus transaction can trigger a
// peripheral's output-clearance check.
func (c *TaintCore) observeStep(i Inst, pc, w, next uint32) {
	o := c.Obs
	s1, s2 := c.obsS1, c.obsS2
	o.BeginInsn(pc, w)
	switch i.Op {
	case OpJALR:
		// Order matters: OnJump reads rs1's provenance before AssignReg can
		// clear it (jalr ra, ra, 0 aliases rd and rs1).
		o.OnJump(next, i.Rs1, s1.T)
		o.AssignReg(i.Rd)
	case OpMRET:
		o.OnJump(next, obs.RegNone, c.mepc.T)
	case OpLB, OpLBU:
		o.OnLoad(s1.V+uint32(i.Imm), 1, c.Regs[i.Rd])
		o.AssignReg(i.Rd)
	case OpLH, OpLHU:
		o.OnLoad(s1.V+uint32(i.Imm), 2, c.Regs[i.Rd])
		o.AssignReg(i.Rd)
	case OpLW:
		o.OnLoad(s1.V+uint32(i.Imm), 4, c.Regs[i.Rd])
		o.AssignReg(i.Rd)
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		o.OnOp(i.Rs1, obs.RegNone, c.Regs[i.Rd].V, s1.T)
		o.AssignReg(i.Rd)
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		o.OnOp(i.Rs1, i.Rs2, c.Regs[i.Rd].V, c.lat.LUB(s1.T, s2.T))
		o.AssignReg(i.Rd)
	case OpLUI, OpAUIPC, OpJAL,
		OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
		o.AssignReg(i.Rd) // untracked writers sever rd's old provenance
	}
}

// fetchViolation builds a fetch-clearance violation, attaching provenance
// through both the fetched word (freshly injected code) and the indirect
// jump that steered the PC there (an overwritten return address).
func (c *TaintCore) fetchViolation(pc, w uint32, t core.Tag) *core.Violation {
	v := core.NewViolation(c.lat, core.KindFetchClearance, t, c.fetchClear).
		WithPC(pc).WithValue(w)
	if c.Obs != nil {
		c.Obs.SetInsn(pc, w)
		c.Obs.OnViolation(v, c.Obs.MemSource(pc), c.Obs.PCSource())
	}
	return v
}

// loadBus performs a load outside the RAM window (or any load under
// ForceBusMem) as a TLM read of size bytes, little-endian, zero-extended,
// joining the byte tags.
func (c *TaintCore) loadBus(addr, size uint32, delay *kernel.Time, pc uint32) (core.Word, error) {
	p := &c.mmioTxn
	*p = tlm.Payload{Cmd: tlm.Read, Addr: addr, Data: c.mmioBuf[:size], From: "cpu"}
	c.bus.Transport(p, delay)
	if p.Resp != tlm.OK {
		return core.Word{}, &BusError{What: "load " + p.Resp.String(), Addr: addr, PC: pc}
	}
	var v uint32
	t := c.mmioBuf[0].T
	for j := uint32(0); j < size; j++ {
		v |= uint32(c.mmioBuf[j].V) << (8 * j)
		t = c.lat.LUB(t, c.mmioBuf[j].T)
	}
	return core.W(v, t), nil
}

// storeChecks is the outlined pre-write half of a store, run when the
// policy has store regions or an observer is attached: the region store
// clearance, then the observer's store event. w is the executing store's
// word.
func (c *TaintCore) storeChecks(i Inst, addr, size uint32, val core.Word, pc, w uint32) error {
	if c.hasRegions {
		if c.Obs != nil {
			c.Obs.Checks.Store++
		}
		if err := c.pol.CheckStore(addr, val.T); err != nil {
			if v, ok := err.(*core.Violation); ok {
				v.PC = pc
				if c.Obs != nil {
					c.Obs.SetInsn(pc, w)
					c.Obs.OnViolation(v, c.Obs.RegSource(i.Rs2), 0)
				}
			}
			return err
		}
	}
	if c.Obs != nil {
		// Emitted here, not in observeStep: the bus write that follows may
		// trigger a peripheral's output-clearance check, which links to this
		// event via LastStore.
		c.Obs.SetInsn(pc, w)
		c.Obs.OnStore(addr, size, i.Rs2, val)
	}
	return nil
}

// storeBus performs a store outside the RAM window (or any store under
// ForceBusMem) as a TLM write of size bytes, each carrying the data tag, so
// the target's output clearance sees the exact tag.
func (c *TaintCore) storeBus(addr, size uint32, val core.Word, delay *kernel.Time, pc uint32) error {
	for j := uint32(0); j < size; j++ {
		c.mmioBuf[j] = core.TByte{V: byte(val.V >> (8 * j)), T: val.T}
	}
	p := &c.mmioTxn
	*p = tlm.Payload{Cmd: tlm.Write, Addr: addr, Data: c.mmioBuf[:size], From: "cpu"}
	c.bus.Transport(p, delay)
	if p.Resp != tlm.OK {
		return &BusError{What: "store " + p.Resp.String(), Addr: addr, PC: pc}
	}
	return nil
}

// csrOp executes the Zicsr instructions with tag propagation: the
// destination register receives the CSR's tag, and register-sourced writes
// carry the source register's tag into the CSR. trapped reports an illegal
// CSR access, which entered the trap handler instead.
func (c *TaintCore) csrOp(i Inst, pc uint32) (trapped bool, err error) {
	csr := uint32(i.Imm)
	old, ok := c.csrRead(csr)
	if !ok {
		return true, c.trap(CauseIllegalInstr, 0, pc)
	}
	var operand core.Word
	imm := i.Op == OpCSRRWI || i.Op == OpCSRRSI || i.Op == OpCSRRCI
	if imm {
		operand = core.W(uint32(i.Rs1), c.def)
	} else {
		operand = c.Regs[i.Rs1]
	}
	var newVal core.Word
	write := true
	switch i.Op {
	case OpCSRRW, OpCSRRWI:
		newVal = operand
	case OpCSRRS, OpCSRRSI:
		newVal = core.W(old.V|operand.V, c.lat.LUB(old.T, operand.T))
		write = i.Rs1 != 0
	default:
		newVal = core.W(old.V&^operand.V, c.lat.LUB(old.T, operand.T))
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

func (c *TaintCore) csrRead(csr uint32) (core.Word, bool) {
	switch csr {
	case CSRMstatus:
		return core.W(c.mstatus.V|MstatusMPP, c.mstatus.T), true
	case CSRMisa:
		return core.W(misaRV32IM, c.def), true
	case CSRMie:
		return c.mie, true
	case CSRMip:
		return core.W(c.mip, c.def), true
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
		return core.W(0, c.def), true
	case CSRMcycle, CSRCycle, CSRMinstret, CSRInstret, CSRTime:
		return core.W(uint32(c.Instret), c.def), true
	case CSRMcycleh, CSRCycleh, CSRMinstreth, CSRInstreth, CSRTimeh:
		return core.W(uint32(c.Instret>>32), c.def), true
	default:
		return core.Word{}, false
	}
}

func (c *TaintCore) csrWrite(csr uint32, w core.Word) bool {
	switch csr {
	case CSRMstatus:
		c.mstatus = core.W(w.V&(MstatusMIE|MstatusMPIE), w.T)
		c.irqPoll = true
	case CSRMie:
		c.mie = core.W(w.V&(IntMSI|IntMTI|IntMEI), w.T)
		c.irqPoll = true
	case CSRMip:
		// Hardwired from devices; software writes ignored.
	case CSRMtvec:
		c.mtvec = core.W(w.V&^3, w.T)
	case CSRMepc:
		c.mepc = core.W(w.V&^1, w.T)
	case CSRMcause:
		c.mcause = w
	case CSRMtval:
		c.mtval = w
	case CSRMscratch:
		c.mscratch = w
	case CSRMisa, CSRMvendorid, CSRMarchid, CSRMimpid, CSRMhartid:
		// Read-only: writes ignored.
	case CSRMcycle, CSRMcycleh, CSRMinstret, CSRMinstreth:
		// Simulator-maintained counters; writes ignored.
	case CSRCycle, CSRCycleh, CSRInstret, CSRInstreth, CSRTime, CSRTimeh:
		return false
	default:
		return false
	}
	return true
}
