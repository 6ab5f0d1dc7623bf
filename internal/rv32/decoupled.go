package rv32

// Decoupled taint monitoring: the VP+ split into a fast ISS front end and a
// parallel tag-propagation monitor, the software analogue of Wahab et al.'s
// DIFT coprocessor and the gem5 drop-based monitors. The front end retires
// instructions at near-VP speed; the monitor goroutine consumes compact
// retire records from a lock-free SPSC ring (internal/dift) and replays tag
// propagation and the obs/cover hooks against shadow state.
//
// Two organizations, chosen at the first Run:
//
//   - Replay mode (fullEmit, an Observer or Cover attached): the front end
//     keeps inline propagation and emits one KindRetire record per retired
//     instruction; the monitor replays the observability hooks off the hot
//     loop in exact inline order, so provenance chains and sequence numbers
//     are preserved bit-for-bit. The ISS stalls only at sync points (Run
//     return, violations, MMIO) and on ring backpressure.
//
//   - Filtered mode (no observers): measurement shows that on small hosts
//     any per-instruction ring traffic loses to inline propagation whenever
//     taint is ubiquitous (the Table I code-injection policy classifies the
//     whole firmware image), so here the filters elide the work instead of
//     deferring it. The front end keeps exact tags itself and emits nothing;
//     three flag-cache tiers prove the common instruction needs no tag work
//     at all:
//
//       - a per-register flag cache (decState.mask): a clear bit proves the
//         register carries the policy-default tag, so all-clear ALU ops
//         write the value half only and skip every clearance lookup covered
//         by defBranchOK/defMemOK;
//       - a Clean block (decState.bstate) proves every byte tag in it is
//         the default: loads skip the tag fold, clear stores skip the tag
//         spread;
//       - a Uniform block proves every byte tag equals the block tag
//         (decState.btag) — the steady state of policy-classified regions:
//         loads take the block tag without folding, and stores whose data
//         tag matches the block tag change no tag state and skip the
//         spread.
//
//     Only accesses that miss every tier fall back to exact per-byte tag
//     propagation with per-block bookkeeping; a block whose last
//     non-default byte dies is re-armed to Clean (CleanedBlocks counts
//     these), restoring full suppression after taint death.
//
// Precision is preserved by construction, not by rollback: every execution
// clearance check (fetch, branch, memory address, region store, output
// port) runs on the front end, at the faulting instruction, against exact
// tags — the fast paths only apply when the flag caches prove the check's
// inputs are default (or match the uniform block tag), and register and RAM
// tags are exact at every instruction boundary in filtered mode. Violations,
// *Result values and final tag state are therefore identical to inline mode.
//
// Ownership protocol (race freedom without locks): in filtered mode the
// front end owns all tag state and the ring stays empty. In replay mode the
// front end owns register values and tags, CSR tags, RAM bytes and the
// decode cache; the monitor owns the shadow register file and the
// observer/coverage state while records are pending. The front end reads
// monitor-owned state only after observing the ring empty (the consumer's
// head store synchronizes-with that load), and the monitor reads front-end
// state only through records (the producer's tail store synchronizes-with
// the consumer's load).

import (
	"math"
	"math/bits"
	"runtime"
	"time"

	"vpdift/internal/core"
	"vpdift/internal/dift"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
)

// Memory flag-cache block geometry.
const (
	decBlockShift = 6
	decBlockSize  = 1 << decBlockShift
)

// Per-block states. Clean is zero so "any spanned block non-Clean" is a
// single OR-and-compare in the hot path.
const (
	bsClean   uint8 = iota
	bsUniform       // every byte tag equals btag (policy-classified regions)
	bsExact         // mixed tags; per-byte state is exact, fold on access
	bsLazy          // not yet scanned; classified on first access
)

// decState carries everything the decoupled mode adds to a TaintCore. The
// front-end-owned and monitor-owned halves are documented on each field
// group; see the package comment for the ownership protocol.
type decState struct {
	ring *dift.Ring
	prop core.Prop
	def  core.Tag

	// fullEmit selects the observability mode: with an Observer or Cover
	// attached the front end keeps full inline propagation and emits one
	// KindRetire record per retired instruction for the monitor to replay
	// the hooks against shadow state (order and seq numbers preserved).
	// Without them the filtered mode A below runs.
	fullEmit bool
	started  bool

	// ---- front-end-owned filter state (filtered mode) ----

	// mask bit r set means register r may carry a non-default tag; clear
	// proves Regs[r].T == def. Register tags themselves are always exact.
	// runDecoupled works on a local copy and writes it back at every
	// return.
	mask uint32
	// bstate is the per-block memory flag cache; btag is the proven uniform
	// tag of bsUniform blocks; nonDef counts non-default byte tags per
	// block (exact for bsExact blocks, used to re-arm Clean on taint death).
	bstate      []uint8
	btag        []core.Tag
	nonDef      []uint16
	dirtyBlocks int
	// defBranchOK / defMemOK precompute AllowedFlow(def, clearance) so the
	// all-clear fast path skips the check entirely.
	defBranchOK bool
	defMemOK    bool
	// storeRanges are the CheckStore region bounds; stores outside every
	// range provably cannot raise a region violation.
	storeRanges [][2]uint32

	// Front-end-owned counters, read at sync points and via DecoupledStats.
	emitted      uint64
	drains       uint64
	backpressure uint64
	stallNs      uint64
	cleanedTotal uint64
	instretAt    uint64

	// ---- monitor-owned shadow state (replay mode) ----

	// shadow holds the monitor's register file: full post-retire words
	// reconstructed from KindRetire records.
	shadow [32]core.Word

	mon monState
}

// EnableDecoupledTaint switches the core into decoupled-monitor mode. Call
// before the first Run; the monitor goroutine starts lazily on that Run (so
// image loading and classification are complete when the initial tag scan
// runs) and is stopped with StopDecoupled.
func (c *TaintCore) EnableDecoupledTaint() {
	if c.dec != nil {
		return
	}
	d := &decState{
		ring: dift.NewRing(0),
		prop: core.NewProp(c.pol),
		def:  c.def,
	}
	d.defBranchOK = !c.checkBranch || c.lat.AllowedFlow(c.def, c.branchClear)
	d.defMemOK = !c.checkMemAddr || c.lat.AllowedFlow(c.def, c.memAddrClear)
	for _, reg := range c.pol.Regions {
		if reg.CheckStore {
			d.storeRanges = append(d.storeRanges, [2]uint32{reg.Start, reg.End})
		}
	}
	c.dec = d
}

// Decoupled reports whether decoupled-monitor mode is enabled.
func (c *TaintCore) Decoupled() bool { return c.dec != nil }

// StopDecoupled drains the ring, stops the monitor goroutine and returns
// the core to inline mode. Final tag state is exact: the drain completes
// every pending shadow write and the register refresh before the goroutine
// exits.
func (c *TaintCore) StopDecoupled() {
	d := c.dec
	if d == nil {
		return
	}
	if d.started {
		c.drainDec()
		close(d.mon.stopC)
		<-d.mon.doneC
	}
	c.dec = nil
}

// startDecoupled runs on the first Run call after enabling: it decides the
// mode, seeds the flag caches from the post-load tag state, and launches
// the monitor.
func (c *TaintCore) startDecoupled() {
	d := c.dec
	d.fullEmit = c.Obs != nil || c.Cov != nil
	d.instretAt = c.Instret
	if d.fullEmit {
		d.shadow = c.Regs
	} else {
		d.scanAll(c)
		for r := 1; r < 32; r++ {
			if c.Regs[r].T != c.def {
				d.mask |= 1 << r
			}
		}
	}
	d.mon = newMonState()
	d.started = true
	go c.monitorLoop()
}

// scanAll allocates the flag caches with every block Lazy: blocks classify
// on first access, so startup cost is proportional to the touched working
// set, not the RAM size (8 MiB would cost milliseconds per run otherwise).
func (d *decState) scanAll(c *TaintCore) {
	nb := (len(c.ram) + decBlockSize - 1) >> decBlockShift
	d.bstate = make([]uint8, nb)
	for b := range d.bstate {
		d.bstate[b] = bsLazy
	}
	d.btag = make([]core.Tag, nb)
	d.nonDef = make([]uint16, nb)
}

// rescanBlock recounts one block's non-default byte tags and reclassifies
// it as Clean, Uniform or Exact.
func (d *decState) rescanBlock(c *TaintCore, b uint32) {
	lo := int(b) << decBlockShift
	hi := lo + decBlockSize
	if hi > len(c.ram) {
		hi = len(c.ram)
	}
	first := c.ram[lo].T
	uniform := true
	n := uint16(0)
	for o := lo; o < hi; o++ {
		t := c.ram[o].T
		if t != d.def {
			n++
		}
		if t != first {
			uniform = false
		}
	}
	d.nonDef[b] = n
	was := d.bstate[b]
	wasDirty := was == bsUniform || was == bsExact
	switch {
	case n == 0:
		d.bstate[b] = bsClean
		if wasDirty {
			d.dirtyBlocks--
		}
	case uniform:
		d.bstate[b] = bsUniform
		d.btag[b] = first
		if !wasDirty {
			d.dirtyBlocks++
		}
	default:
		d.bstate[b] = bsExact
		if !wasDirty {
			d.dirtyBlocks++
		}
	}
}

// DecoupledMemWrite is the tainted RAM's write hook in decoupled mode:
// external writers (DMA peripherals, loaders) mutate byte tags directly, so
// the affected blocks are rescanned. External writes only happen between
// CPU quanta, after Run's mandatory drain.
func (c *TaintCore) DecoupledMemWrite(start, end uint32) {
	d := c.dec
	if d == nil || !d.started || d.fullEmit || start >= end {
		return
	}
	if end > uint32(len(c.ram)) {
		end = uint32(len(c.ram))
	}
	for b := start >> decBlockShift; b <= (end-1)>>decBlockShift; b++ {
		// Lazy blocks stay lazy: they classify on first CPU access anyway.
		if d.bstate[b] != bsLazy {
			d.rescanBlock(c, b)
		}
	}
}

// drainDec is the replay-mode sync point: it blocks until the monitor has
// applied every published record, so the observer/coverage state is final
// before the caller proceeds. In filtered mode the ring is always empty and
// this is a single atomic load.
func (c *TaintCore) drainDec() {
	d := c.dec
	if d == nil || !d.started || d.ring.Empty() {
		return
	}
	start := time.Now()
	for !d.ring.Empty() {
		d.mon.wake()
		runtime.Gosched()
	}
	d.stallNs += uint64(time.Since(start))
	d.drains++
}

// push publishes one record, spinning (and waking the monitor) on
// backpressure. The monitor is also woken every 1024 records so large
// batches start draining before the sync point.
func (d *decState) push(rec *dift.Record) {
	d.emitted++
	if !d.ring.Push(rec) {
		for {
			d.backpressure++
			d.mon.wake()
			runtime.Gosched()
			if d.ring.Push(rec) {
				break
			}
		}
	}
	if d.emitted&1023 == 0 {
		d.mon.wake()
	}
}

// inStoreRange reports whether addr falls inside any CheckStore region.
func (d *decState) inStoreRange(addr uint32) bool {
	for _, r := range d.storeRanges {
		if addr >= r[0] && addr < r[1] {
			return true
		}
	}
	return false
}

// DecoupledStats is a snapshot of the decoupled monitor's counters. Consume
// it at sync points (after Run returns) for exact values.
type DecoupledStats struct {
	// Emitted counts records published to the ring; Suppressed counts
	// retired instructions whose records the filters dropped.
	Emitted    uint64
	Suppressed uint64
	// Drains counts sync points that found records still pending; StallNs
	// is the total time the front end spent waiting for those drains.
	Drains  uint64
	StallNs uint64
	// Backpressure counts failed pushes against a full ring.
	Backpressure uint64
	// CleanedBlocks counts flag-cache blocks re-armed after taint death.
	CleanedBlocks uint64
	// RingOccupancy and DirtyBlocks/LiveRegs describe the current instant.
	RingOccupancy int
	DirtyBlocks   int
	LiveRegs      int
	// FullEmit reports observability mode (one record per instruction).
	FullEmit bool
}

// DecoupledStats reports the monitor's counters; ok is false when
// decoupled mode is not enabled (or not yet started).
func (c *TaintCore) DecoupledStats() (s DecoupledStats, ok bool) {
	d := c.dec
	if d == nil || !d.started {
		return DecoupledStats{}, false
	}
	s = DecoupledStats{
		Emitted:       d.emitted,
		Drains:        d.drains,
		StallNs:       d.stallNs,
		Backpressure:  d.backpressure,
		CleanedBlocks: d.cleanedTotal,
		RingOccupancy: d.ring.Len(),
		DirtyBlocks:   d.dirtyBlocks,
		LiveRegs:      bits.OnesCount32(d.mask),
		FullEmit:      d.fullEmit,
	}
	if !d.fullEmit {
		if retired := c.Instret - d.instretAt; retired > s.Emitted {
			s.Suppressed = retired - s.Emitted
		}
	}
	return s, true
}

// emitRetire publishes the fullEmit-mode record for one retired
// instruction, whose executed word is w, in place of the inline
// observeStep/coverStep calls. Field
// assignments mirror exactly what those hooks would have consumed: S1T
// carries the pre-joined OnOp tag for ALU records (the join happens on the
// front end so the observer's LUB count matches inline mode), load
// addresses come from the pre-execution operand snapshot, and Val/ValT are
// the post-writeback destination.
func (c *TaintCore) emitRetire(i Inst, pc, w, next uint32) {
	d := c.dec
	rec := dift.Record{
		Kind: dift.KindRetire,
		PC:   pc,
		Insn: w,
		Next: next,
		Op:   uint8(i.Op),
		Rd:   i.Rd,
		Rs1:  i.Rs1,
		Rs2:  i.Rs2,
	}
	switch i.Op {
	case OpJALR:
		rec.S1T = c.obsS1.T
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	case OpMRET:
		rec.S1T = c.mepc.T
	case OpLB, OpLBU:
		rec.Size, rec.Addr = 1, c.obsS1.V+uint32(i.Imm)
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	case OpLH, OpLHU:
		rec.Size, rec.Addr = 2, c.obsS1.V+uint32(i.Imm)
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	case OpLW:
		rec.Size, rec.Addr = 4, c.obsS1.V+uint32(i.Imm)
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	case OpSB:
		rec.Size, rec.Addr = 1, c.Regs[i.Rs1].V+uint32(i.Imm)
		rec.Val, rec.ValT = c.Regs[i.Rs2].V, c.Regs[i.Rs2].T
	case OpSH:
		rec.Size, rec.Addr = 2, c.Regs[i.Rs1].V+uint32(i.Imm)
		rec.Val, rec.ValT = c.Regs[i.Rs2].V, c.Regs[i.Rs2].T
	case OpSW:
		rec.Size, rec.Addr = 4, c.Regs[i.Rs1].V+uint32(i.Imm)
		rec.Val, rec.ValT = c.Regs[i.Rs2].V, c.Regs[i.Rs2].T
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		rec.S1T = c.obsS1.T
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
		OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		rec.S1T = c.lat.LUB(c.obsS1.T, c.obsS2.T)
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	case OpLUI, OpAUIPC, OpJAL,
		OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
		rec.Val, rec.ValT = c.Regs[i.Rd].V, c.Regs[i.Rd].T
	}
	d.push(&rec)
}

// setLive returns the register flag cache mask with rd's bit recording
// whether tag t may be non-default: set for a non-default tag, clear (a
// proof of the default tag) otherwise.
func setLive(mask uint32, rd uint8, t, def core.Tag) uint32 {
	if t == def {
		return mask &^ (1 << rd)
	}
	return mask | 1<<rd
}

// runDecoupled is Run's filtered-mode loop (see the file comment): the same
// retire path as the inline loop — including its write-back rule for pc and
// instret — with every clearance check gated on the flag caches and every
// register/memory writeback keeping them exact. The drain at the single
// exit makes every return a sync point, so callers (the SoC kernel loop,
// metrics samplers, peripherals running between quanta) always observe
// final tag state. Every opcode Run handles must be handled here too — the
// inline/decoupled parity suite (TestDecoupledParity*, internal/wk) catches
// divergence.
func (c *TaintCore) runDecoupled(max uint64, delay *kernel.Time) (n uint64, st RunStatus, err error) {
	d := c.dec
	// Filtered mode runs only without Obs and Cov, so the fetch-side hooks
	// are the only per-retire ones.
	hooked := c.Tracer != nil || c.Retire != nil
	// The register flag cache lives in a local for the whole loop: no
	// outlined call reads it, and every exit writes it back.
	mask := d.mask
	start := c.Instret
	end := start + max
	if end < start {
		end = math.MaxUint64
	}
	pc, instret := c.PC, start
	var scratch icEntry // decode target for fetches the cache cannot hold
	for ; instret < end; instret++ {
		if c.Halted {
			return c.decExit(mask, pc, instret, start, RunHalt, nil)
		}
		if c.irqPoll {
			c.PC, c.Instret = pc, instret
			taken, err := c.takeIRQ()
			pc, instret = c.PC, c.Instret
			if err != nil {
				return c.decExit(mask, pc, instret, start, RunOK, err)
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
			if off >= c.ramSize || off+4 > c.ramSize {
				err := &BusError{What: "instruction fetch outside RAM", Addr: pc, PC: pc}
				return c.decExit(mask, pc, instret, start, RunOK, err)
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
			c.PC, c.Instret = pc, instret
			err := c.fetchViolation(pc, w, e.tag)
			pc, instret = c.PC, c.Instret
			return c.decExit(mask, pc, instret, start, RunOK, err)
		}

		var faddr uint32 // load/store effective address for the flight record, else 0
		next := pc + 4
		r := &c.Regs
		switch i.Op {
		// Untainted results (LUI, AUIPC, link registers) clear rd's flag
		// bit: a set bit means this write is a register taint death.
		case OpLUI:
			if i.Rd != 0 {
				mask &^= 1 << i.Rd
				r[i.Rd] = core.W(uint32(i.Imm), d.def)
			}
		case OpAUIPC:
			if i.Rd != 0 {
				mask &^= 1 << i.Rd
				r[i.Rd] = core.W(pc+uint32(i.Imm), d.def)
			}
		case OpJAL:
			if i.Rd != 0 {
				mask &^= 1 << i.Rd
				r[i.Rd] = core.W(next, d.def)
			}
			next = pc + uint32(i.Imm)
		case OpJALR:
			if !d.defBranchOK || mask>>i.Rs1&1 != 0 {
				if !c.branchTagOK(r[i.Rs1].T) {
					c.PC, c.Instret = pc, instret
					err := c.branchViolation(r[i.Rs1].T, pc, i.Rs1, obs.RegNone)
					pc, instret = c.PC, c.Instret
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
			}
			t := (r[i.Rs1].V + uint32(i.Imm)) &^ 1
			if i.Rd != 0 {
				mask &^= 1 << i.Rd
				r[i.Rd] = core.W(next, d.def)
			}
			next = t
		case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
			if !d.defBranchOK || (mask>>i.Rs1|mask>>i.Rs2)&1 != 0 {
				condTag := c.lat.LUB(r[i.Rs1].T, r[i.Rs2].T)
				if !c.branchTagOK(condTag) {
					c.PC, c.Instret = pc, instret
					err := c.branchViolation(condTag, pc, i.Rs1, i.Rs2)
					pc, instret = c.PC, c.Instret
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
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
			addr := r[i.Rs1].V + uint32(i.Imm)
			faddr = addr
			if c.checkMemAddr && (!d.defMemOK || mask>>i.Rs1&1 != 0) {
				if bt := r[i.Rs1].T; !c.addrTagOK(bt) {
					c.PC, c.Instret = pc, instret
					err := c.addrViolation(bt, addr, pc, i.Rs1)
					pc, instret = c.PC, c.Instret
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
			}
			size := uint32(memSize[i.Op])
			var v uint32
			t := d.def
			if a := addr - c.ramBase; !c.ForceBusMem && a < c.ramSize && a+size <= c.ramSize {
				// Clean blocks skip the tag fold entirely; Uniform blocks
				// take the proven block tag; the rest fold per-byte tags.
				b0, b1 := a>>decBlockShift, (a+size-1)>>decBlockShift
				s := d.bstate[b0] | d.bstate[b1]
				if s == bsClean || (s == bsUniform && d.bstate[b0] == d.bstate[b1] && d.btag[b0] == d.btag[b1]) {
					if s != bsClean {
						t = d.btag[b0]
					}
					switch size {
					case 1:
						v = uint32(c.ram[a].V)
					case 2:
						v = uint32(c.ram[a].V) | uint32(c.ram[a+1].V)<<8
					default:
						v = uint32(c.ram[a].V) | uint32(c.ram[a+1].V)<<8 |
							uint32(c.ram[a+2].V)<<16 | uint32(c.ram[a+3].V)<<24
					}
				} else {
					c.PC, c.Instret = pc, instret
					v, t = c.decLoadExact(a, size)
					pc, instret = c.PC, c.Instret
				}
			} else {
				c.PC, c.Instret = pc, instret
				bw, err := c.loadBus(addr, size, delay, pc)
				pc, instret = c.PC, c.Instret
				if err != nil {
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
				v, t = bw.V, bw.T
			}
			switch i.Op {
			case OpLB:
				v = uint32(int32(v<<24) >> 24)
			case OpLH:
				v = uint32(int32(v<<16) >> 16)
			}
			if i.Rd != 0 {
				mask = setLive(mask, i.Rd, t, d.def)
				r[i.Rd] = core.W(v, t)
			}
		case OpSB, OpSH, OpSW:
			addr := r[i.Rs1].V + uint32(i.Imm)
			faddr = addr
			if c.checkMemAddr && (!d.defMemOK || mask>>i.Rs1&1 != 0) {
				if bt := r[i.Rs1].T; !c.addrTagOK(bt) {
					c.PC, c.Instret = pc, instret
					err := c.addrViolation(bt, addr, pc, i.Rs1)
					pc, instret = c.PC, c.Instret
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
			}
			if len(d.storeRanges) != 0 && d.inStoreRange(addr) {
				c.PC, c.Instret = pc, instret
				err := c.pol.CheckStore(addr, r[i.Rs2].T)
				pc, instret = c.PC, c.Instret
				if err != nil {
					if v, ok := err.(*core.Violation); ok {
						v.PC = pc
					}
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
			}
			size := uint32(memSize[i.Op])
			if a := addr - c.ramBase; !c.ForceBusMem && a < c.ramSize && a+size <= c.ramSize {
				val := r[i.Rs2].V
				t := d.def
				if mask>>i.Rs2&1 != 0 {
					t = r[i.Rs2].T
				}
				// Clean blocks swallow default-tagged data and Uniform blocks
				// matching-tagged data with no tag writes at all; everything
				// else takes the exact per-byte spread.
				b0, b1 := a>>decBlockShift, (a+size-1)>>decBlockShift
				s := d.bstate[b0] | d.bstate[b1]
				if (s == bsClean && t == d.def) ||
					(s == bsUniform && d.bstate[b0] == d.bstate[b1] && d.btag[b0] == t && d.btag[b1] == t) {
					switch size {
					case 1:
						c.ram[a].V = byte(val)
					case 2:
						c.ram[a].V = byte(val)
						c.ram[a+1].V = byte(val >> 8)
					default:
						c.ram[a].V = byte(val)
						c.ram[a+1].V = byte(val >> 8)
						c.ram[a+2].V = byte(val >> 16)
						c.ram[a+3].V = byte(val >> 24)
					}
				} else {
					c.PC, c.Instret = pc, instret
					c.decStoreExact(a, size, val, t)
					pc, instret = c.PC, c.Instret
				}
				if c.ic.overlaps(a, a+size) {
					c.ic.invalidate(a, a+size)
				}
			} else {
				// MMIO: the peripheral's output clearance sees the exact
				// data tag.
				c.PC, c.Instret = pc, instret
				err := c.storeBus(addr, size, r[i.Rs2], delay, pc)
				pc, instret = c.PC, c.Instret
				if err != nil {
					return c.decExit(mask, pc, instret, start, RunOK, err)
				}
			}
		case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
			var v uint32
			switch i.Op {
			case OpADDI:
				v = r[i.Rs1].V + uint32(i.Imm)
			case OpSLTI:
				v = b2u(int32(r[i.Rs1].V) < i.Imm)
			case OpSLTIU:
				v = b2u(r[i.Rs1].V < uint32(i.Imm))
			case OpXORI:
				v = r[i.Rs1].V ^ uint32(i.Imm)
			case OpORI:
				v = r[i.Rs1].V | uint32(i.Imm)
			case OpANDI:
				v = r[i.Rs1].V & uint32(i.Imm)
			case OpSLLI:
				v = r[i.Rs1].V << uint(i.Imm)
			case OpSRLI:
				v = r[i.Rs1].V >> uint(i.Imm)
			default:
				v = uint32(int32(r[i.Rs1].V) >> uint(i.Imm))
			}
			// Flag-cache fast path: all-clear operands and destination change
			// no tag state — write the value half only. Otherwise propagate
			// the exact source tag and keep the flag bit in sync.
			if (mask>>i.Rs1|mask>>i.Rd)&1 == 0 {
				if i.Rd != 0 {
					r[i.Rd].V = v
				}
			} else if i.Rd != 0 {
				t := r[i.Rs1].T
				mask = setLive(mask, i.Rd, t, d.def)
				r[i.Rd] = core.W(v, t)
			}
		case OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND,
			OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
			var v uint32
			switch i.Op {
			case OpADD:
				v = r[i.Rs1].V + r[i.Rs2].V
			case OpSUB:
				v = r[i.Rs1].V - r[i.Rs2].V
			case OpSLL:
				v = r[i.Rs1].V << (r[i.Rs2].V & 31)
			case OpSLT:
				v = b2u(int32(r[i.Rs1].V) < int32(r[i.Rs2].V))
			case OpSLTU:
				v = b2u(r[i.Rs1].V < r[i.Rs2].V)
			case OpXOR:
				v = r[i.Rs1].V ^ r[i.Rs2].V
			case OpSRL:
				v = r[i.Rs1].V >> (r[i.Rs2].V & 31)
			case OpSRA:
				v = uint32(int32(r[i.Rs1].V) >> (r[i.Rs2].V & 31))
			case OpOR:
				v = r[i.Rs1].V | r[i.Rs2].V
			case OpAND:
				v = r[i.Rs1].V & r[i.Rs2].V
			case OpMUL:
				v = r[i.Rs1].V * r[i.Rs2].V
			case OpMULH:
				v = uint32(uint64(int64(int32(r[i.Rs1].V))*int64(int32(r[i.Rs2].V))) >> 32)
			case OpMULHSU:
				v = uint32(uint64(int64(int32(r[i.Rs1].V))*int64(r[i.Rs2].V)) >> 32)
			case OpMULHU:
				v = uint32(uint64(r[i.Rs1].V) * uint64(r[i.Rs2].V) >> 32)
			case OpDIV:
				v = divS(r[i.Rs1].V, r[i.Rs2].V)
			case OpDIVU:
				v = divU(r[i.Rs1].V, r[i.Rs2].V)
			case OpREM:
				v = remS(r[i.Rs1].V, r[i.Rs2].V)
			default:
				v = remU(r[i.Rs1].V, r[i.Rs2].V)
			}
			if (mask>>i.Rs1|mask>>i.Rs2|mask>>i.Rd)&1 == 0 {
				if i.Rd != 0 {
					r[i.Rd].V = v
				}
			} else if i.Rd != 0 {
				// A source or the destination may be tainted: join the exact
				// source tags and keep the flag bit in sync.
				t := r[i.Rs1].T
				if t2 := r[i.Rs2].T; t2 != t {
					t = c.lat.LUB(t, t2)
				}
				mask = setLive(mask, i.Rd, t, d.def)
				r[i.Rd] = core.W(v, t)
			}
		case OpFENCE:
			// No-op: the memory model is sequentially consistent.
		case OpFENCEI:
			c.ic.invalidateAll()
		case OpMRET:
			// mepc's tag is front-end-owned (CSR tags never decouple), so the
			// check runs inline with no drain.
			if !c.branchTagOK(c.mepc.T) {
				c.PC, c.Instret = pc, instret
				err := c.branchViolation(c.mepc.T, pc, obs.RegNone, obs.RegNone)
				pc, instret = c.PC, c.Instret
				return c.decExit(mask, pc, instret, start, RunOK, err)
			}
			c.mret()
			next = c.mepc.V
		case OpWFI:
			if !c.PendingIRQ() {
				return c.decExit(mask, next, instret+1, start, RunWFI, nil)
			}
		case OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI:
			// CSR and register tags are both front-end-owned and exact, so the
			// inline CSR path runs unchanged; only the flag cache needs syncing.
			c.PC, c.Instret = pc, instret
			trapped, err := c.csrOp(i, pc)
			pc, instret = c.PC, c.Instret
			if err != nil {
				return c.decExit(mask, pc, instret, start, RunOK, err)
			}
			if trapped {
				continue
			}
			if i.Rd != 0 {
				mask = setLive(mask, i.Rd, r[i.Rd].T, d.def)
			}
		default:
			c.PC, c.Instret = pc, instret
			err := c.trap(trapCause(i.Op, w, pc))
			pc, instret = c.PC, c.Instret
			if err != nil {
				return c.decExit(mask, pc, instret, start, RunOK, err)
			}
			continue
		}
		if c.FR != nil {
			// Flight capture, hand-inlined (see flightcap.go).
			fl := flightFlags[i.Op]
			if next != pc+4 {
				fl |= flight.FlagTaken
			}
			if i.Rd != 0 && r[i.Rd].T != d.def {
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
		pc = next
	}
	return c.decExit(mask, pc, instret, start, RunOK, nil)
}

// decExit is exit for the filtered loop: it also writes the register flag
// cache back.
func (c *TaintCore) decExit(mask uint32, pc uint32, instret, start uint64, st RunStatus, err error) (uint64, RunStatus, error) {
	c.dec.mask = mask
	return c.exit(pc, instret, start, st, err)
}

// classifySpan rescans the Lazy blocks spanned by a size-byte access at RAM
// offset a, so the exact paths below work on classified blocks.
func (d *decState) classifySpan(c *TaintCore, a, size uint32) {
	b0, b1 := a>>decBlockShift, (a+size-1)>>decBlockShift
	if d.bstate[b0] == bsLazy {
		d.rescanBlock(c, b0)
	}
	if b1 != b0 && d.bstate[b1] == bsLazy {
		d.rescanBlock(c, b1)
	}
}

// decLoadExact is the filtered-mode load of size bytes at RAM offset a once
// the access missed every flag-cache tier: classify Lazy blocks first, then
// fold the per-byte tags.
func (c *TaintCore) decLoadExact(a, size uint32) (uint32, core.Tag) {
	c.dec.classifySpan(c, a, size)
	switch size {
	case 1:
		b := c.ram[a]
		return uint32(b.V), b.T
	case 2:
		b0, b1 := c.ram[a], c.ram[a+1]
		return uint32(b0.V) | uint32(b1.V)<<8, core.Fold2(c.lat, b0, b1)
	default:
		b0, b1, b2, b3 := c.ram[a], c.ram[a+1], c.ram[a+2], c.ram[a+3]
		return uint32(b0.V) | uint32(b1.V)<<8 | uint32(b2.V)<<16 | uint32(b3.V)<<24,
			core.Fold4(c.lat, b0, b1, b2, b3)
	}
}

// decStoreExact is the filtered-mode store's exact path at RAM offset a:
// classify Lazy blocks first (so the non-default counts the spread
// maintains are exact), then spread the data tag per byte, maintaining the
// counts and the block states. A block whose last non-default
// byte dies re-arms to Clean — this is what restores full suppression after
// taint death.
func (c *TaintCore) decStoreExact(a, size uint32, val uint32, t core.Tag) {
	d := c.dec
	d.classifySpan(c, a, size)
	for j := uint32(0); j < size; j++ {
		o := a + j
		old := c.ram[o].T
		c.ram[o] = core.TByte{V: byte(val >> (8 * j)), T: t}
		if old == t {
			continue
		}
		b := o >> decBlockShift
		if old == d.def {
			d.nonDef[b]++
		} else if t == d.def {
			d.nonDef[b]--
		}
		was := d.bstate[b]
		if d.nonDef[b] == 0 {
			if was != bsClean {
				d.bstate[b] = bsClean
				d.dirtyBlocks--
				d.cleanedTotal++
			}
		} else {
			if was == bsClean {
				d.dirtyBlocks++
			}
			d.bstate[b] = bsExact
		}
	}
}
