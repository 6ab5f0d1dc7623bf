package rv32

import (
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/periph"
	"vpdift/internal/tlm"
)

const testUART = 0x10000000

// mmioBus maps a UART and installs the flight recorder's bus mark as the
// trace hook, as a platform does, so the guards below cover the payload's
// consumers on the production path.
func mmioBus(lat *core.Lattice, def core.Tag) *tlm.Bus {
	bus := tlm.NewBus()
	uart := periph.NewUART(&periph.Env{Sim: kernel.New(), Lat: lat, Default: def}, "uart0", func(bool) {})
	bus.MustMap("uart0", testUART, periph.UARTSize, uart)
	fr := flight.New(64)
	bus.Trace = func(name string, p *tlm.Payload) {
		fr.MarkBus(0, name, p.Addr, p.Cmd == tlm.Write, len(p.Data))
	}
	return bus
}

// TestMMIOAccessAllocatesNothing pins the bus path of both cores at zero
// allocations per access: a polling guest reads a status register in a
// loop, and every access used to heap-allocate its transaction.
func TestMMIOAccessAllocatesNothing(t *testing.T) {
	status := uint32(testUART + periph.UARTStatus)
	var delay kernel.Time

	c := NewCore(mem.NewPlain(testRAMSize), testRAMBase, mmioBus(core.IFP1(), 0))
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.loadBus(status, 4, &delay, testRAMBase); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Core status load: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.storeBus(status, 0, 4, &delay, testRAMBase); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Core status store: %v allocs, want 0", n)
	}

	l := core.IFP1()
	lc := l.MustTag(core.ClassLC)
	tc := NewTaintCore(mem.New(testRAMSize, lc), testRAMBase, mmioBus(l, lc), core.NewPolicy(l, lc))
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tc.loadBus(status, 4, &delay, testRAMBase); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TaintCore status load: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := tc.storeBus(status, 4, core.W(0, lc), &delay, testRAMBase); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TaintCore status store: %v allocs, want 0", n)
	}
}
