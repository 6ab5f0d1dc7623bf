package vpdift_test

import (
	"errors"
	"strings"
	"testing"

	"vpdift"
)

func TestPublicQuickstartFlow(t *testing.T) {
	img, err := vpdift.BuildProgram(`
main:
	la t0, secret
	lw a0, 0(t0)
	li t0, UART_BASE
	sw a0, UART_TX(t0)
	li a0, 0
	ret
	.data
	.align 2
secret:
	.word 0x11223344
`)
	if err != nil {
		t.Fatal(err)
	}
	lat := vpdift.IFP1()
	lc, hc := lat.MustTag(vpdift.ClassLC), lat.MustTag(vpdift.ClassHC)
	secret := img.MustSymbol("secret")
	pol := vpdift.NewPolicy(lat, lc).
		WithOutput("uart0.tx", lc).
		WithRegion(vpdift.RegionRule{
			Name: "secret", Start: secret, End: secret + 4,
			Classify: true, Class: hc,
		})
	pl, err := vpdift.NewPlatform(
		vpdift.WithPolicy(pol),
		vpdift.WithObserver(vpdift.NewObserver()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	res, runErr := pl.Run(vpdift.Forever)
	var v *vpdift.Violation
	if !errors.As(runErr, &v) {
		t.Fatalf("want violation, got %v", runErr)
	}
	if v.Kind != vpdift.KindOutputClearance {
		t.Errorf("kind = %v", v.Kind)
	}
	if res.Violation != v {
		t.Error("Result.Violation must be the wrapped violation")
	}
	if len(v.Provenance) == 0 {
		t.Error("observer attached: violation must carry a provenance chain")
	}
	if res.Metrics["checks.output"] == 0 {
		t.Error("metrics must count the failed output check")
	}
}

func TestPublicBaselinePlatform(t *testing.T) {
	img, err := vpdift.BuildProgram(`
main:
	la a0, msg
	addi sp, sp, -16
	sw ra, 12(sp)
	call uart_puts
	li a0, 5
	lw ra, 12(sp)
	addi sp, sp, 16
	ret
	.data
msg:	.asciz "public api"
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := vpdift.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(vpdift.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(pl.UART.Output()); got != "public api" {
		t.Errorf("uart = %q", got)
	}
	if !res.Exited || res.ExitCode != 5 {
		t.Errorf("result = %+v", res)
	}
	if res.Instret == 0 || res.Metrics["sim.instret"] != res.Instret {
		t.Errorf("instret gauge = %d vs %d", res.Metrics["sim.instret"], res.Instret)
	}
	if pl.IsDIFT() {
		t.Error("baseline must not be DIFT")
	}
}

func TestPublicLatticeConstruction(t *testing.T) {
	l, err := vpdift.NewLattice(
		[]string{"PUBLIC", "INTERNAL", "SECRET"},
		[][2]string{{"PUBLIC", "INTERNAL"}, {"INTERNAL", "SECRET"}})
	if err != nil {
		t.Fatal(err)
	}
	pub := l.MustTag("PUBLIC")
	sec := l.MustTag("SECRET")
	if !l.AllowedFlow(pub, sec) || l.AllowedFlow(sec, pub) {
		t.Error("three-level lattice flows wrong")
	}
	if top, ok := l.Top(); !ok || top != sec {
		t.Error("top must be SECRET")
	}

	prod, err := vpdift.Product(vpdift.IFP1(), vpdift.IFP2())
	if err != nil || prod.Size() != 4 {
		t.Errorf("product: %v size=%d", err, prod.Size())
	}
	pb, err := vpdift.PerByteKeyIntegrity(4)
	if err != nil || pb.Size() != 6 {
		t.Errorf("per-byte: %v", err)
	}
}

func TestPublicAssembler(t *testing.T) {
	img, err := vpdift.Assemble("start:\n\tnop\n\tj start\n", vpdift.AsmOptions{Base: 0x80000000})
	if err != nil {
		t.Fatal(err)
	}
	if img.TextWords() != 2 || img.Base != 0x80000000 {
		t.Errorf("img = %v", img)
	}
	if _, err := vpdift.Assemble("bogus!\n", vpdift.AsmOptions{}); err == nil {
		t.Error("bad source must fail")
	}
}

func TestPublicMemoryMapConstants(t *testing.T) {
	// The facade constants must match the guest runtime equates.
	img, err := vpdift.BuildProgram(`
main:
	li a0, 0
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	for sym, want := range map[string]uint32{
		"RAM_BASE":     vpdift.RAMBase,
		"UART_BASE":    vpdift.UARTBase,
		"SENSOR_BASE":  vpdift.SensorBase,
		"CAN_BASE":     vpdift.CANBase,
		"AES_BASE":     vpdift.AESBase,
		"DMA_BASE":     vpdift.DMABase,
		"CLINT_BASE":   vpdift.CLINTBase,
		"INTC_BASE":    vpdift.IntCBase,
		"SYSCTRL_BASE": vpdift.SysCtrlBase,
	} {
		if got := img.MustSymbol(sym); got != want {
			t.Errorf("%s = 0x%x, facade says 0x%x", sym, got, want)
		}
	}
}

func TestPublicViolationRendering(t *testing.T) {
	l := vpdift.IFP2()
	pol := vpdift.NewPolicy(l, l.MustTag(vpdift.ClassLI)).
		WithFetchClearance(l.MustTag(vpdift.ClassHI))
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
	// Error text must name classes, not raw tags.
	img, err := vpdift.BuildProgram(`
main:
	la t0, blob
	jr t0
	.data
	.align 2
blob:
	.word 0x00000013
`)
	if err != nil {
		t.Fatal(err)
	}
	pol.WithRegion(vpdift.RegionRule{
		Name: "text", Start: img.Base, End: img.Base + uint32(len(img.Text)),
		Classify: true, Class: l.MustTag(vpdift.ClassHI),
	})
	pl, err := vpdift.NewPlatform(vpdift.WithPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	_, runErr := pl.Run(vpdift.S)
	if runErr == nil || !strings.Contains(runErr.Error(), "LI -> HI") {
		t.Errorf("violation text = %v", runErr)
	}
}

func TestPublicTraceFacade(t *testing.T) {
	img, err := vpdift.BuildProgram(`
main:
	la a0, msg
	tail uart_puts
	.data
msg:	.asciz "traced\n"
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := &vpdift.Trace{
		Kernel: vpdift.NewKernelTrace(0),
		VCD:    vpdift.NewVCD(),
		Prof:   vpdift.NewProfiler(),
	}
	pl, err := vpdift.NewPlatform(
		vpdift.WithObserver(vpdift.NewObserver()),
		vpdift.WithTrace(tr),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(vpdift.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kernel.EventCount() == 0 {
		t.Error("kernel trace recorded nothing")
	}
	if tr.Prof.Total() == 0 {
		t.Error("profiler recorded nothing")
	}
	if hot, _ := tr.Prof.Hottest(); hot == "" {
		t.Error("no hottest function")
	}
	if res.Metrics["trace.kernel_events"] == 0 || res.Metrics["trace.prof_retired"] == 0 {
		t.Errorf("trace gauges missing from metrics: %v", res.Metrics)
	}
	var chrome strings.Builder
	if err := vpdift.WriteChromeTrace(&chrome, tr.Kernel, pl.Observer()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"kernel"`, `"name":"bus"`, `"name":"taint"`} {
		if !strings.Contains(chrome.String(), want) {
			t.Errorf("merged chrome trace missing process %s", want)
		}
	}
	tr.VCD.Sample(uint64(pl.Sim.Now()))
	var vcd strings.Builder
	if err := tr.VCD.Dump(&vcd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$enddefinitions $end") {
		t.Error("VCD header incomplete")
	}
}

func TestPublicCoverage(t *testing.T) {
	img, err := vpdift.BuildProgram(`
main:
	la t0, key
	li s0, 0
	li s1, 4
	li t1, 0
1:	lw t2, 0(t0)
	add t1, t1, t2
	addi t0, t0, 4
	addi s0, s0, 1
	blt s0, s1, 1b
	la t0, sum
	sw t1, 0(t0)
	li a0, 0
	ret
	.data
	.align 2
key:
	.word 1, 2, 3, 4
sum:
	.word 0
`)
	if err != nil {
		t.Fatal(err)
	}
	lat := vpdift.IFP1()
	lc, hc := lat.MustTag(vpdift.ClassLC), lat.MustTag(vpdift.ClassHC)
	key := img.MustSymbol("key")
	pol := vpdift.NewPolicy(lat, lc).
		WithOutput("uart0.tx", lc).
		WithRegion(vpdift.RegionRule{
			Name: "key", Start: key, End: key + 16,
			Classify: true, Class: hc,
		})
	cov := vpdift.NewCoverage()
	pl, err := vpdift.NewPlatform(vpdift.WithPolicy(pol), vpdift.WithCoverage(cov))
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(vpdift.Forever)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exited || res.ExitCode != 0 {
		t.Fatalf("guest exited=%v code=%d", res.Exited, res.ExitCode)
	}
	s := cov.Guest.Stats()
	if s.InsnsCovered == 0 || s.BlocksCovered == 0 || s.EdgesCovered == 0 {
		t.Fatalf("guest coverage recorded nothing: %+v", s)
	}
	if cov.Taint.EverTainted() == 0 {
		t.Error("taint heatmap empty despite the classified key region")
	}
	if !cov.Audit.Configured() {
		t.Error("policy audit not configured despite WithPolicy")
	}
	if res.Metrics["cover.guest_insns_covered"] == 0 ||
		res.Metrics["cover.taint_ever_bytes"] == 0 {
		t.Errorf("cover gauges missing from metrics: %v", res.Metrics)
	}
	var rep strings.Builder
	if err := cov.Guest.WriteReport(&rep, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "main:") {
		t.Errorf("coverage report lacks the entry symbol:\n%s", rep.String())
	}
}
