package sim

import (
	"testing"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/ise"
	"mrts/internal/trace"
)

// testWorld builds a tiny application and trace with fully predictable
// numbers: one block, one kernel (RISC 100 cycles), one CG ISE (latency 40,
// reconfig 15 cycles).
func testWorld(t *testing.T) (*ise.Application, *trace.Trace) {
	t.Helper()
	k := &ise.Kernel{
		ID: "k", RISCLatency: 100,
		ISEs: []*ise.ISE{{
			ID: "k.cg1", Kernel: "k",
			DataPaths: []ise.DataPath{{ID: "k_cg", Kind: arch.CG, CGs: 1}},
			Latencies: []arch.Cycles{40},
		}},
	}
	blk := &ise.FunctionalBlock{ID: "b", Kernels: []*ise.Kernel{k}}
	app, err := ise.NewApplication("tiny", blk)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		App: "tiny",
		Iterations: []trace.Iteration{
			{Block: "b", Seq: 0, Prologue: 50, Loads: []trace.KernelLoad{{Kernel: "k", E: 10, GapSW: 5}}},
			{Block: "b", Seq: 1, Prologue: 50, Loads: []trace.KernelLoad{{Kernel: "k", E: 10, GapSW: 5}}},
		},
	}
	if err := tr.BuildProfile(app); err != nil {
		t.Fatal(err)
	}
	return app, tr
}

func TestRunRISCAnalytic(t *testing.T) {
	app, tr := testWorld(t)
	rep, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	// 2 iterations x (prologue 50 + 10 x (gap 5 + RISC 100)).
	want := arch.Cycles(2 * (50 + 10*(5+100)))
	if rep.TotalCycles != want {
		t.Errorf("RISC total = %d, want %d", rep.TotalCycles, want)
	}
	if rep.Executions != 20 {
		t.Errorf("executions = %d, want 20", rep.Executions)
	}
	if rep.ModeExecs[ecu.RISC] != 20 {
		t.Errorf("RISC executions = %d", rep.ModeExecs[ecu.RISC])
	}
}

func TestRunConservation(t *testing.T) {
	app, tr := testWorld(t)
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	rep, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle accounting must add up exactly.
	sum := rep.SoftwareCycles + rep.KernelCycles + rep.OverheadCycles
	if rep.TotalCycles != sum {
		t.Errorf("total %d != software %d + kernels %d + overhead %d",
			rep.TotalCycles, rep.SoftwareCycles, rep.KernelCycles, rep.OverheadCycles)
	}
	var modeSum arch.Cycles
	for _, c := range rep.ModeCycles {
		modeSum += c
	}
	if modeSum != rep.KernelCycles {
		t.Errorf("mode cycles %d != kernel cycles %d", modeSum, rep.KernelCycles)
	}
	var blockSum arch.Cycles
	for _, c := range rep.BlockCycles {
		blockSum += c
	}
	if blockSum != rep.TotalCycles {
		t.Errorf("block cycles %d != total %d", blockSum, rep.TotalCycles)
	}
}

func TestRunAcceleratedBeatsRISC(t *testing.T) {
	app, tr := testWorld(t)
	ref, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	rep, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles >= ref.TotalCycles {
		t.Errorf("accelerated run (%d) not faster than RISC (%d)", rep.TotalCycles, ref.TotalCycles)
	}
	if s := rep.Speedup(ref); s <= 1 {
		t.Errorf("speedup = %v", s)
	}
	// Most executions should use the full ISE (reconfig is 15 cycles).
	if rep.ModeExecs[ecu.Full] < 15 {
		t.Errorf("full-ISE executions = %d, want most of 20", rep.ModeExecs[ecu.Full])
	}
}

func TestRunDeterministic(t *testing.T) {
	app, tr := testWorld(t)
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	r1, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running on the same policy instance must reset state and give
	// identical results.
	r2, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCycles != r2.TotalCycles || r1.Executions != r2.Executions {
		t.Errorf("runs differ: %d vs %d cycles", r1.TotalCycles, r2.TotalCycles)
	}
}

func TestRunValidatesTrace(t *testing.T) {
	app, tr := testWorld(t)
	tr.Iterations = append(tr.Iterations, trace.Iteration{Block: "missing"})
	if _, err := RunRISC(app, tr); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestRunPerBlockAccounting(t *testing.T) {
	app, tr := testWorld(t)
	rep, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlockIterations["b"] != 2 || rep.Iterations != 2 {
		t.Errorf("iterations = %d / %v", rep.Iterations, rep.BlockIterations)
	}
}

func TestModeShare(t *testing.T) {
	app, tr := testWorld(t)
	rep, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ModeShare(ecu.RISC); got != 1 {
		t.Errorf("RISC share = %v, want 1", got)
	}
	if got := rep.ModeShare(ecu.Full); got != 0 {
		t.Errorf("full share = %v, want 0", got)
	}
}

func TestObservationsReachMPU(t *testing.T) {
	// The MPU should learn from observations: after running iteration 1
	// with profile E=10, the forecast for the next trigger reflects it.
	app, tr := testWorld(t)
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	if _, err := Run(app, tr, m); err != nil {
		t.Fatal(err)
	}
	if m.Predictor().Len() == 0 {
		t.Error("MPU learned nothing from the run")
	}
}

func TestRunReserved(t *testing.T) {
	app, tr := testWorld(t)
	// Reserving the only CG-EDPE forces pure RISC execution.
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	rep, err := RunReserved(app, tr, m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModeExecs[ecu.Full] != 0 {
		t.Errorf("reserved fabric still executed %d full-ISE", rep.ModeExecs[ecu.Full])
	}
	ref, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Apart from selection overhead the run degenerates to RISC mode.
	if rep.KernelCycles != ref.KernelCycles {
		t.Errorf("kernel cycles %d != RISC %d under full reservation", rep.KernelCycles, ref.KernelCycles)
	}
	// An impossible reservation errors.
	if _, err := RunReserved(app, tr, m, 5, 0); err == nil {
		t.Error("over-budget reservation accepted")
	}
}

// TestStepAllocFree pins the dispatch loop's allocation budget: with the
// RISC-only policy and no observer, a warmed Stepper replays an iteration
// — merge cursor, kernel resolution, tracks and MPU observations included
// — without allocating.
func TestStepAllocFree(t *testing.T) {
	mk := func(id ise.KernelID, lat arch.Cycles) *ise.Kernel {
		return &ise.Kernel{ID: id, RISCLatency: lat}
	}
	blk := &ise.FunctionalBlock{ID: "b", Kernels: []*ise.Kernel{mk("x", 100), mk("y", 70), mk("z", 30)}}
	app, err := ise.NewApplication("alloc", blk)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{App: "alloc"}
	for i := 0; i < 200; i++ {
		tr.Iterations = append(tr.Iterations, trace.Iteration{
			Block: "b", Seq: i, Phase: []string{"", "p"}[i%2], Prologue: 50,
			Loads: []trace.KernelLoad{
				{Kernel: "x", E: 12, GapSW: 5},
				{Kernel: "y", E: 7, GapSW: 3},
				{Kernel: "x", E: 4, GapSW: 2},
				{Kernel: "z", E: 0},
			},
		})
	}
	if err := tr.BuildProfile(app); err != nil {
		t.Fatal(err)
	}
	s, err := NewStepper(app, tr, core.NewRISCOnly(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Step allocates %.1f times per iteration, want 0", allocs)
	}
}
