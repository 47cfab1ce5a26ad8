package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/online"
	"repro/internal/workload"
)

// quickCfg is a reduced-scale protocol for tests: 2 runs, 8 modules,
// fast convergence.
func quickCfg() RunConfig {
	return RunConfig{
		Runs: 2,
		Seed: 1,
		Workload: workload.Config{
			NumModules: 8,
			CLBMin:     10, CLBMax: 40,
			BRAMMin: 0, BRAMMax: 3,
			Alternatives: 4,
		},
		StallNodes: 400,
		Timeout:    10 * time.Second,
	}
}

func TestTableIDeviceStructure(t *testing.T) {
	dev := TableIDevice()
	if dev.W() != 72 || dev.H() != 60 {
		t.Fatalf("device %dx%d", dev.W(), dev.H())
	}
	h := dev.Histogram()
	if h[fabric.BRAM] == 0 || h[fabric.DSP] == 0 || h[fabric.Clock] == 0 {
		t.Fatalf("missing resource kinds: %v", h)
	}
	// Clock-row interruption present in BRAM columns.
	if dev.KindAt(6, 15) != fabric.Clock {
		t.Fatalf("no clock interruption at (6,15): %v", dev.KindAt(6, 15))
	}
	if dev.KindAt(6, 0) != fabric.BRAM {
		t.Fatalf("BRAM column missing: %v", dev.KindAt(6, 0))
	}
}

func TestRunTableIQuick(t *testing.T) {
	res, err := RunTableI(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if res.With.Failures > 0 || res.Without.Failures > 0 {
		t.Fatalf("failures: with=%d without=%d", res.With.Failures, res.Without.Failures)
	}
	// The headline shape: alternatives never hurt utilization (with our
	// optimiser they strictly help on this workload).
	if res.With.Util.Mean < res.Without.Util.Mean {
		t.Fatalf("alternatives lowered utilization: %.3f vs %.3f",
			res.With.Util.Mean, res.Without.Util.Mean)
	}
	// Shapes in play: 8 modules -> ~32 with, 8 without.
	if res.Without.Shapes != 8 || res.With.Shapes < 24 {
		t.Fatalf("shape counts: with=%.1f without=%.1f", res.With.Shapes, res.Without.Shapes)
	}
	out := res.Format()
	for _, want := range []string{"IMPACT OF MODULE DESIGN ALTERNATIVES", "No design alternatives", "Design alternatives", "Change"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if res.TimeRatio() <= 0 {
		t.Fatal("time ratio not positive")
	}
}

func TestRunTableIProgress(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	var sb strings.Builder
	cfg.Progress = &sb
	if _, err := RunTableI(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "run  1/1") {
		t.Fatalf("progress output: %q", sb.String())
	}
}

func TestFig1(t *testing.T) {
	out := Fig1()
	if !strings.Contains(out, "5 design alternatives") {
		t.Fatalf("Fig1:\n%s", out)
	}
	if !strings.Contains(out, "CLB:18 BRAM:2") {
		t.Fatalf("Fig1 resources line missing:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	out, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "With design alternatives") ||
		!strings.Contains(out, "Without design alternatives") {
		t.Fatalf("Fig3 captions missing:\n%s", out)
	}
	if !strings.Contains(out, "A") {
		t.Fatal("Fig3 has no placed modules")
	}
}

func TestFig4(t *testing.T) {
	out, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range []string{"(a)", "(b)", "(c)", "(d)"} {
		if !strings.Contains(out, panel) {
			t.Fatalf("Fig4 missing panel %s:\n%s", panel, out)
		}
	}
	if !strings.Contains(out, "*") {
		t.Fatal("Fig4 anchor mask empty")
	}
	if !strings.Contains(out, "#") {
		t.Fatal("Fig4 static mask missing")
	}
}

func TestFig5(t *testing.T) {
	out, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "With design alternatives") || !strings.Contains(out, "L") {
		t.Fatalf("Fig5 output:\n%s", out)
	}
}

func TestAlternativeCountSweepQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	rows, err := AlternativeCountSweep(cfg, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Arm.Util.Mean < rows[0].Arm.Util.Mean {
		t.Fatalf("more alternatives lowered utilization: %v", rows)
	}
	out := FormatRows("sweep", rows)
	if !strings.Contains(out, "1 alternatives") || !strings.Contains(out, "4 alternatives") {
		t.Fatalf("FormatRows:\n%s", out)
	}
}

func TestHeterogeneitySweepQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	rows, err := HeterogeneitySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The homogeneous fabric offers strictly more anchors, so the same
	// workload never needs more rows there. (Utilization is not directly
	// comparable across the two: the heterogeneous region has fewer
	// placeable tiles per row in the denominator.)
	if rows[0].Arm.Height.Mean > rows[1].Arm.Height.Mean {
		t.Fatalf("homogeneous needed more rows than heterogeneous: %+v", rows)
	}
}

func TestMaskedResourcesComparisonQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	rows, err := MaskedResourcesComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	native, masked := rows[0].Arm, rows[1].Arm
	// Masking pays extra CLBs: the occupied extent must grow.
	if masked.Height.Mean <= native.Height.Mean {
		t.Fatalf("masking did not increase height: native=%.1f masked=%.1f",
			native.Height.Mean, masked.Height.Mean)
	}
}

func TestStrategySweepQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	cfg.Workload.NumModules = 6
	rows, err := StrategySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Arm.Failures > 0 {
			t.Fatalf("strategy %s failed placements", r.Label)
		}
	}
}

func TestBaselineComparisonQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	rows, err := BaselineComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // CP + 4 baselines
		t.Fatalf("rows = %d", len(rows))
	}
	cp := rows[0].Arm
	for _, r := range rows[1:] {
		if r.Arm.Failures == 0 && cp.Util.Mean < r.Arm.Util.Mean-1e-9 {
			t.Fatalf("CP (%.3f) beaten by %s (%.3f)", cp.Util.Mean, r.Label, r.Arm.Util.Mean)
		}
	}
}

func TestOnlineComparisonQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	stream := online.StreamConfig{Tasks: 40, MeanInterarrival: 2, MeanDuration: 80}
	stream.Library.CLBMin, stream.Library.CLBMax = 10, 50
	stream.Library.BRAMMax = 3
	stream.Library.Alternatives = 4
	stream.Library.NumModules = 1
	rows, err := OnlineComparison(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]OnlineRow{}
	for _, r := range rows {
		byName[r.Label] = r
	}
	// 1D slots must not beat 2D first-fit on service level.
	if byName["1d-slots"].Service.Mean > byName["first-fit"].Service.Mean {
		t.Fatalf("1d slots beat 2D placement: %+v", rows)
	}
	out := FormatOnlineRows("t", rows)
	if !strings.Contains(out, "1d-slots") || !strings.Contains(out, "Service Level") {
		t.Fatalf("FormatOnlineRows:\n%s", out)
	}
}

func TestRunTableICountsFailures(t *testing.T) {
	// A region far too small for the workload: placements exist for
	// individual modules but not jointly, so runs count as failures.
	cfg := quickCfg()
	cfg.Runs = 1
	cfg.Workload = workload.Config{
		NumModules: 6, CLBMin: 30, CLBMax: 40, NoBRAM: true, Alternatives: 2,
	}
	cfg.Region = fabric.Homogeneous(12, 14).FullRegion()
	res, err := RunTableI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.With.Failures == 0 || res.Without.Failures == 0 {
		t.Fatalf("expected failures on an overfull region: %+v / %+v",
			res.With.Failures, res.Without.Failures)
	}
	// Format still renders with zero samples.
	if res.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestScheduleComparisonQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	cfg.StallNodes = 200
	rows, err := ScheduleComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fresh, persistent := rows[0], rows[1]
	// Persistent planning never reconfigures survivors: its switch cost
	// is at most fresh's on the same schedules.
	if persistent.SwitchMS.Mean > fresh.SwitchMS.Mean+1e-9 {
		t.Fatalf("persistent switch %.3fms > fresh %.3fms",
			persistent.SwitchMS.Mean, fresh.SwitchMS.Mean)
	}
	out := FormatScheduleRows("t", rows)
	if !strings.Contains(out, "persistent") || !strings.Contains(out, "Reconfig Overhead") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestRelocationComparisonQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = 1
	cfg.Workload.NumModules = 5
	rows, err := RelocationComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	native, masked := rows[0], rows[1]
	// Masked CLB-only modules are more relocatable: higher one-bitstream
	// coverage and more anchors.
	if masked.Coverage.Mean < native.Coverage.Mean {
		t.Fatalf("masked coverage %.2f < native %.2f", masked.Coverage.Mean, native.Coverage.Mean)
	}
	if masked.Anchors.Mean <= native.Anchors.Mean {
		t.Fatalf("masked anchors %.1f <= native %.1f", masked.Anchors.Mean, native.Anchors.Mean)
	}
	out := FormatRelocationRows("t", rows)
	if !strings.Contains(out, "One-Bitstream") {
		t.Fatalf("format:\n%s", out)
	}
}
