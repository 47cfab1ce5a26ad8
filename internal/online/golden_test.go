package online

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

// simulateGolden runs one golden configuration: greedy-only when replan
// is nil, CP replan under that budget otherwise.
func simulateGolden(region *fabric.Region, mgr Manager, tasks []Task, replan *core.Options) (*Stats, error) {
	return Simulate(region, mgr, tasks, fabric.DefaultFrameModel(), replan)
}

// TestSimulateGolden pins the statistics of one seeded stream on a
// fabric with BRAM columns, for every manager and for first-fit with CP
// replan, so a change to the online engine cannot silently move a
// placement, a rejection or a relocation schedule.
func TestSimulateGolden(t *testing.T) {
	region := (&fabric.Spec{Name: "golden", W: 16, H: 10, BRAMColumns: []int{3, 12}}).MustBuild().FullRegion()
	stream := StreamConfig{Tasks: 40, MeanInterarrival: 2, MeanDuration: 30}
	stream.Library.CLBMin, stream.Library.CLBMax = 4, 12
	stream.Library.BRAMMax = 1
	stream.Library.Alternatives = 4
	stream.Library.NumModules = 1
	tasks, err := GenerateStream(stream, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name   string
		mgr    Manager
		replan *core.Options
	}
	var runs []run
	for _, m := range Managers() {
		runs = append(runs, run{m.Name(), m, nil})
	}
	runs = append(runs, run{"first-fit+cp-replan", &FirstFit{UseAlternatives: true}, &core.Options{StallNodes: 50}})
	// TotalReconfig is in nanoseconds.
	want := map[string]Stats{
		"first-fit":                 {Accepted: 32, Rejected: 8, Moves: 0, ServiceLevel: 0.8, MeanUtil: 0.33739525139664805, PeakUtil: 0.7125, MeanFrag: 0.5758665351533396, TotalReconfig: 4027840},
		"first-fit+alternatives":    {Accepted: 37, Rejected: 3, Moves: 0, ServiceLevel: 0.925, MeanUtil: 0.37053072625698324, PeakUtil: 0.775, MeanFrag: 0.5894626317400987, TotalReconfig: 4976580},
		"mer-best-fit":              {Accepted: 30, Rejected: 10, Moves: 0, ServiceLevel: 0.75, MeanUtil: 0.3067737430167598, PeakUtil: 0.6125, MeanFrag: 0.5727802862320115, TotalReconfig: 3864660},
		"mer-best-fit+alternatives": {Accepted: 33, Rejected: 7, Moves: 0, ServiceLevel: 0.825, MeanUtil: 0.34022346368715084, PeakUtil: 0.7, MeanFrag: 0.5731683042429077, TotalReconfig: 4100000},
		"1d-slots":                  {Accepted: 10, Rejected: 30, Moves: 0, ServiceLevel: 0.25, MeanUtil: 0.10702054794520548, PeakUtil: 0.15, MeanFrag: 0.26540397422901973, TotalReconfig: 1498960},
		"first-fit+cp-replan":       {Accepted: 38, Rejected: 2, Moves: 10, ServiceLevel: 0.95, MeanUtil: 0.3755237430167598, PeakUtil: 0.775, MeanFrag: 0.5894626317400987, TotalReconfig: 6446840},
	}
	for _, r := range runs {
		st, err := simulateGolden(region, r.mgr, tasks, r.replan)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := Stats{
			Accepted: st.Accepted, Rejected: st.Rejected, Moves: st.Moves,
			ServiceLevel: st.ServiceLevel, MeanUtil: st.MeanUtil, PeakUtil: st.PeakUtil,
			MeanFrag: st.MeanFrag, TotalReconfig: st.TotalReconfig,
		}
		if got != want[r.name] {
			t.Errorf("%s:\n got %+v\nwant %+v", r.name, got, want[r.name])
		}
	}
}
