package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/online"
)

// OnlineRow aggregates one online manager over the protocol runs.
type OnlineRow struct {
	Label   string
	Service metrics.Summary // fraction of arrivals placed
	Util    metrics.Summary // time-weighted utilization
	Frag    metrics.Summary // mean free-space fragmentation
}

// FormatOnlineRows renders the online comparison table.
func FormatOnlineRows(title string, rows []OnlineRow) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-28s %-18s %-18s %s\n",
		"Manager", "Service Level", "Mean Util.", "Mean Fragmentation")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %5.1f%% ± %4.1f      %5.1f%% ± %4.1f      %.2f\n",
			r.Label, r.Service.Mean*100, r.Service.CI95()*100,
			r.Util.Mean*100, r.Util.CI95()*100, r.Frag.Mean)
	}
	return sb.String()
}

// OnlineComparison runs the online-placement protocol: per seeded run, a
// task stream is drawn and every space-management policy serves it on
// the Table-I region. It quantifies the related-work axes of the paper
// (first-fit vs MER best-fit free-space management, 1D slots vs 2D
// placement, and design alternatives in the online setting).
func OnlineComparison(cfg RunConfig, stream online.StreamConfig) ([]OnlineRow, error) {
	cfg = cfg.defaults()
	if stream.Tasks == 0 {
		// Saturating default for the Table-I region: ~60 concurrent
		// tasks of 10–60 CLBs keep the region contended so the policies
		// separate on service level, not just fragmentation.
		stream = online.StreamConfig{
			Tasks:            200,
			MeanInterarrival: 2,
			MeanDuration:     120,
		}
		stream.Library.CLBMin, stream.Library.CLBMax = 10, 60
		stream.Library.BRAMMax = 3
		stream.Library.Alternatives = 4
		stream.Library.NumModules = 1
	}
	managers := online.Managers()
	acc := make([]struct{ service, util, frag []float64 }, len(managers))

	for run := 0; run < cfg.Runs; run++ {
		tasks, err := online.GenerateStream(stream, rand.New(rand.NewSource(cfg.Seed+int64(run))))
		if err != nil {
			return nil, fmt.Errorf("experiments: online run %d: %w", run, err)
		}
		for mi, mgr := range managers {
			st, err := online.Simulate(cfg.Region, mgr, tasks, fabric.DefaultFrameModel(), nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: online run %d (%s): %w", run, mgr.Name(), err)
			}
			acc[mi].service = append(acc[mi].service, st.ServiceLevel)
			acc[mi].util = append(acc[mi].util, st.MeanUtil)
			acc[mi].frag = append(acc[mi].frag, st.MeanFrag)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "online run %d/%d %s: %v\n", run+1, cfg.Runs, mgr.Name(), st)
			}
		}
	}

	rows := make([]OnlineRow, len(managers))
	for mi, mgr := range managers {
		rows[mi] = OnlineRow{
			Label:   mgr.Name(),
			Service: metrics.Summarize(acc[mi].service),
			Util:    metrics.Summarize(acc[mi].util),
			Frag:    metrics.Summarize(acc[mi].frag),
		}
	}
	return rows, nil
}
