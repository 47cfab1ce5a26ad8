// Package online simulates online module placement on a reconfigurable
// region: tasks (module instances) arrive and depart at run time and a
// space manager decides, per arrival, where — and whether — the module
// can be placed. It implements free-space management (first-fit and
// maximal-empty-rectangle best-fit, after Bazargan et al. [4]) and 1D
// slot-style placement, all against the same heterogeneous fabric model
// as the offline placer and all through one greedy scan,
// Space.FirstFree. The occupied-space pole of the paper's
// classification (Ahmadinia et al. [5]) has no manager of its own: a
// row-major scan filtered to positions touching occupied space almost
// always chose first-fit's site (its row-major-first free anchor nearly
// always touches something), so "occupied-space" and "adjacency" name
// first-fit in sessions.
//
// The simulator measures service level (fraction of arrivals placed),
// time-weighted utilization and fragmentation, and configuration-port
// cost — the quantities that motivate the paper's offline,
// alternatives-aware approach.
package online

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/obs"
)

// TaskID identifies a task within one simulation.
type TaskID int

// Task is one module instance with an arrival time and a residency
// duration, in abstract time units.
type Task struct {
	ID       TaskID
	Module   *module.Module
	Arrive   int64
	Duration int64
}

// Placement is a manager's decision: which design alternative at which
// anchor.
type Placement struct {
	Shape int
	At    grid.Point
}

// Manager is an online placement policy: a site chooser over the
// engine's one occupancy. TryPlace reads sp and changes nothing; the
// engine validates the placement it returns and commits it.
type Manager interface {
	Name() string
	TryPlace(sp *Space, mod *module.Module) (Placement, bool)
}

// Stats aggregates one simulation run.
type Stats struct {
	Offered  int
	Accepted int
	Rejected int
	// ServiceLevel is Accepted/Offered — the paper's "amount of module
	// requests that can be fulfilled".
	ServiceLevel float64
	// MeanUtil is the time-weighted fraction of placeable tiles carrying
	// module logic while at least one task is resident.
	MeanUtil float64
	// PeakUtil is the maximum instantaneous utilization.
	PeakUtil float64
	// MeanFrag is the mean free-space fragmentation sampled at arrivals.
	MeanFrag float64
	// TotalReconfig is the summed configuration-port time of all
	// accepted placements and relocations.
	TotalReconfig time.Duration
	// Moves counts relocations of resident modules (defragmentation).
	Moves int
	// Horizon is the simulated time span.
	Horizon int64
}

// String summarises the stats.
func (s *Stats) String() string {
	return fmt.Sprintf("service=%.1f%% util=%.1f%% peak=%.1f%% frag=%.2f reconfig=%v (%d/%d accepted)",
		s.ServiceLevel*100, s.MeanUtil*100, s.PeakUtil*100, s.MeanFrag,
		s.TotalReconfig, s.Accepted, s.Offered)
}

// departure is a pending release in the event heap.
type departure struct {
	t  int64
	id TaskID
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }

// Less orders by departure time, breaking same-tick ties by task id so
// simultaneous departures release in a deterministic order rather than
// whatever heap-internal order the insertion sequence produced.
func (h departureHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].id < h[j].id
}
func (h departureHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x interface{}) { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate runs the task stream through the manager on region. The
// frame model prices accepted placements' reconfiguration; pass the zero
// FrameModel's replacement, fabric.DefaultFrameModel(), for realistic
// numbers. A nil replan budget places greedily only; a non-nil one lets
// a blocked arrival fall back to a CP replan of the whole residency
// under that budget (State.Place). The run is a State, so every manager
// decision and every relocation is validated before it is committed: an
// invalid or overlapping placement fails the run with an error — manager
// bugs must not masquerade as good service.
func Simulate(region *fabric.Region, mgr Manager, tasks []Task, fm fabric.FrameModel, replan *core.Options) (*Stats, error) {
	return SimulateObserved(region, mgr, tasks, fm, replan, nil)
}

// SimulateObserved is Simulate with instrumentation: when reg is
// non-nil, each arrival's placement-decision latency is recorded into
// per-outcome histograms (online_place_latency_seconds{outcome=...}),
// request/accept/reject/move totals plus the final service level and
// mean utilization are published under online_* metric names, and CP
// replans are counted (online_replans_total,
// online_replans_success_total) and timed (online_replan_seconds). A
// nil reg adds no overhead.
func SimulateObserved(region *fabric.Region, mgr Manager, tasks []Task, fm fabric.FrameModel, replan *core.Options, reg *obs.Registry) (*Stats, error) {
	var budget core.Options
	if replan != nil {
		budget = *replan
	}
	s, err := newState(region, mgr, fm, budget)
	if err != nil {
		return nil, err
	}
	s.reg = reg
	place := s.PlaceGreedy
	if replan != nil {
		place = s.Place
	}
	sorted := make([]Task, len(tasks))
	copy(sorted, tasks)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrive < sorted[j].Arrive })

	var deps departureHeap
	stats := &Stats{}
	placeable := region.PlaceableCount()
	var utilIntegral float64 // occupied-tiles × time
	var lastT int64
	var fragSamples []float64

	advance := func(t int64) {
		if t > lastT {
			utilIntegral += float64(s.sp.occ.Count()) * float64(t-lastT)
			lastT = t
		}
	}
	departUntil := func(t int64) {
		for len(deps) > 0 && deps[0].t <= t {
			d := heap.Pop(&deps).(departure)
			advance(d.t)
			s.Release(d.id)
		}
	}

	for _, task := range sorted {
		// Process departures up to the arrival instant (inclusive: a
		// task departing at t frees space for an arrival at t).
		departUntil(task.Arrive)
		advance(task.Arrive)

		stats.Offered++
		fragSamples = append(fragSamples, metrics.Fragmentation(region, s.sp.occ))
		var t0 time.Time
		if reg != nil {
			reg.Counter("online_requests_total").Inc()
			//solverlint:allow nondeterminism wall-clock telemetry only: the measured latency feeds a histogram, never a placement decision
			t0 = time.Now()
		}
		out, err := place(task.ID, task.Module)
		if err != nil {
			return nil, err
		}
		if reg != nil {
			outcome := "rejected"
			if out.Placed {
				outcome = "accepted"
			}
			//solverlint:allow nondeterminism wall-clock telemetry only: the measured latency feeds a histogram, never a placement decision
			reg.Histogram(`online_place_latency_seconds{outcome="` + outcome + `"}`).Observe(time.Since(t0).Seconds())
		}
		// A replan's relocations precede the newcomer's configuration
		// and are priced like any other reconfiguration.
		if len(out.Moves) > 0 {
			stats.Moves += len(out.Moves)
			reg.Counter("online_moves_total").Add(int64(len(out.Moves)))
		}
		stats.TotalReconfig += out.Reconfig
		if !out.Placed {
			stats.Rejected++
			continue
		}
		stats.Accepted++
		if u := float64(s.sp.occ.Count()) / float64(placeable); u > stats.PeakUtil {
			stats.PeakUtil = u
		}
		heap.Push(&deps, departure{t: task.Arrive + task.Duration, id: task.ID})
	}
	departUntil(math.MaxInt64)

	stats.Horizon = lastT
	if stats.Offered > 0 {
		stats.ServiceLevel = float64(stats.Accepted) / float64(stats.Offered)
	}
	if lastT > 0 && placeable > 0 {
		stats.MeanUtil = utilIntegral / (float64(placeable) * float64(lastT))
	}
	stats.MeanFrag = metrics.Summarize(fragSamples).Mean
	if reg != nil {
		reg.Counter("online_accepted_total").Add(int64(stats.Accepted))
		reg.Counter("online_rejected_total").Add(int64(stats.Rejected))
		reg.Gauge("online_service_level").Set(stats.ServiceLevel)
		reg.Gauge("online_mean_utilization").Set(stats.MeanUtil)
	}
	return stats, nil
}

// ValidatePlacement checks M_a, M_b and M_c for one online placement
// and returns the absolute tiles on success. It is the shared validity
// oracle: the engine uses it to audit managers and relocations, and
// loadgen's shadow revalidation to audit the service from the outside.
func ValidatePlacement(region *fabric.Region, occ *grid.Bitmap, m *module.Module, p Placement) ([]grid.Point, error) {
	if p.Shape < 0 || p.Shape >= m.NumShapes() {
		return nil, fmt.Errorf("shape index %d out of range", p.Shape)
	}
	shape := m.Shape(p.Shape)
	pts := make([]grid.Point, 0, shape.Size())
	for _, t := range shape.Tiles() {
		x, y := p.At.X+t.At.X, p.At.Y+t.At.Y
		if x < 0 || y < 0 || x >= region.W() || y >= region.H() {
			return nil, fmt.Errorf("tile (%d,%d) outside region", x, y)
		}
		if region.KindAt(x, y) != t.Kind {
			return nil, fmt.Errorf("tile (%d,%d) resource mismatch: %s on %s", x, y, t.Kind, region.KindAt(x, y))
		}
		if occ.Get(x, y) {
			return nil, fmt.Errorf("tile (%d,%d) already occupied", x, y)
		}
		pts = append(pts, grid.Pt(x, y))
	}
	return pts, nil
}
