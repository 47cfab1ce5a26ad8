// Package baseline implements the heuristic placers the paper's related
// work section positions against the constraint-programming approach:
// first-fit and bottom-left-decreasing online-style packers, a best-fit
// variant, and a simulated-annealing optimiser. They pack onto the
// online engine's occupancy, online.Space, through its one greedy scan,
// FirstFree, so heterogeneity is handled identically to the core placer
// and the online managers, and they report results in the same Result
// type, making head-to-head utilization comparisons direct.
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/online"
)

// Algorithm selects a baseline placer.
type Algorithm uint8

// Baseline algorithms.
const (
	// FirstFit places modules in input order at the bottom-left-most
	// feasible anchor.
	FirstFit Algorithm = iota
	// BottomLeftDecreasing sorts modules by size (largest first) and
	// then first-fits them.
	BottomLeftDecreasing
	// BestFit places each module (input order) at the anchor minimising
	// the resulting occupied height.
	BestFit
	// Annealing refines a bottom-left-decreasing start by simulated
	// annealing over single-module moves.
	Annealing
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case FirstFit:
		return "first-fit"
	case BottomLeftDecreasing:
		return "bottom-left-decreasing"
	case BestFit:
		return "best-fit"
	case Annealing:
		return "annealing"
	}
	return "unknown"
}

// Algorithms lists all baseline placers.
func Algorithms() []Algorithm {
	return []Algorithm{FirstFit, BottomLeftDecreasing, BestFit, Annealing}
}

// Options configures baseline placement.
type Options struct {
	// UseAlternatives lets the heuristic choose among all design
	// alternatives of a module; otherwise only the primary shape is
	// used.
	UseAlternatives bool
	// Seed drives the annealing random source.
	Seed int64
	// Iterations bounds annealing moves (default 20000).
	Iterations int
}

// shapes returns how many of m's shapes the heuristic may use.
func (o Options) shapes(m *module.Module) int {
	if o.UseAlternatives {
		return m.NumShapes()
	}
	return 1
}

// resident is placement i as an entry of the occupancy.
func resident(i int, p core.Placement) online.Resident {
	return online.Resident{ID: online.TaskID(i), Module: p.Module, Shape: p.ShapeIndex, At: p.At}
}

// bestFit returns the feasible (shape, anchor) of m minimising
// (resulting top, y, x, shape): the minimum over each shape's first
// free anchor, since a shape's resulting top only grows with its row.
func bestFit(sp *online.Space, m *module.Module, n, currentTop int) (online.Placement, bool) {
	var best online.Placement
	bestTop, found := 0, false
	for si := 0; si < n; si++ {
		s := m.Shape(si)
		within := sp.Bounds()
		if found {
			within.MaxY = bestTop - s.H() + 1 // higher anchors end above bestTop
		}
		at, ok := sp.FirstFree(s, within)
		if !ok {
			continue
		}
		top := max(at.Y+s.H(), currentTop)
		if !found || top < bestTop || top == bestTop && at.Less(best.At) {
			best, bestTop, found = online.Placement{Shape: si, At: at}, top, true
		}
	}
	return best, found
}

// Place runs the selected baseline and returns a core.Result (with
// Optimal always false: these are heuristics).
func Place(region *fabric.Region, mods []*module.Module, alg Algorithm, opts Options) (*core.Result, error) {
	start := time.Now()
	if len(mods) == 0 {
		return nil, fmt.Errorf("baseline: no modules to place")
	}
	sp := online.NewSpace(region)
	ff := &online.FirstFit{UseAlternatives: opts.UseAlternatives}
	// A module that does not fit the empty region can never be placed.
	for _, m := range mods {
		if _, ok := ff.TryPlace(sp, m); !ok {
			return nil, fmt.Errorf("baseline: module %s has no feasible placement", m.Name())
		}
	}

	order := make([]int, len(mods))
	for i := range order {
		order[i] = i
	}
	if alg == BottomLeftDecreasing || alg == Annealing {
		sortBySizeDesc(order, mods)
	}

	placements := make([]core.Placement, len(mods))
	placedOK := true
	currentTop := 0
	for _, i := range order {
		var p online.Placement
		var ok bool
		if alg == BestFit {
			p, ok = bestFit(sp, mods[i], opts.shapes(mods[i]), currentTop)
		} else {
			p, ok = ff.TryPlace(sp, mods[i])
		}
		if !ok {
			placedOK = false
			break
		}
		placements[i] = core.Placement{Module: mods[i], ShapeIndex: p.Shape, At: p.At}
		sp.Add(resident(i, placements[i]))
		currentTop = max(currentTop, placements[i].Top())
	}

	res := &core.Result{}
	if placedOK {
		res.Found = true
		res.Placements = placements
		if alg == Annealing {
			anneal(sp, placements, opts)
		}
		res.Height = maxTop(placements)
		res.Utilization = metrics.Utilization(region, res.Occupancy(region))
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func sortBySizeDesc(order []int, mods []*module.Module) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && mods[order[j]].MinSize() > mods[order[j-1]].MinSize(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func maxTop(ps []core.Placement) int {
	top := 0
	for _, p := range ps {
		if t := p.Top(); t > top {
			top = t
		}
	}
	return top
}

// anneal refines placements in-place by simulated annealing: random
// single-module relocations, accepted by the Metropolis criterion on a
// cost mixing occupied height (dominant) and total module elevation
// (gradient within equal heights).
func anneal(sp *online.Space, placements []core.Placement, opts Options) {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 20000
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	bounds := sp.Bounds()

	cost := func() float64 {
		h := 0
		sumTop := 0
		for _, p := range placements {
			t := p.Top()
			if t > h {
				h = t
			}
			sumTop += t
		}
		return float64(h)*1000 + float64(sumTop)
	}

	cur := cost()
	t0 := 200.0
	for it := 0; it < iters; it++ {
		temp := t0 * math.Pow(0.001/t0, float64(it)/float64(iters))
		i := rng.Intn(len(placements))
		old := placements[i]
		sp.Remove(online.TaskID(i))

		// Draw a random candidate anchor biased low: pick a random row
		// from the lower half more often.
		si := rng.Intn(opts.shapes(old.Module))
		x := rng.Intn(bounds.W())
		y := rng.Intn(bounds.H())
		if rng.Intn(2) == 0 {
			y = rng.Intn(bounds.H()/2 + 1)
		}
		at := grid.Pt(x, y)
		if !sp.Fits(old.Module.Shape(si), at) {
			sp.Add(resident(i, old))
			continue
		}
		placements[i] = core.Placement{Module: old.Module, ShapeIndex: si, At: at}
		sp.Add(resident(i, placements[i]))
		nxt := cost()
		if nxt <= cur || rng.Float64() < math.Exp((cur-nxt)/temp) {
			cur = nxt
			continue
		}
		// Reject: restore.
		sp.Remove(online.TaskID(i))
		sp.Add(resident(i, old))
		placements[i] = old
	}
}
