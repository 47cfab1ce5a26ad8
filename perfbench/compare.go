package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The comparator reads the result files of two sets of untraced runs —
// a parent and a change, made with identical benchmark code and run
// length — and judges every workload × end-to-end metric against the
// bounds in BENCHMARK.json:
//
//	perfbench compare -bench BENCHMARK.json [-heldout SEED] BASE_DIR CHANGE_DIR
//
// Runs pair up by workload and seed. For each metric it prints each
// side's median and quartiles (Python's statistics.quantiles, n=4), the
// share of pairs the change won (ties count for neither side) and a
// verdict:
//
//	regression  the change's median is worse than the parent's by more than the bound
//	unresolved  a side's spread (IQR over median) exceeds the bound, and not every
//	            change run beats every parent run
//	better      at least ten pairs, the change won at least nine tenths of them,
//	            and the medians differ by more than the parent's IQR
//	same        none of the above
//
// The held-out seed's pair is left out of the statistics and shown on
// its own line: a claimed gain must hold on it too.

type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fl.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	heldout := fl.Int64("heldout", -1, "seed whose pair is reported apart from the statistics (-1: none)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] [-heldout SEED] BASE_DIR CHANGE_DIR")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	base, err := loadResults(fl.Arg(0))
	if err == nil {
		var change map[string]map[int64]*result
		if change, err = loadResults(fl.Arg(1)); err == nil {
			return compareSides(bench, base, change, *heldout)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

// loadResults reads the untraced result files of a directory, keyed by
// workload and seed.
func loadResults(dir string) (map[string]map[int64]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	out := map[string]map[int64]*result{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(raw, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[r.Meta.Workload] == nil {
			out[r.Meta.Workload] = map[int64]*result{}
		}
		out[r.Meta.Workload][r.Meta.Seed] = r
	}
	return out, nil
}

func compareSides(bench benchFile, base, change map[string]map[int64]*result, heldout int64) int {
	var names []string
	for w := range base {
		if change[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	regressions := 0
	for _, w := range names {
		var seeds []int64
		for s := range base[w] {
			if change[w][s] != nil && s != heldout {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		fmt.Printf("# %s: %d pairs (seeds %v)\n", w, len(seeds), seeds)
		fmt.Printf("%-12s %-28s %-28s %-7s %s\n", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict")
		for _, m := range bench.EndToEnd {
			var b, c []float64
			won, pairs := 0, 0
			for _, s := range seeds {
				bv, cv := base[w][s].EndToEnd[m.Name].V, change[w][s].EndToEnd[m.Name].V
				b, c = append(b, bv), append(c, cv)
				pairs++
				if better(cv, bv, m.Better) {
					won++
				}
			}
			if len(b) < 2 {
				fmt.Printf("%-12s needs at least two pairs\n", m.Name)
				continue
			}
			bq, cq := quartiles(b), quartiles(c)
			verdict := judge(b, c, bq, cq, m.Better, m.Bound, won, pairs)
			if verdict == "regression" {
				regressions++
			}
			fmt.Printf("%-12s %-28s %-28s %-7s %s\n", m.Name, fmtQ(bq), fmtQ(cq), fmt.Sprintf("%d/%d", won, pairs), verdict)
			if hb, hc := base[w][heldout], change[w][heldout]; hb != nil && hc != nil {
				bv, cv := hb.EndToEnd[m.Name].V, hc.EndToEnd[m.Name].V
				fmt.Printf("%-12s held-out seed %d: parent %.4g, change %.4g (%s)\n", "", heldout, bv, cv, pairWord(cv, bv, m.Better))
			}
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// judge applies the verdict rules described at the top of this file.
func judge(b, c []float64, bq, cq [3]float64, dir string, bound float64, won, pairs int) string {
	worse := (cq[1] - bq[1]) / math.Abs(bq[1])
	if dir == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "regression"
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	if spread(bq) > bound || spread(cq) > bound {
		if allBetter(c, b, dir) {
			return "better (every change run beats every parent run)"
		}
		return "unresolved"
	}
	if pairs >= 10 && float64(won) >= 0.9*float64(pairs) && math.Abs(cq[1]-bq[1]) > bq[2]-bq[0] && -worse > 0 {
		return "better"
	}
	return "same"
}

func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

func allBetter(c, b []float64, dir string) bool {
	for _, x := range c {
		for _, y := range b {
			if !better(x, y, dir) {
				return false
			}
		}
	}
	return true
}

func pairWord(c, b float64, dir string) string {
	switch {
	case better(c, b, dir):
		return "change better"
	case better(b, c, dir):
		return "change worse"
	}
	return "tie"
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) (the exclusive method) gives them.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q
}

func fmtQ(q [3]float64) string {
	return strings.Join([]string{fmt.Sprintf("%.4g", q[0]), fmt.Sprintf("%.4g", q[1]), fmt.Sprintf("%.4g", q[2])}, "/")
}
