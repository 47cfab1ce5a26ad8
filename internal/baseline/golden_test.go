package baseline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/workload"
)

// goldenKey renders a result as its height followed by every module's
// (name, shape index, anchor), in input order.
func goldenKey(res *core.Result) string {
	if !res.Found {
		return "not found"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "h=%d", res.Height)
	for _, p := range res.Placements {
		fmt.Fprintf(&sb, " %s:%d@%d,%d", p.Module.Name(), p.ShapeIndex, p.At.X, p.At.Y)
	}
	return sb.String()
}

// TestBaselineGolden pins the exact placements of every baseline
// algorithm, with and without design alternatives, on seeded instances
// over the Table-I region and a homogeneous region, so a change to the
// greedy scans or the annealing moves cannot silently move a module.
func TestBaselineGolden(t *testing.T) {
	dev, err := fabric.ByName("virtex4-like-72x60")
	if err != nil {
		t.Fatal(err)
	}
	instances := []struct {
		name   string
		region *fabric.Region
		cfg    workload.Config
	}{
		{"table1", dev.FullRegion(), workload.Config{NumModules: 12}},
		{"homog", fabric.Homogeneous(24, 40).FullRegion(), workload.Config{NumModules: 12, CLBMin: 6, CLBMax: 30, NoBRAM: true}},
	}
	want := map[string]string{
		"table1/seed1/first-fit/alts=false":              "h=19 m00:0@6,0 m01:0@18,0 m02:0@30,0 m03:0@0,0 m04:0@43,0 m05:0@54,0 m06:0@54,7 m07:0@66,0 m08:0@67,5 m09:0@6,8 m10:0@30,8 m11:0@18,9",
		"table1/seed1/first-fit/alts=true":               "h=19 m00:0@6,0 m01:0@18,0 m02:0@30,0 m03:0@0,0 m04:0@43,0 m05:0@54,0 m06:1@58,5 m07:0@66,0 m08:1@1,5 m09:1@34,6 m10:0@6,8 m11:0@18,9",
		"table1/seed1/bottom-left-decreasing/alts=false": "h=18 m00:0@42,9 m01:0@30,0 m02:0@54,9 m03:0@67,5 m04:0@19,0 m05:0@6,10 m06:0@54,0 m07:0@66,0 m08:0@0,0 m09:0@30,9 m10:0@42,0 m11:0@6,0",
		"table1/seed1/bottom-left-decreasing/alts=true":  "h=17 m00:0@42,9 m01:0@30,0 m02:1@59,7 m03:1@1,5 m04:0@19,0 m05:0@6,10 m06:0@54,0 m07:0@66,0 m08:0@0,0 m09:1@34,8 m10:0@42,0 m11:0@6,0",
		"table1/seed1/best-fit/alts=false":               "h=19 m00:0@6,0 m01:0@18,0 m02:0@30,0 m03:0@0,0 m04:0@43,0 m05:0@54,0 m06:0@54,7 m07:0@66,0 m08:0@67,5 m09:0@6,8 m10:0@30,8 m11:0@18,9",
		"table1/seed1/best-fit/alts=true":                "h=18 m00:3@6,0 m01:3@18,0 m02:0@30,0 m03:0@0,0 m04:2@43,0 m05:0@54,0 m06:1@58,5 m07:0@66,0 m08:1@1,5 m09:1@34,6 m10:3@6,7 m11:0@18,8",
		"table1/seed1/annealing/alts=false":              "h=18 m00:0@42,9 m01:0@30,0 m02:0@54,9 m03:0@67,5 m04:0@20,0 m05:0@6,10 m06:0@54,0 m07:0@66,0 m08:0@0,0 m09:0@30,9 m10:0@42,0 m11:0@6,0",
		"table1/seed1/annealing/alts=true":               "h=17 m00:0@42,9 m01:0@30,0 m02:1@59,7 m03:1@1,5 m04:0@20,0 m05:0@6,10 m06:0@54,0 m07:0@66,0 m08:0@0,0 m09:1@34,8 m10:0@42,0 m11:0@6,0",
		"table1/seed2/first-fit/alts=false":              "h=26 m00:0@6,0 m01:0@19,0 m02:0@30,0 m03:0@42,0 m04:0@54,0 m05:0@6,8 m06:0@42,9 m07:0@54,9 m08:0@18,10 m09:0@66,0 m10:0@30,10 m11:0@30,17",
		"table1/seed2/first-fit/alts=true":               "h=19 m00:0@6,0 m01:0@19,0 m02:0@30,0 m03:0@42,0 m04:0@54,0 m05:0@6,8 m06:0@42,9 m07:1@56,8 m08:0@18,10 m09:1@1,0 m10:2@0,5 m11:1@34,9",
		"table1/seed2/bottom-left-decreasing/alts=false": "h=25 m00:0@54,10 m01:0@43,0 m02:0@18,0 m03:0@6,10 m04:0@30,10 m05:0@54,0 m06:0@6,0 m07:0@30,0 m08:0@18,10 m09:0@66,0 m10:0@54,18 m11:0@42,10",
		"table1/seed2/bottom-left-decreasing/alts=true":  "h=19 m00:0@42,10 m01:0@43,0 m02:0@18,0 m03:0@6,10 m04:1@34,9 m05:0@54,0 m06:0@6,0 m07:0@30,0 m08:0@18,10 m09:0@66,0 m10:1@0,0 m11:1@58,9",
		"table1/seed2/best-fit/alts=false":               "h=26 m00:0@6,0 m01:0@19,0 m02:0@30,0 m03:0@42,0 m04:0@54,0 m05:0@6,8 m06:0@42,9 m07:0@54,9 m08:0@18,10 m09:0@66,0 m10:0@30,10 m11:0@30,17",
		"table1/seed2/best-fit/alts=true":                "h=18 m00:3@6,0 m01:2@31,0 m02:3@54,0 m03:0@18,0 m04:0@42,0 m05:3@6,7 m06:3@30,9 m07:1@56,8 m08:0@18,9 m09:1@1,0 m10:1@0,7 m11:0@42,9",
		"table1/seed2/annealing/alts=false":              "h=25 m00:0@54,10 m01:0@43,0 m02:0@18,0 m03:0@6,10 m04:0@30,10 m05:0@54,0 m06:0@6,0 m07:0@30,0 m08:0@18,10 m09:0@66,7 m10:0@54,18 m11:0@42,10",
		"table1/seed2/annealing/alts=true":               "h=19 m00:0@42,10 m01:0@43,0 m02:0@18,0 m03:0@6,10 m04:1@34,9 m05:0@54,0 m06:0@6,0 m07:0@30,0 m08:0@18,10 m09:0@66,0 m10:1@0,0 m11:1@58,9",
		"homog/seed1/first-fit/alts=false":               "h=11 m00:0@0,0 m01:0@3,0 m02:0@7,0 m03:0@12,0 m04:0@16,0 m05:0@19,0 m06:0@0,4 m07:0@12,4 m08:0@2,5 m09:0@5,4 m10:0@17,5 m11:0@7,6",
		"homog/seed1/first-fit/alts=true":                "h=10 m00:0@0,0 m01:0@3,0 m02:0@7,0 m03:0@12,0 m04:0@16,0 m05:0@19,0 m06:2@15,3 m07:1@1,4 m08:0@12,4 m09:2@0,4 m10:2@18,4 m11:1@7,5",
		"homog/seed1/bottom-left-decreasing/alts=false":  "h=9 m00:0@7,5 m01:0@20,0 m02:0@0,0 m03:0@3,5 m04:0@10,5 m05:0@10,0 m06:0@22,4 m07:0@15,0 m08:0@13,5 m09:0@20,5 m10:0@5,0 m11:0@16,4",
		"homog/seed1/bottom-left-decreasing/alts=true":   "h=10 m00:2@22,4 m01:0@20,0 m02:0@0,0 m03:1@15,4 m04:0@3,5 m05:0@10,0 m06:2@19,4 m07:0@15,0 m08:0@6,5 m09:0@9,5 m10:0@5,0 m11:1@11,4",
		"homog/seed1/best-fit/alts=false":                "h=11 m00:0@0,0 m01:0@3,0 m02:0@7,0 m03:0@12,0 m04:0@16,0 m05:0@19,0 m06:0@0,4 m07:0@12,4 m08:0@2,5 m09:0@5,4 m10:0@17,5 m11:0@7,6",
		"homog/seed1/best-fit/alts=true":                 "h=10 m00:1@0,0 m01:2@4,0 m02:2@9,0 m03:0@15,0 m04:0@19,0 m05:2@0,4 m06:0@22,0 m07:1@14,3 m08:0@6,4 m09:0@22,3 m10:0@9,5 m11:2@19,6",
		"homog/seed1/annealing/alts=false":               "h=9 m00:0@7,5 m01:0@20,0 m02:0@0,0 m03:0@3,5 m04:0@10,5 m05:0@10,0 m06:0@22,4 m07:0@15,0 m08:0@13,5 m09:0@20,5 m10:0@5,0 m11:0@16,4",
		"homog/seed1/annealing/alts=true":                "h=10 m00:2@22,4 m01:0@20,0 m02:0@0,0 m03:1@15,4 m04:0@3,5 m05:0@10,0 m06:2@19,4 m07:0@15,0 m08:0@6,5 m09:0@9,5 m10:0@5,0 m11:1@11,4",
		"homog/seed2/first-fit/alts=false":               "h=11 m00:0@0,0 m01:0@4,0 m02:0@8,0 m03:0@13,0 m04:0@18,0 m05:0@21,0 m06:0@1,4 m07:0@14,4 m08:0@18,4 m09:0@5,4 m10:0@8,5 m11:0@3,7",
		"homog/seed2/first-fit/alts=true":                "h=10 m00:0@0,0 m01:0@4,0 m02:0@8,0 m03:0@13,0 m04:0@18,0 m05:0@21,0 m06:1@18,3 m07:3@21,3 m08:1@0,4 m09:1@4,4 m10:2@7,4 m11:1@13,4",
		"homog/seed2/bottom-left-decreasing/alts=false":  "h=12 m00:0@14,0 m01:0@18,0 m02:0@0,0 m03:0@5,0 m04:0@10,5 m05:0@3,8 m06:0@15,4 m07:0@10,0 m08:0@6,4 m09:0@7,8 m10:0@19,4 m11:0@0,5",
		"homog/seed2/bottom-left-decreasing/alts=true":   "h=11 m00:0@14,0 m01:0@18,0 m02:0@0,0 m03:0@5,0 m04:0@9,5 m05:1@10,7 m06:1@14,4 m07:0@10,0 m08:1@19,3 m09:1@15,7 m10:2@0,4 m11:1@5,4",
		"homog/seed2/best-fit/alts=false":                "h=11 m00:0@0,0 m01:0@4,0 m02:0@8,0 m03:0@13,0 m04:0@18,0 m05:0@21,0 m06:0@1,4 m07:0@14,4 m08:0@18,4 m09:0@5,4 m10:0@8,5 m11:0@3,7",
		"homog/seed2/best-fit/alts=true":                 "h=9 m00:2@0,0 m01:2@5,0 m02:2@10,0 m03:2@16,0 m04:3@20,2 m05:3@0,3 m06:3@6,3 m07:1@10,4 m08:1@16,3 m09:1@2,5 m10:0@20,5 m11:2@5,6",
		"homog/seed2/annealing/alts=false":               "h=12 m00:0@14,0 m01:0@19,0 m02:0@0,0 m03:0@5,0 m04:0@10,5 m05:0@7,8 m06:0@15,5 m07:0@10,0 m08:0@6,4 m09:0@20,8 m10:0@20,4 m11:0@0,5",
		"homog/seed2/annealing/alts=true":                "h=10 m00:0@14,0 m01:1@19,0 m02:0@0,0 m03:0@5,0 m04:0@9,5 m05:3@10,7 m06:1@17,5 m07:0@10,0 m08:0@20,5 m09:3@14,4 m10:2@0,4 m11:1@5,4",
	}
	for _, in := range instances {
		for _, seed := range []int64{1, 2} {
			mods := workload.MustGenerate(in.cfg, rand.New(rand.NewSource(seed)))
			for _, alg := range Algorithms() {
				for _, alts := range []bool{false, true} {
					name := fmt.Sprintf("%s/seed%d/%v/alts=%v", in.name, seed, alg, alts)
					res, err := Place(in.region, mods, alg, Options{UseAlternatives: alts, Seed: 1, Iterations: 3000})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := goldenKey(res); got != want[name] {
						t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
					}
				}
			}
		}
	}
}
