// Onlineplacement contrasts the online space-management policies of the
// related-work landscape on one heterogeneous region: free-space
// first-fit and maximal-empty-rectangle best-fit (Bazargan-style) and
// 1D slot placement — each with and without design alternatives where
// applicable. It prints
// the service level (fulfilled module requests) every policy achieves on
// the same seeded task stream.
//
// Run with: go run ./examples/onlineplacement
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/fabric"
	"repro/internal/online"
)

func main() {
	spec := fabric.Spec{
		Name: "online-48x24",
		W:    48, H: 24,
		BRAMColumns:    []int{6, 18, 30, 42},
		ClockRowPeriod: 12,
	}
	region := spec.MustBuild().FullRegion()

	stream := online.StreamConfig{
		Tasks:            150,
		MeanInterarrival: 3,
		MeanDuration:     90,
	}
	stream.Library.CLBMin, stream.Library.CLBMax = 8, 40
	stream.Library.BRAMMax = 2
	stream.Library.Alternatives = 4
	stream.Library.NumModules = 1

	tasks, err := online.GenerateStream(stream, rand.New(rand.NewSource(42)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region %dx%d (%s), %d task arrivals\n\n",
		region.W(), region.H(), region.Histogram(), len(tasks))

	for _, mgr := range online.Managers() {
		st, err := online.Simulate(region, mgr, tasks, fabric.DefaultFrameModel(), nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %v\n", mgr.Name(), st)
	}

	fmt.Println("\nDesign alternatives raise the online service level the same")
	fmt.Println("way they raise offline utilization: more feasible positions per")
	fmt.Println("request mean fewer rejections on a fragmented fabric.")
}
