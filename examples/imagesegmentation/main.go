// Image segmentation (paper §3, §5.3.1): YUV color recognition as bulk
// ANDs across three channel class planes, executed inside the simulated
// SSD, verified against the golden host-side computation — then the same
// workload planned at the paper's 200,000-image scale.
//
// Run with: go run ./examples/imagesegmentation
package main

import (
	"fmt"
	"log"

	"parabit"
	"parabit/internal/workload"
)

func main() {
	// Functional run: a small synthetic image set through the simulator.
	spec := workload.SegmentationSpec{
		NumImages: 4, Width: 32, Height: 16, Levels: 256, Colors: 4,
	}
	data, err := workload.GenerateSegmentation(spec, 7)
	if err != nil {
		log.Fatal(err)
	}

	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}
	ps := dev.PageSize()

	// Slice each channel plane into pages and write Y,U co-located and V
	// grouped for the combine step; here we use the LocationFree layout
	// so the whole 3-way AND chains without reallocation.
	planeBytes := data.Planes[0].Bytes()
	pages := (len(planeBytes) + ps - 1) / ps
	fmt.Printf("planes: 3 x %d bytes (%d pages each)\n", len(planeBytes), pages)

	var recognized, total int
	for p := 0; p < pages; p++ {
		lpns := []uint64{uint64(p * 3), uint64(p*3 + 1), uint64(p*3 + 2)}
		group := make([][]byte, 3)
		for c := range group {
			group[c] = pagedSlice(data.Planes[c].Bytes(), p, ps)
		}
		if err := dev.WriteOperandGroup(lpns, group); err != nil {
			log.Fatal(err)
		}
		r, err := dev.Reduce(parabit.And, lpns, parabit.LocationFree)
		if err != nil {
			log.Fatal(err)
		}
		// Verify against the golden recognition plane.
		want := pagedSlice(data.Golden.Bytes(), p, ps)
		for i := range r.Data {
			if r.Data[i] != want[i] {
				log.Fatalf("page %d byte %d: in-flash %02x, golden %02x", p, i, r.Data[i], want[i])
			}
			for b := 0; b < 8; b++ {
				total++
				if r.Data[i]&(1<<b) != 0 {
					recognized++
				}
			}
		}
	}
	fmt.Printf("recognition verified in-flash: %d of %d pixel-color bits matched a color\n",
		recognized, total)

	// Paper-scale plan: 200,000 images, three schemes.
	fmt.Println("\npaper scale (200,000 images, 48 GB per channel plane):")
	for _, scheme := range parabit.Schemes {
		plan, err := parabit.PlanReduce(scheme, parabit.And, 3, workload.PaperSegmentation(200_000).ChannelPlaneBytes())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s compute %7.3fs, %d reallocation steps\n",
			scheme, plan.ComputeSeconds, plan.Reallocations)
	}
}

func pagedSlice(b []byte, page, ps int) []byte {
	out := make([]byte, ps)
	start := page * ps
	if start < len(b) {
		copy(out, b[start:])
	}
	return out
}
