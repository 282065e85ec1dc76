package main

// Example runs the program and pins what it prints, so go test checks the
// output that go run shows.
func Example() {
	main()
	// Output:
	// running the Sod shock tube and regridding every 8 steps...
	// captured 16 snapshots from the solver
	//
	// snapshot 0 (t=0.000): 1 refined boxes, 2304 refined cells
	// snapshot 8 (t=0.132): 1 refined boxes, 51840 refined cells
	// snapshot 15 (t=0.240): 3 refined boxes, 52992 refined cells
	//
	// octant trajectory (solver-driven):
	//   snapshot  0: octant I    (dynamics 0.00, comm 0.67, dispersion 0.00)
	//   snapshot  1: octant VII  (dynamics 0.83, comm 0.25, dispersion 0.00)
	//   snapshot  2: octant VII  (dynamics 0.58, comm 0.22, dispersion 0.00)
	//   snapshot  3: octant VII  (dynamics 0.46, comm 0.21, dispersion 0.00)
	//   snapshot  4: octant VII  (dynamics 0.23, comm 0.20, dispersion 0.00)
	//   snapshot  5: octant VII  (dynamics 0.17, comm 0.20, dispersion 0.00)
	//   snapshot  6: octant III  (dynamics 0.15, comm 0.19, dispersion 0.00)
	//   snapshot  7: octant III  (dynamics 0.12, comm 0.19, dispersion 0.00)
	//   snapshot  8: octant III  (dynamics 0.11, comm 0.19, dispersion 0.00)
	//   snapshot  9: octant III  (dynamics 0.09, comm 0.19, dispersion 0.00)
	//   snapshot 10: octant III  (dynamics 0.08, comm 0.19, dispersion 0.00)
	//   snapshot 11: octant III  (dynamics 0.07, comm 0.18, dispersion 0.00)
	//   snapshot 12: octant III  (dynamics 0.07, comm 0.18, dispersion 0.00)
	//   snapshot 13: octant VII  (dynamics 0.15, comm 0.23, dispersion 0.25)
	//   snapshot 14: octant VII  (dynamics 0.18, comm 0.23, dispersion 0.30)
	//   snapshot 15: octant VIII (dynamics 0.22, comm 0.23, dispersion 0.34)
	//
	// adaptive replay on 8 processors: run-time 20.680 s, max imbalance 12.5%, switches 1
}
