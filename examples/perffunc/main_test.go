package main

// Example runs the program and pins what it prints, so go test checks the
// output that go run shows.
func Example() {
	main()
	// Output:
	// components:
	//   PC1      true delay at 600 B: 6.2360e-04 s
	//   switch   true delay at 600 B: 2.9000e-04 s
	//   PC2      true delay at 600 B: 6.2360e-04 s
	//
	// fitted component PFs at 600 B:
	//   PC1      predicts 6.2235e-04 s
	//   switch   predicts 2.8840e-04 s
	//   PC2      predicts 6.2974e-04 s
	//
	// Data Size   PF(total)     Measured      %Error
	// 200         8.2576e-04    8.3821e-04    1.485
	// 400         1.1730e-03    1.1818e-03    0.745
	// 600         1.5405e-03    1.5781e-03    2.383
	// 800         1.9091e-03    1.8963e-03    0.675
	// 1000        2.2581e-03    2.2705e-03    0.545
	//
	// the end-to-end PF is the sum of the component PFs (Eq. 2); errors stay
	// within the paper's 0.5-5% band.
}
