package main

// Example runs the program and pins what it prints, so go test checks the
// output that go run shows.
func Example() {
	main()
	// Output:
	// nodes   default(s)   system-sensitive(s)   improvement
	// 4       106.02       87.05                 17.9%
	// 8       57.27        45.06                 21.3%
	// 16      31.22        24.23                 22.4%
	//
	// the improvement grows with cluster size: with more nodes the equal
	// distribution is gated by an ever-heavier most-loaded node, while the
	// capacity calculator steers work away from it (Fig. 4).
}
