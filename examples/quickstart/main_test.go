package main

// Example runs the program and pins what it prints, so go test checks the
// output that go run shows.
func Example() {
	main()
	// Output:
	// RM3D trace: 41 snapshots, regrid every 4 steps
	//
	// adaptive   run-time   32.42 s   max imbalance  16.15 %   AMR efficiency 92.12 %   switches 5
	// SFC        run-time   38.03 s   max imbalance  12.52 %   AMR efficiency 92.12 %   switches 0
	//
	// octant occupancy: map[I:9 II:2 V:10 VI:13 VII:6 VIII:1]
}
