package main

// Example runs the program and pins what it prints, so go test checks the
// output that go run shows.
func Example() {
	main()
	// Output:
	// === galaxy (41 snapshots) ===
	// octant occupancy: II:1 IV:10 VI:18 VIII:12
	// adaptive replay: run-time 45.97s, max imbalance 19.4%, switches 6
	//
	// === supernova (21 snapshots) ===
	// octant occupancy: I:1 III:2 VII:10 VIII:8
	// adaptive replay: run-time 47.79s, max imbalance 18.3%, switches 1
}
