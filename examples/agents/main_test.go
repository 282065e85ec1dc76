package main

// Example runs the program and pins what it prints, so go test checks the
// output that go run shows.
func Example() {
	main()
	// Output:
	// step 1: both nodes lightly loaded
	//   ADM view: 2 agents, mean load 0.32, max load 0.35 on node-2
	// step 2: node-2's background load spikes
	//   event: overload from node-2 (load=0.93)
	// step 3: ADM consults the policy base and directs repartitioning
	//   policy: select-partitioner -> pBD-ISP
	//   [node-1] actuator: repartitioning with map[procs:2]
	//   [node-2] actuator: repartitioning with map[procs:2]
	// step 4: template discovery for the new execution environment
	//   template: perf-migration (map[attribute:performance scheme:migration])
}
