package pragma

import (
	"net"
	"testing"
	"time"
)

// TestRuntimeExecuteDegradedPartition severs a distributed control network
// mid-flight and requires the runtime to finish anyway: the agent-managed
// strategy must notice the partition through its Health probe and fall
// back to local-only partitioning decisions for every regrid instead of
// wedging on dead TCP links.
func TestRuntimeExecuteDegradedPartition(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	center := NewMessageCenter(WithHeartbeatTimeout(200 * time.Millisecond))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go center.Serve(ln)

	// A four-node control network: the ADM sits broker-side, each node
	// agent speaks through its own hardened TCP client.
	const nodes = 4
	clients := make([]*AgentClient, nodes)
	ports := make([]MessagePort, nodes)
	for i := range clients {
		cl, err := DialMessageCenter(ln.Addr().String(),
			WithReconnect(true),
			WithBackoff(10*time.Millisecond, 50*time.Millisecond),
			WithHeartbeat(50*time.Millisecond),
			WithOpTimeout(time.Second),
			WithSeed(int64(i+1)),
			WithErrorHandler(func(error) {}))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
		ports[i] = cl
	}
	t.Cleanup(func() {
		for _, cl := range clients {
			cl.Close()
		}
	})
	strat, err := NewAgentManagedOn(center, ports, 25)
	if err != nil {
		t.Fatal(err)
	}
	strat.Health = func() bool {
		for _, cl := range clients {
			if cl.Degraded() {
				return false
			}
		}
		return true
	}

	// Partition the network: the broker vanishes and takes every live
	// connection down with it. The clients keep retrying in the background
	// (there is nothing to reach) and report themselves degraded.
	ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		degraded := 0
		for _, cl := range clients {
			if cl.Degraded() {
				degraded++
			}
		}
		if degraded == nodes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients noticed the partition", degraded, nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}

	rt := Runtime{
		Trace:    trace,
		Machine:  NewCluster(nodes),
		Strategy: strat,
		NProcs:   nodes,
	}
	res, err := rt.Execute()
	if err != nil {
		t.Fatalf("run did not survive the partition: %v", err)
	}
	if res.TotalTime <= 0 || res.Steps == 0 {
		t.Fatalf("degraded run produced no work: %+v", res)
	}
	if res.DegradedRegrids != len(trace.Snapshots) {
		t.Fatalf("DegradedRegrids = %d, want %d (every regrid was partitioned)",
			res.DegradedRegrids, len(trace.Snapshots))
	}
	repartitioned := false
	for _, s := range res.Snapshots {
		repartitioned = repartitioned || s.Partitioner != "reprojected"
	}
	if !repartitioned {
		t.Fatal("local-only fallback never partitioned")
	}
}
