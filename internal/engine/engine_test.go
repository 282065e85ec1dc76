package engine

import (
	"net"
	"testing"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

func testSetup(t testing.TB, nprocs int) (*samr.Hierarchy, *partition.Assignment) {
	t.Helper()
	h, err := samr.NewHierarchy(samr.MakeBox(32, 16, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetLevel(1, []samr.Box{
		{Lo: samr.Point{8, 8, 8}, Hi: samr.Point{24, 24, 24}},
		{Lo: samr.Point{40, 8, 8}, Hi: samr.Point{56, 24, 24}},
	}); err != nil {
		t.Fatal(err)
	}
	a, err := partition.GMISPSP{}.Partition(h, samr.UniformWorkModel{}, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	return h, a
}

func samePorts(c *agents.Center, n int) []agents.Port {
	ports := make([]agents.Port, n)
	for i := range ports {
		ports[i] = c
	}
	return ports
}

func TestEngineMessageCountsMatchAdjacency(t *testing.T) {
	h, a := testSetup(t, 4)
	center := agents.NewCenter()
	e, err := New(h, a, center, samePorts(center, 4))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	rep, err := e.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	pairs := partition.Adjacency(h, a)
	// Per step every pair produces one message in each direction.
	want := 2 * len(pairs) * steps
	if got := rep.TotalMessages(); got != want {
		t.Fatalf("delivered %d messages, want %d (%d pairs x 2 x %d steps)",
			got, want, len(pairs), steps)
	}
	var sent int
	for _, w := range rep.Workers {
		sent += w.MessagesSent
	}
	if sent != want {
		t.Fatalf("sent %d messages, want %d", sent, want)
	}
	// Every worker performed its assigned work on every step.
	workPerStep := map[int]float64{}
	for i, u := range a.Units {
		workPerStep[a.Owner[i]] += u.Weight
	}
	for _, w := range rep.Workers {
		if diff := w.WorkPerformed - workPerStep[w.Proc]*steps; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("worker %d performed %g, want %g", w.Proc, w.WorkPerformed, workPerStep[w.Proc]*steps)
		}
	}
}

func TestEngineDeterministicChecksums(t *testing.T) {
	h, a := testSetup(t, 4)
	run := func() []uint64 {
		center := agents.NewCenter()
		e, err := New(h, a, center, samePorts(center, 4))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(rep.Workers))
		for _, w := range rep.Workers {
			out[w.Proc] = w.Checksum
		}
		return out
	}
	a1 := run()
	a2 := run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("worker %d checksum differs across runs: %x vs %x", i, a1[i], a2[i])
		}
	}
}

func TestEngineOverTCP(t *testing.T) {
	// Multi-node emulation: each worker connects to the broker over TCP.
	h, a := testSetup(t, 3)
	center := agents.NewCenter()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go center.Serve(ln)
	ports := make([]agents.Port, 3)
	for i := range ports {
		cl, err := agents.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ports[i] = cl
	}
	e, err := New(h, a, center, ports)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := partition.Adjacency(h, a)
	if got, want := rep.TotalMessages(), 2*len(pairs)*3; got != want {
		t.Fatalf("TCP run delivered %d messages, want %d", got, want)
	}
}

func TestEngineValidation(t *testing.T) {
	h, a := testSetup(t, 4)
	center := agents.NewCenter()
	if _, err := New(h, a, center, samePorts(center, 2)); err == nil {
		t.Error("port/processor mismatch accepted")
	}
	e, err := New(h, a, center, samePorts(center, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Error("zero steps accepted")
	}
	// Registering a second engine on the same center conflicts on ports.
	if _, err := New(h, a, center, samePorts(center, 4)); err == nil {
		t.Error("port collision accepted")
	}
}

func TestEngineSingleProcNoMessages(t *testing.T) {
	h, _ := testSetup(t, 4)
	a, err := partition.GMISPSP{}.Partition(h, samr.UniformWorkModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	center := agents.NewCenter()
	e, err := New(h, a, center, samePorts(center, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMessages() != 0 {
		t.Fatalf("single-proc run exchanged %d messages", rep.TotalMessages())
	}
}

func TestEngineStressManyWorkers(t *testing.T) {
	// 16 workers, finer partitioning, more steps: exercises barrier skew
	// and mailbox buffering.
	h, _ := testSetup(t, 4)
	a, err := partition.SPISP{}.Partition(h, samr.UniformWorkModel{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	center := agents.NewCenter()
	e, err := New(h, a, center, samePorts(center, 16))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	pairs := partition.Adjacency(h, a)
	if got, want := rep.TotalMessages(), 2*len(pairs)*20; got != want {
		t.Fatalf("delivered %d, want %d", got, want)
	}
}

// pacBuilds returns how many communication plans the process has built:
// the sample count of pragma_partition_pac_seconds.
func pacBuilds(t *testing.T) uint64 {
	t.Helper()
	series := telemetry.Default.Snapshot().Find("pragma_partition_pac_seconds")
	if len(series) != 1 {
		t.Fatalf("pragma_partition_pac_seconds: %d series", len(series))
	}
	return series[0].Count
}

// TestNewFromPlanReusesAdjacency builds an engine from a pre-built
// communication plan and checks two things: construction builds no plan
// (the plan's pairs are reused, not recomputed), and the resulting engine behaves identically to one built by New.
func TestNewFromPlanReusesAdjacency(t *testing.T) {
	h, a := testSetup(t, 4)
	plan := partition.BuildCommPlan(h, a)
	center := agents.NewCenter()
	builds := pacBuilds(t)
	e, err := NewFromPlan(plan, center, samePorts(center, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := pacBuilds(t) - builds; got != 0 {
		t.Fatalf("NewFromPlan built %d plans, want 0", got)
	}
	const steps = 3
	rep, err := e.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(plan.Pairs()) * steps; rep.TotalMessages() != want {
		t.Fatalf("delivered %d messages, want %d", rep.TotalMessages(), want)
	}

	center2 := agents.NewCenter()
	e2, err := New(h, a, center2, samePorts(center2, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e2.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	sums := func(r Report) map[int]uint64 {
		out := map[int]uint64{}
		for _, w := range r.Workers {
			out[w.Proc] = w.Checksum
		}
		return out
	}
	s1, s2 := sums(rep), sums(rep2)
	for p, c := range s1 {
		if s2[p] != c {
			t.Fatalf("worker %d checksum differs between NewFromPlan and New: %x vs %x", p, c, s2[p])
		}
	}
}
