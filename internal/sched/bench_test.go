package sched

import (
	"runtime"
	"sync"
	"testing"

	"github.com/pragma-grid/pragma/internal/core"
)

// BenchmarkSchedulerSubmitCycle measures the per-run overhead of the full
// scheduler path — admission, fair-queue churn across 8 tenants and 4
// priority bands, worker hand-off, and terminal bookkeeping — with a no-op
// run body, so the number is pure scheduling cost.
func BenchmarkSchedulerSubmitCycle(b *testing.B) {
	s := newTestScheduler(Config{
		Workers:    runtime.GOMAXPROCS(0),
		QueueLimit: 1 << 30, // never reject: the bench measures throughput, not backpressure
	})
	defer s.Close()
	var wg sync.WaitGroup
	noop := func(<-chan struct{}) (*core.RunResult, error) {
		wg.Done()
		return nil, nil
	}
	tenants := [8]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	b.ReportAllocs()
	b.ResetTimer()
	wg.Add(b.N)
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(SubmitRequest{
			Tenant:   tenants[i%len(tenants)],
			Priority: i % 4,
			Payload:  noop,
		}); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkFairQueueChurn measures steady-state push/pop on the admission
// queue itself: 16 tenants rotating inside 4 priority bands.
func BenchmarkFairQueueChurn(b *testing.B) {
	fq := newFairQueue()
	rs := make([]*run, 64)
	for i := range rs {
		rs[i] = &run{tenant: string(rune('a' + i%16)), priority: i % 4}
	}
	for _, r := range rs {
		fq.push(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := fq.pop()
		fq.push(r)
	}
}

// BenchmarkWeightedQueue measures the weighted pop path: 16 tenants with
// distinct accumulated service, so every pop takes the least-service scan
// rather than the uncharged round-robin fast path.
func BenchmarkWeightedQueue(b *testing.B) {
	fq := newFairQueue()
	weights := make([]float64, 16)
	for i := range weights {
		weights[i] = float64(1 + i%8)
		tenant := string(rune('a' + i))
		fq.push(&run{tenant: tenant, priority: 0})
		fq.charge(0, tenant, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := fq.pop()
		fq.charge(0, r.tenant, 1/weights[int(r.tenant[0]-'a')])
		fq.push(r)
	}
}
