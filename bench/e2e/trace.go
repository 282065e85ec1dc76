package main

import (
	"sort"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// regridInput is what one regrid cycle handed the layers below the
// strategy, kept so those layers can be timed again on the same inputs
// after the traced pass (see tracer.replay).
type regridInput struct {
	run     string
	trace   *samr.Trace
	index   int
	h       *samr.Hierarchy
	wm      samr.WorkModel
	nprocs  int
	machine *cluster.Cluster
	a       *partition.Assignment
	label   string
}

// tracer is the harness side of a traced pass: the span recorder, exact
// counts taken at the strategy boundary, and the captured regrid inputs.
// nil means tracing is off; the replay workloads' probe checks for it.
type tracer struct {
	rec *recorder

	mu         sync.Mutex
	regrids    int
	units      int
	guardRuns  int // partitioner calls beyond the first within one Assign
	reusedUnit int64
	totalUnit  int64
	// capture bounds what is kept for replay: the inputs of the runs whose
	// ID is in it.
	capture map[string]bool
	inputs  []regridInput
}

func newTracer() *tracer { return &tracer{rec: newRecorder(), capture: map[string]bool{}} }

// probe is the harness's own Strategy. Untraced it only notes when each
// Assign was entered (the gaps between entries are the regrid-cycle
// latencies) and, for the checkpoint workload, fires the run's interrupt
// at one regrid. Traced it also records regrid, repartition and partition
// spans and the cycle's inputs. It always decides exactly as
// core.Adaptive{ImbalanceGuard: 20} does.
type probe struct {
	t      *tracer
	run    string
	parent int // span the regrid spans hang under

	entries []time.Time
	stopAt  int           // regrid index at which stop is closed; -1 = never
	stop    chan struct{} // the run's RunConfig.Interrupt

	regrid, assign int // open span IDs
	calls          int // partitioner calls inside the current Assign
	// PartitionPlan.Stats as of the previous cycle; the plan lives as long
	// as one core.Run call, and so does a probe.
	reused, total int64
}

func newProbe(t *tracer, run string, parent int) *probe {
	return &probe{t: t, run: run, parent: parent, stopAt: -1}
}

func (p *probe) Name() string { return "adaptive" }

func (p *probe) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	start := time.Now()
	p.entries = append(p.entries, start)
	if ctx.Index == p.stopAt {
		close(p.stop)
	}
	if p.t == nil {
		return core.Adaptive{ImbalanceGuard: 20}.Assign(ctx)
	}
	rec := p.t.rec
	if p.regrid != 0 {
		rec.finish(p.regrid, start)
	}
	p.regrid = rec.reserve(p.run, spanRegrid, p.parent, start)
	p.assign = rec.reserve(p.run, spanRepartition, p.regrid, start)
	p.calls = 0
	// What Adaptive does with a nil Meta, plus the timing Lookup.
	meta := core.NewMetaPartitioner()
	meta.Lookup = p.lookup
	a, label, err := core.Adaptive{Meta: meta, ImbalanceGuard: 20}.Assign(ctx)
	end := time.Now()
	rec.finish(p.assign, end)
	// Until the next Assign (or finishRun) extends it, the cycle is known
	// to last at least as long as its Assign.
	rec.finish(p.regrid, end)
	if err == nil {
		p.t.observe(p, ctx, a, label)
	}
	return a, label, err
}

// finishRun closes the last regrid cycle at the run's end.
func (p *probe) finishRun(end time.Time) {
	if p.t != nil && p.regrid != 0 {
		p.t.rec.finish(p.regrid, end)
	}
}

// lookup is the MetaPartitioner.Lookup decorator: the standard
// partitioner database, each entry wrapped to time its calls.
func (p *probe) lookup(name string) (partition.Partitioner, error) {
	inner, err := partition.ByName(name)
	if err != nil {
		return nil, err
	}
	tp := timedPartitioner{Partitioner: inner, p: p}
	if ip, ok := inner.(partition.IncrementalPartitioner); ok {
		return timedIncremental{timedPartitioner: tp, inc: ip}, nil
	}
	return tp, nil
}

type timedPartitioner struct {
	partition.Partitioner
	p *probe
}

func (tp timedPartitioner) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*partition.Assignment, error) {
	start := time.Now()
	a, err := tp.Partitioner.Partition(h, wm, nprocs)
	tp.p.partitioned(start)
	return a, err
}

// timedIncremental keeps the delta-regrid path: StepContext.Partition
// takes it only for partitioners that implement IncrementalPartitioner.
type timedIncremental struct {
	timedPartitioner
	inc partition.IncrementalPartitioner
}

func (ti timedIncremental) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *partition.PartitionPlan) (*partition.Assignment, error) {
	start := time.Now()
	a, err := ti.inc.PartitionIncremental(h, wm, nprocs, plan)
	ti.p.partitioned(start)
	return a, err
}

func (p *probe) partitioned(start time.Time) {
	p.t.rec.add(p.run, spanPartition, p.assign, start, time.Now())
	p.calls++
}

func (t *tracer) observe(p *probe, ctx *core.StepContext, a *partition.Assignment, label string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.regrids++
	t.units += len(a.Units)
	if p.calls > 1 {
		t.guardRuns += p.calls - 1
	}
	if ctx.PartitionPlan != nil {
		reused, total := ctx.PartitionPlan.Stats()
		t.reusedUnit += reused - p.reused
		t.totalUnit += total - p.total
		p.reused, p.total = reused, total
	}
	if t.capture[p.run] {
		t.inputs = append(t.inputs, regridInput{
			run: p.run, trace: ctx.Trace, index: ctx.Index, h: ctx.Snap.H, wm: ctx.WM,
			nprocs: ctx.NProcs, machine: ctx.Machine, a: a, label: label,
		})
	}
}

// replayed holds per-regrid mean times, in milliseconds, of the layers
// below the strategy, measured by running them again on captured inputs.
type replayed struct {
	pacMS, migrationMS   float64
	stepsMS              float64 // RegridEvery steps
	stepUS               float64 // one step
	scratchMS            float64
	classifyUS, selectUS float64
}

// replay runs the captured (hierarchy, assignment) pairs through the
// layers core.Run calls after Strategy.Assign returns, in the same order
// and with the previous cycle's plan carried exactly as core.Run carries
// it, and times each call. It also times the classifier and the policy
// lookup on the captured snapshots and the chosen partitioner from
// scratch (no delta-regrid plan). Spans go under the "replay" root.
func (t *tracer) replay() (replayed, error) {
	t.mu.Lock()
	inputs := t.inputs
	t.mu.Unlock()
	// Concurrent runs interleave their cycles; the plan chain needs each
	// run's cycles together and in order.
	sort.SliceStable(inputs, func(i, j int) bool { return inputs[i].run < inputs[j].run })
	var out replayed
	if len(inputs) == 0 {
		return out, nil
	}
	rec := t.rec
	root := rec.reserve("replay", "replay", 0, time.Now())
	cost := cluster.DefaultCostModel()
	meta := core.NewMetaPartitioner()
	var pac, mig, steps, scratch, classify, sel time.Duration
	stepCount := 0
	var prev *partition.CommPlan
	var prevRun string
	timed := func(run, name string, fn func()) time.Duration {
		start := time.Now()
		fn()
		end := time.Now()
		rec.add("replay:"+run, name, root, start, end)
		return end.Sub(start)
	}
	for _, in := range inputs {
		if in.run != prevRun || in.index == 0 {
			prev, prevRun = nil, in.run
		}
		var plan *partition.CommPlan
		pac += timed(in.run, spanPAC, func() { plan = partition.BuildCommPlan(in.h, in.a) })
		if prev != nil {
			mig += timed(in.run, spanMigration, func() { plan.MigrationFrom(prev) })
		}
		prev = plan
		work := in.a.Work()
		n := max(in.trace.RegridEvery, 1)
		steps += timed(in.run, spanSteps, func() {
			for s := 0; s < n; s++ {
				in.machine.Step(work, plan.Stats.PerProcVolume, plan.Stats.PerProcMessages, 0, cost)
			}
		})
		stepCount += n
		p, err := partition.ByName(in.label)
		if err != nil {
			return out, err
		}
		scratch += timed(in.run, "partition.scratch", func() { _, err = p.Partition(in.h, in.wm, in.nprocs) })
		if err != nil {
			return out, err
		}
		var o octant.Octant
		classify += timed(in.run, "octant.classify", func() {
			var st octant.State
			st, err = octant.StateAt(in.trace, in.index, meta.Window)
			o = octant.Classify(st, meta.Thresholds)
		})
		if err != nil {
			return out, err
		}
		sel += timed(in.run, "policy.select", func() { _, err = meta.SelectForOctant(o) })
		if err != nil {
			return out, err
		}
	}
	rec.finish(root, time.Now())
	n := float64(len(inputs))
	out.pacMS = ms(pac) / n
	out.migrationMS = ms(mig) / n
	out.stepsMS = ms(steps) / n
	out.stepUS = ms(steps) * 1000 / float64(stepCount)
	out.scratchMS = ms(scratch) / n
	out.classifyUS = ms(classify) * 1000 / n
	out.selectUS = ms(sel) * 1000 / n
	return out, nil
}

// spanDurations collects the spans' durations in milliseconds by name.
func spanDurations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.duration()))
	}
	return out
}

// layered is what both kinds of workload report about the layers a regrid
// cycle goes through, and the milliseconds the whole traced phase spent in
// each, by the row it has in the table of shares.
type layered struct {
	regrids float64
	dur     map[string][]float64 // span durations by name
	shares  map[string]float64
}

// partitionLayers fills in the per-regrid metrics of octant, policy,
// partition, cluster and core's Assign. Three sources, most direct first:
// the probe's own spans (Assign and the partitioner call inside it); the
// program's telemetry where it already times a layer itself
// (BuildCommPlan: exact for these very runs); and the replay of one
// pass's captured inputs for what nothing else sees (MigrationFrom,
// Cluster.Step, the classifier and the policy lookup by themselves).
func (t *tracer) partitionLayers(traced *phase, out map[string]float64) (layered, error) {
	rep, err := t.replay()
	if err != nil {
		return layered{}, err
	}
	spans := t.rec.snapshot()
	l := layered{dur: spanDurations(spans)}
	self := selfByName(spans)
	c := traced.counts
	t.mu.Lock()
	l.regrids = float64(t.regrids)
	out["partition.units_per_regrid"] = float64(t.units) / l.regrids
	out["partition.guard_reruns_per_run"] = float64(t.guardRuns) / float64(traced.runs)
	if t.totalUnit > 0 {
		out["partition.reuse_ratio"] = float64(t.reusedUnit) / float64(t.totalUnit)
	}
	t.mu.Unlock()
	pacMS := 1000 * c["pragma_partition_pac_seconds_sum"]
	out["octant.classify_us_per_regrid"] = rep.classifyUS
	out["policy.select_us_per_regrid"] = rep.selectUS
	out["partition.pac_ms_per_regrid"] = pacMS / l.regrids
	out["partition.migration_ms_per_regrid"] = rep.migrationMS
	out["partition.partition_ms_per_regrid"] = sum(l.dur[spanPartition]) / l.regrids
	out["partition.scratch_ms_per_regrid"] = rep.scratchMS
	out["partition.rasterizations_per_regrid"] = c["rasterizations"] / l.regrids
	out["cluster.step_us_per_step"] = rep.stepUS
	out["core.assign_ms_per_regrid"] = sum(l.dur[spanRepartition]) / l.regrids
	l.shares = map[string]float64{
		"partition (pac)":       pacMS,
		"partition (migration)": l.regrids * rep.migrationMS,
		"partition (partition)": sum(l.dur[spanPartition]),
		"octant+policy":         ms(self[spanRepartition]), // Assign outside the partitioner call
		"cluster (steps)":       l.regrids * rep.stepsMS,
	}
	return l, nil
}
