package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. The first four are the names core.Run gives the internal
// spans of a regrid cycle (telemetry trace ring), so the later change that
// records spans inside the program moves where they are recorded, not
// what they are called.
const (
	spanRepartition = "repartition" // Strategy.Assign
	spanPAC         = "pac"         // partition.BuildCommPlan
	spanMigration   = "migration"   // CommPlan.MigrationFrom
	spanSteps       = "steps"       // Cluster.Step x RegridEvery
	spanRun         = "run"         // one run, submit (or core.Run call) to verified result
	spanRegrid      = "regrid"      // one regrid cycle: Assign entry to next Assign entry
	spanPartition   = "partition"   // the selected partitioner's call inside Assign
	spanWorkModel   = "workmodel"   // RunConfig.WorkModel(idx)
	spanCheckpoint  = "checkpoint"  // checkpoint.Store.Save
	spanResume      = "resume"      // resumed core.Run call to its first Assign
	spanSubmit      = "http.submit" // POST /sched/submit
	spanStatus      = "http.status" // GET /sched/status
	spanQueue       = "queue"       // RunStatus Submitted to Started
	spanExec        = "exec"        // RunStatus Started to Finished
)

// span is one timed interval. Start and End are offsets from the
// recorder's epoch; Parent is the ID of the span that caused it (0 =
// root); spans of one run share Run.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. Safe for the
// scheduler's worker goroutines to record into concurrently.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID for children to name as
// their parent.
func (r *recorder) add(run, name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// reserve allocates a span whose end is not known yet (a parent recorded
// before its children); finish sets it.
func (r *recorder) reserve(run, name string, parent int, start time.Time) int {
	return r.add(run, name, parent, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end.Sub(r.epoch)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once (interval union) and a child reaching outside its parent
// is clipped to it, so self time is never negative.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = s.duration() - covered
	}
	return out
}

// selfByName sums self time over spans sharing a name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeJSONL writes one span per line to path, creating its directory.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
