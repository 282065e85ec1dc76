package sched

import (
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/jsonenc"
)

// This file hand-encodes the hot serving responses (/sched/status,
// /sched/runs) into pooled buffers, byte-identical to what encoding/json
// produces for the same values — held by differential tests in
// json_test.go. The reflection encoder costs ~30 allocations per status
// response; at load-test rates that garbage dominated the handler
// profile, so the encode path is kept at zero.

// appendStatusJSON appends st exactly as json.Marshal(st) renders it.
func appendStatusJSON(b *jsonenc.Buffer, st *RunStatus) {
	b.Raw(`{"id":`)
	b.String(st.ID)
	b.Raw(`,"tenant":`)
	b.String(st.Tenant)
	b.Raw(`,"priority":`)
	b.Int(int64(st.Priority))
	b.Raw(`,"weight":`)
	b.Float(st.Weight)
	b.Raw(`,"state":`)
	b.String(string(st.State))
	b.Raw(`,"submitted":`)
	b.Time(st.Submitted)
	if !st.Started.IsZero() {
		b.Raw(`,"started":`)
		b.Time(st.Started)
	}
	if !st.Finished.IsZero() {
		b.Raw(`,"finished":`)
		b.Time(st.Finished)
	}
	b.Raw(`,"queueSeconds":`)
	b.Float(st.QueueSeconds)
	b.Raw(`,"runSeconds":`)
	b.Float(st.RunSeconds)
	if st.Preemptions != 0 {
		b.Raw(`,"preemptions":`)
		b.Int(int64(st.Preemptions))
	}
	if st.Placement != "" {
		b.Raw(`,"placement":`)
		b.String(st.Placement)
	}
	if st.Attempt != 0 {
		b.Raw(`,"attempt":`)
		b.Int(int64(st.Attempt))
	}
	if st.Failovers != 0 {
		b.Raw(`,"failovers":`)
		b.Int(int64(st.Failovers))
	}
	if st.Error != "" {
		b.Raw(`,"error":`)
		b.String(st.Error)
	}
	if st.Resumable {
		b.Raw(`,"resumable":true`)
	}
	if st.CheckpointDir != "" {
		b.Raw(`,"checkpointDir":`)
		b.String(st.CheckpointDir)
	}
	if st.Result != nil {
		b.Raw(`,"result":`)
		appendResultJSON(b, st.Result)
	}
	b.Byte('}')
}

// appendResultJSON appends a core.RunResult with its Go field names (the
// struct carries no json tags).
func appendResultJSON(b *jsonenc.Buffer, r *core.RunResult) {
	b.Raw(`{"Strategy":`)
	b.String(r.Strategy)
	b.Raw(`,"TotalTime":`)
	b.Float(r.TotalTime)
	b.Raw(`,"ComputeTime":`)
	b.Float(r.ComputeTime)
	b.Raw(`,"CommTime":`)
	b.Float(r.CommTime)
	b.Raw(`,"PartitionTime":`)
	b.Float(r.PartitionTime)
	b.Raw(`,"MigrationTime":`)
	b.Float(r.MigrationTime)
	b.Raw(`,"MaxImbalance":`)
	b.Float(r.MaxImbalance)
	b.Raw(`,"AvgImbalance":`)
	b.Float(r.AvgImbalance)
	b.Raw(`,"AMREfficiency":`)
	b.Float(r.AMREfficiency)
	b.Raw(`,"Switches":`)
	b.Int(int64(r.Switches))
	b.Raw(`,"Recoveries":`)
	b.Int(int64(r.Recoveries))
	b.Raw(`,"DegradedRegrids":`)
	b.Int(int64(r.DegradedRegrids))
	b.Raw(`,"Steps":`)
	b.Int(int64(r.Steps))
	b.Raw(`,"Snapshots":`)
	if r.Snapshots == nil {
		b.Raw(`null`)
	} else {
		b.Byte('[')
		for i := range r.Snapshots {
			if i > 0 {
				b.Byte(',')
			}
			appendSnapshotStatJSON(b, &r.Snapshots[i])
		}
		b.Byte(']')
	}
	b.Byte('}')
}

func appendSnapshotStatJSON(b *jsonenc.Buffer, s *core.SnapshotStat) {
	b.Raw(`{"Index":`)
	b.Int(int64(s.Index))
	b.Raw(`,"Partitioner":`)
	b.String(s.Partitioner)
	b.Raw(`,"Quality":{"CommVolume":`)
	b.Float(s.Quality.CommVolume)
	b.Raw(`,"CommMessages":`)
	b.Float(s.Quality.CommMessages)
	b.Raw(`,"Imbalance":`)
	b.Float(s.Quality.Imbalance)
	b.Raw(`,"Migration":`)
	b.Float(s.Quality.Migration)
	b.Raw(`,"PartitionTime":`)
	b.Int(int64(s.Quality.PartitionTime))
	b.Raw(`,"Overhead":`)
	b.Float(s.Quality.Overhead)
	b.Raw(`},"StepTime":`)
	b.Float(s.StepTime)
	b.Raw(`,"Overhead":`)
	b.Float(s.Overhead)
	b.Byte('}')
}

// statusJSONLocked looks up id and appends its status document under the
// scheduler lock, reporting whether the run exists. The lock scope is one
// map probe plus an in-memory append — the same footprint Status has.
func (s *Scheduler) statusJSONLocked(id string, b *jsonenc.Buffer) bool {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	st := r.status()
	appendStatusJSON(b, &st)
	s.mu.Unlock()
	return true
}
