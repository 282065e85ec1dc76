package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// randomRunResult builds a result from the fields of a random checkpoint
// record, so it meets the same NaN payloads, infinities, -0, extreme
// integers and nil, empty and populated snapshot lists.
func randomRunResult(rng *rand.Rand) *RunResult {
	c := randomCheckpoint(rng)
	return &RunResult{
		Strategy: c.Strategy, TotalTime: c.SimTime, ComputeTime: c.ComputeTime, CommTime: c.CommTime,
		PartitionTime: c.PartitionTime, MigrationTime: c.MigrationTime, MaxImbalance: c.MaxImbalance,
		AvgImbalance: c.ImbSum, AMREfficiency: c.EffSum, Switches: c.Switches, Recoveries: c.Recoveries,
		DegradedRegrids: c.Degraded, Steps: c.Steps, Snapshots: c.Stats,
	}
}

// FuzzRunResultBinary: arbitrary bytes never panic the result decoder,
// allocate no more snapshots than the input could encode, and what it
// accepts round-trips; a random result built from the
// seed round-trips bit for bit, NaN, ±Inf and -0 included.
func FuzzRunResultBinary(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint64(1))
	small, _ := (&RunResult{
		Strategy: "adaptive", TotalTime: math.NaN(), MaxImbalance: math.Inf(1), Steps: 4,
		Snapshots: []SnapshotStat{{Index: 1, Partitioner: "SFC", StepTime: math.Copysign(0, -1)}},
	}).MarshalBinary()
	f.Add(small, uint64(2))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var got RunResult
		if err := got.UnmarshalBinary(data); err == nil {
			if len(got.Snapshots)*minStatBytes > len(data) {
				t.Fatalf("decoded %d snapshots from %d bytes", len(got.Snapshots), len(data))
			}
			enc, _ := got.MarshalBinary()
			var again RunResult
			if err := again.UnmarshalBinary(enc); err != nil || !bitsEqual(reflect.ValueOf(again), reflect.ValueOf(got)) {
				t.Fatalf("accepted result does not round-trip (%v)", err)
			}
		}

		want := randomRunResult(rand.New(rand.NewPCG(seed, seed)))
		enc, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back RunResult
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decoding an encoded result: %v", err)
		}
		if !bitsEqual(reflect.ValueOf(back), reflect.ValueOf(*want)) {
			t.Fatalf("round trip changed the result\n got %+v\nwant %+v", back, *want)
		}
		for cut := 0; cut < len(enc); cut++ {
			if err := back.UnmarshalBinary(enc[:cut]); err == nil {
				t.Fatalf("a result cut to %d of %d bytes decoded", cut, len(enc))
			}
		}
	})
}
