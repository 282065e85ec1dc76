package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// decodeCheckpointHead decodes a record's head into a fresh Checkpoint.
func decodeCheckpointHead(p []byte) (*Checkpoint, []byte, error) {
	c := &Checkpoint{}
	tail, err := c.decodeHead(p)
	if err != nil {
		return nil, nil, err
	}
	return c, tail, nil
}

// foldCheckpoint folds records as a resume does when Store.Scan visits
// them in this order.
func foldCheckpoint(recs []checkpoint.Record) (*Checkpoint, error) {
	var f checkpointFold
	for _, r := range recs {
		if !f.add(r.Seq, r.Payload) {
			break
		}
	}
	return f.result()
}

// decodeCheckpoint decodes a whole record.
func decodeCheckpoint(p []byte) (*Checkpoint, error) {
	c, tail, err := decodeCheckpointHead(p)
	if err != nil {
		return nil, err
	}
	if err := c.decodeTail(tail); err != nil {
		return nil, err
	}
	return c, nil
}

// bitsEqual compares two values field by field, floats by their bits (so
// NaN payloads and -0 count), and nil and empty slices as equal.
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("bitsEqual: unhandled kind " + a.Kind().String())
}

// randomCheckpoint builds a record from rng, favouring the values an
// encoding gets wrong: NaN payloads, infinities, -0, extreme integers,
// and nil, empty and populated slices.
func randomCheckpoint(rng *rand.Rand) *Checkpoint {
	specials := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000000), // negative NaN
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	f := func() float64 {
		if rng.IntN(2) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	n := func() int {
		switch rng.IntN(4) {
		case 0:
			return math.MinInt
		case 1:
			return math.MaxInt
		}
		return rng.IntN(1<<20) - 1<<19
	}
	str := func() string {
		b := make([]byte, rng.IntN(12))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return string(b)
	}
	c := &Checkpoint{
		Trace: str(), Snapshots: n(), Strategy: str(), NProcs: n(),
		From: n(), Next: n(), SimTime: f(), PrevLabel: str(), ImbSum: f(), EffSum: f(),
		Degraded: n(), ComputeTime: f(), CommTime: f(), PartitionTime: f(), MigrationTime: f(),
		MaxImbalance: f(), Switches: n(), Recoveries: n(), Steps: n(),
	}
	if k := rng.IntN(5); k > 0 || rng.IntN(2) == 0 {
		c.Stats = make([]SnapshotStat, k)
		for i := range c.Stats {
			c.Stats[i] = SnapshotStat{
				Index: n(), Partitioner: str(),
				Quality: partition.Quality{
					CommVolume: f(), CommMessages: f(), Imbalance: f(), Migration: f(),
					PartitionTime: time.Duration(n()), Overhead: f(),
				},
				StepTime: f(), Overhead: f(),
			}
		}
	}
	switch rng.IntN(4) {
	case 0: // no assignment
	case 1:
		c.PrevAssignment = &partition.Assignment{NProcs: n(), SplitCost: f()}
	default:
		a := &partition.Assignment{NProcs: n(), SplitCost: f()}
		for i := rng.IntN(40); i > 0; i-- {
			a.Units = append(a.Units, partition.Unit{
				Level:  n(),
				Box:    samr.Box{Lo: samr.Point{n(), n(), n()}, Hi: samr.Point{n(), n(), n()}},
				Weight: f(),
			})
			a.Owner = append(a.Owner, n())
		}
		if rng.IntN(4) == 0 { // owners need not match units in a record
			a.Owner = append(a.Owner, n())
		}
		c.PrevAssignment = a
	}
	if rng.IntN(3) > 0 {
		c.StrategyState = []byte(str())
	}
	return c
}

// FuzzRunRecord: arbitrary bytes never panic the record decoder, nothing
// it allocates is longer than the input could encode, and what it accepts
// round-trips; a random record built from the seed round-trips bit for
// bit.
func FuzzRunRecord(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{checkpointFormat}, uint64(1))
	f.Add([]byte{checkpointFormat, 0xff, 0xff, 0xff, 0xff, 0x0f}, uint64(2))
	// Small valid records: the fuzzer minimizes interesting inputs by
	// trying byte subsets, which is quadratic in their length.
	small := &Checkpoint{
		Trace: "t", Snapshots: 3, Strategy: "s", NProcs: 2, From: 1, Next: 2,
		SimTime: 1.5, Stats: []SnapshotStat{{Index: 1, Partitioner: "SFC", StepTime: 0.25}},
		PrevAssignment: &partition.Assignment{
			NProcs: 2, Units: []partition.Unit{{Level: 1, Box: samr.MakeBox(2, 1, 1), Weight: 3}}, Owner: []int{1},
		},
		StrategyState: []byte("{}"),
	}
	f.Add(appendCheckpoint(nil, small), uint64(3))
	small.PrevAssignment, small.StrategyState = nil, nil
	f.Add(appendCheckpoint(nil, small), uint64(4))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if c, err := decodeCheckpoint(data); err == nil {
			if len(c.Stats)*minStatBytes > len(data) || len(c.StrategyState) > len(data) {
				t.Fatalf("decoded %d stats and %d state bytes from %d bytes", len(c.Stats), len(c.StrategyState), len(data))
			}
			if a := c.PrevAssignment; a != nil && (len(a.Units)*minUnitBytes > len(data) || len(a.Owner) > len(data)) {
				t.Fatalf("decoded %d units and %d owners from %d bytes", len(a.Units), len(a.Owner), len(data))
			}
			again, err := decodeCheckpoint(appendCheckpoint(nil, c))
			if err != nil || !bitsEqual(reflect.ValueOf(again).Elem(), reflect.ValueOf(c).Elem()) {
				t.Fatalf("accepted record does not round-trip (%v)", err)
			}
		}

		want := randomCheckpoint(rand.New(rand.NewPCG(seed, seed)))
		enc := appendCheckpoint(nil, want)
		got, err := decodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("decoding an encoded record: %v", err)
		}
		if !bitsEqual(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
			t.Fatalf("round trip changed the record\n got %+v\nwant %+v", got, want)
		}
		if head, tail, err := decodeCheckpointHead(enc); err != nil || !bytes.HasSuffix(enc, tail) || head.PrevAssignment != nil {
			t.Fatalf("head decode: %v", err)
		}
	})
}

// TestFoldStopsAtBrokenChain: a resume takes records only while each
// continues the one before it — same run, From at the running Next, and
// exactly the stats of [From, Next) indexed in order — so the folded
// Result.Snapshots always holds Next stats indexed 0…Next-1.
func TestFoldStopsAtBrokenChain(t *testing.T) {
	rec := func(from, next int, mut func(*Checkpoint)) checkpoint.Record {
		c := &Checkpoint{Trace: "t", Snapshots: 9, Strategy: "s", NProcs: 2, From: from, Next: next}
		for i := from; i < next; i++ {
			c.Stats = append(c.Stats, SnapshotStat{Index: i})
		}
		if mut != nil {
			mut(c)
		}
		return checkpoint.Record{Seq: next, Payload: appendCheckpoint(nil, c)}
	}
	good := []checkpoint.Record{rec(0, 2, nil), rec(2, 3, nil)}
	for _, tc := range []struct {
		name string
		bad  checkpoint.Record
	}{
		{"gap", rec(4, 5, nil)},
		{"overlap", rec(2, 4, nil)},
		{"stat index", rec(3, 5, func(c *Checkpoint) { c.Stats[1].Index = 3 })},
		{"missing stat", rec(3, 5, func(c *Checkpoint) { c.Stats = c.Stats[:1] })},
		{"other run", rec(3, 4, func(c *Checkpoint) { c.NProcs = 4 })},
		{"sequence number", func() checkpoint.Record { r := rec(3, 4, nil); r.Seq = 7; return r }()},
		{"undecodable", checkpoint.Record{Seq: 4, Payload: []byte{checkpointFormat, 0xff}}},
	} {
		recs := append(append([]checkpoint.Record(nil), good...), tc.bad, rec(3, 4, nil))
		ck, err := foldCheckpoint(recs)
		if err != nil || ck == nil || ck.Next != 3 || len(ck.Stats) != 3 {
			t.Errorf("%s: folded to %+v (%v), want the state at regrid 3", tc.name, ck, err)
		}
	}
	if ck, err := foldCheckpoint([]checkpoint.Record{rec(1, 2, nil)}); err != nil || ck != nil {
		t.Errorf("a log whose first record is not a full base folded to %+v (%v), want nothing", ck, err)
	}
}

// TestFoldKeepsEveryName: the fold shares a name with the one it
// replaces only when their bytes are equal, so names of one length that
// differ stay apart.
func TestFoldKeepsEveryName(t *testing.T) {
	var recs []checkpoint.Record
	var want []SnapshotStat
	for i, name := range []string{"SFC", "CGD", "SFC", "SFC", "GPA"} {
		c := &Checkpoint{Trace: "t", Snapshots: 9, Strategy: "s", NProcs: 2, From: i, Next: i + 1,
			PrevLabel: name, Stats: []SnapshotStat{{Index: i, Partitioner: name}}}
		want = append(want, c.Stats...)
		recs = append(recs, checkpoint.Record{Seq: i + 1, Payload: appendCheckpoint(nil, c)})
	}
	ck, err := foldCheckpoint(recs)
	if err != nil || ck == nil || ck.PrevLabel != "GPA" || !reflect.DeepEqual(ck.Stats, want) {
		t.Fatalf("folded to %+v (%v), want label GPA and stats %+v", ck, err, want)
	}
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResumeFoldMemoryIsBounded: a resume folds the log while it reads
// it, holding one record besides the folded stats, so folding 200
// records the size of a paper run's (64 processors, about 7 KB each)
// allocates no more than folding 50, within two records, once the stats
// slice the fold returns is set aside.
func TestResumeFoldMemoryIsBounded(t *testing.T) {
	a := &partition.Assignment{NProcs: 64, SplitCost: 0.5}
	for i := range 380 {
		lo := samr.Point{8 * (i % 40), 8 * (i / 40), 0}
		a.Units = append(a.Units, partition.Unit{
			Level: i % 3, Box: samr.Box{Lo: lo, Hi: samr.Point{lo[0] + 8, lo[1] + 8, 16}}, Weight: float64(i) + 0.5,
		})
		a.Owner = append(a.Owner, i%64)
	}
	var recordBytes int
	fold := func(n int) uint64 {
		dir := t.TempDir()
		st := &checkpoint.Store{Dir: dir}
		for next := 1; next <= n; next++ {
			p := appendCheckpoint(nil, &Checkpoint{
				Trace: "rm3d-paper", Snapshots: 202, Strategy: "adaptive", NProcs: 64, From: next - 1, Next: next,
				SimTime: float64(next), PrevLabel: "G-MISP+SP", Steps: 4 * next, PrevAssignment: a,
				Stats: []SnapshotStat{{Index: next - 1, Partitioner: "G-MISP+SP", StepTime: 1.25, Overhead: 0.01}},
			})
			recordBytes = len(p)
			if _, err := st.Save(next, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		var ck *Checkpoint
		var err error
		allocated := allocatedBy(func() { ck, err = ReadCheckpoint(dir) })
		if err != nil || ck == nil || ck.Next != n || len(ck.Stats) != n || len(ck.PrevAssignment.Units) != len(a.Units) {
			t.Fatalf("folding %d records: %+v, %v", n, ck, err)
		}
		// The fold grows its stats slice one record at a time.
		var stats []SnapshotStat
		statBytes := allocatedBy(func() {
			for i := range n {
				stats = slices.Grow(stats, 1)[:i+1]
			}
		})
		return allocated - min(statBytes, allocated)
	}
	short, long := fold(50), fold(200)
	if long > short+uint64(2*recordBytes) {
		t.Fatalf("folding 200 records allocated %d bytes besides the stats, 50 records %d: more than two %d-byte records apart",
			long, short, recordBytes)
	}
}

// TestRecordsCarryOneIntervalEach:a run's first record is a full base and
// every later one carries only the stats since the record before it; the
// log folds back into every stat.
func TestRecordsCarryOneIntervalEach(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()
	if _, err := Run(tr, Adaptive{ImbalanceGuard: 20}, crashConfig(dir)); err != nil {
		t.Fatal(err)
	}
	recs := records(t, dir)
	if len(recs) != len(tr.Snapshots)-1 {
		t.Fatalf("%d records, want one per regrid boundary (%d)", len(recs), len(tr.Snapshots)-1)
	}
	for i, r := range recs {
		c, err := decodeCheckpoint(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		wantFrom := 0
		if i > 0 {
			wantFrom = recs[i-1].Seq
		}
		if c.From != wantFrom || c.Next != r.Seq || len(c.Stats) != c.Next-c.From {
			t.Fatalf("record %d: From %d Next %d with %d stats, want From %d Next %d", i, c.From, c.Next, len(c.Stats), wantFrom, r.Seq)
		}
	}
	ck, err := ReadCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("ReadCheckpoint: %v, %v", ck, err)
	}
	if ck.From != 0 || len(ck.Stats) != ck.Next || ck.Next != len(tr.Snapshots)-1 {
		t.Fatalf("folded state: From %d, %d stats, Next %d", ck.From, len(ck.Stats), ck.Next)
	}
}
