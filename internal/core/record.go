package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"

	"github.com/pragma-grid/pragma/internal/partition"
)

// The binary layout of one checkpoint record. Signed integers are zigzag
// varints, lengths uvarints, floats their IEEE-754 bits (8 bytes little
// endian), strings and byte slices a length and the bytes:
//
//	format byte (checkpointFormat)
//	Trace, Snapshots, Strategy, NProcs
//	From, Next
//	SimTime, ImbSum, EffSum, ComputeTime, CommTime, PartitionTime,
//	  MigrationTime, MaxImbalance
//	PrevLabel
//	Degraded, Switches, Recoveries, Steps
//	len(Stats), then per stat: Index, Partitioner, CommVolume,
//	  CommMessages, Imbalance, Migration, PartitionTime (ns), Overhead
//	  (Quality), StepTime, Overhead
//	the tail, decoded only for the record a resume continues from:
//	  assignment present (0|1), then NProcs, len(Units), per unit Level,
//	  Box.Lo, Box.Hi, Weight, then len(Owner), the owners, SplitCost
//	  StrategyState
//
// Every length is checked against the bytes that remain (times the
// smallest encoding of one element) before anything is allocated.
const checkpointFormat = 1

// Smallest encodings of one element, for the length checks.
const (
	minStatBytes = 2 + 7*8 + 1 // index, empty name, seven floats, a duration
	minUnitBytes = 7 + 8       // level and six coordinates, weight
)

var (
	errBadRecord = errors.New("malformed checkpoint record")
	errBadResult = errors.New("malformed run result")
)

// appendCheckpoint appends c's encoding to b.
func appendCheckpoint(b []byte, c *Checkpoint) []byte {
	b = append(b, checkpointFormat)
	b = appendString(b, c.Trace)
	b = appendInt(b, c.Snapshots)
	b = appendString(b, c.Strategy)
	b = appendInt(b, c.NProcs)
	b = appendInt(b, c.From)
	b = appendInt(b, c.Next)
	for _, f := range [...]float64{c.SimTime, c.ImbSum, c.EffSum, c.ComputeTime, c.CommTime,
		c.PartitionTime, c.MigrationTime, c.MaxImbalance} {
		b = appendFloat(b, f)
	}
	b = appendString(b, c.PrevLabel)
	for _, n := range [...]int{c.Degraded, c.Switches, c.Recoveries, c.Steps} {
		b = appendInt(b, n)
	}
	b = appendStats(b, c.Stats)
	if a := c.PrevAssignment; a == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendInt(b, a.NProcs)
		b = binary.AppendUvarint(b, uint64(len(a.Units)))
		for i := range a.Units {
			u := &a.Units[i]
			b = appendInt(b, u.Level)
			for _, x := range [...]int{u.Box.Lo[0], u.Box.Lo[1], u.Box.Lo[2], u.Box.Hi[0], u.Box.Hi[1], u.Box.Hi[2]} {
				b = appendInt(b, x)
			}
			b = appendFloat(b, u.Weight)
		}
		b = binary.AppendUvarint(b, uint64(len(a.Owner)))
		for _, o := range a.Owner {
			b = appendInt(b, o)
		}
		b = appendFloat(b, a.SplitCost)
	}
	return appendBytes(b, c.StrategyState)
}

// appendStats appends len(stats) and each stat: the per-regrid encoding
// the checkpoint record and the RunResult share.
func appendStats(b []byte, stats []SnapshotStat) []byte {
	b = binary.AppendUvarint(b, uint64(len(stats)))
	for i := range stats {
		s := &stats[i]
		b = appendInt(b, s.Index)
		b = appendString(b, s.Partitioner)
		for _, f := range [...]float64{s.Quality.CommVolume, s.Quality.CommMessages, s.Quality.Imbalance, s.Quality.Migration} {
			b = appendFloat(b, f)
		}
		b = binary.AppendVarint(b, int64(s.Quality.PartitionTime))
		for _, f := range [...]float64{s.Quality.Overhead, s.StepTime, s.Overhead} {
			b = appendFloat(b, f)
		}
	}
	return b
}

func appendInt(b []byte, n int) []byte {
	return binary.AppendVarint(b, int64(n))
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// decodeHead decodes a record up to its tail over c and returns the
// tail's bytes. The record's stats are appended to c.Stats, and a name
// equal to the one c already holds (or to the stat before) is kept rather
// than allocated again, so a fold that decodes record after record over
// one Checkpoint allocates only its stats and the names that change.
func (c *Checkpoint) decodeHead(p []byte) ([]byte, error) {
	r := recordReader{b: p}
	if r.byte() != checkpointFormat {
		return nil, errBadRecord
	}
	c.Trace = r.stringLike(c.Trace)
	c.Snapshots = r.int()
	c.Strategy = r.stringLike(c.Strategy)
	c.NProcs = r.int()
	c.From = r.int()
	c.Next = r.int()
	for _, f := range [...]*float64{&c.SimTime, &c.ImbSum, &c.EffSum, &c.ComputeTime, &c.CommTime,
		&c.PartitionTime, &c.MigrationTime, &c.MaxImbalance} {
		*f = r.float()
	}
	c.PrevLabel = r.stringLike(c.PrevLabel)
	for _, n := range [...]*int{&c.Degraded, &c.Switches, &c.Recoveries, &c.Steps} {
		*n = r.int()
	}
	c.Stats = r.stats(c.Stats)
	if r.err != nil {
		return nil, r.err
	}
	return r.b, nil
}

// decodeTail decodes the assignment and strategy state, which must use up
// the tail exactly.
func (c *Checkpoint) decodeTail(tail []byte) error {
	r := recordReader{b: tail}
	switch r.byte() {
	case 0:
	case 1:
		a := &partition.Assignment{NProcs: r.int()}
		if n := r.count(minUnitBytes); n > 0 {
			a.Units = make([]partition.Unit, n)
			for i := range a.Units {
				u := &a.Units[i]
				u.Level = r.int()
				for _, x := range [...]*int{&u.Box.Lo[0], &u.Box.Lo[1], &u.Box.Lo[2], &u.Box.Hi[0], &u.Box.Hi[1], &u.Box.Hi[2]} {
					*x = r.int()
				}
				u.Weight = r.float()
			}
		}
		if n := r.count(1); n > 0 {
			a.Owner = make([]int, n)
			for i := range a.Owner {
				a.Owner[i] = r.int()
			}
		}
		a.SplitCost = r.float()
		c.PrevAssignment = a
	default:
		r.fail()
	}
	if n := r.count(1); n > 0 {
		c.StrategyState = append([]byte(nil), r.next(n)...)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	return r.err
}

// MarshalBinary encodes the result in the record's field encodings:
// Strategy, TotalTime, ComputeTime, CommTime, PartitionTime,
// MigrationTime, MaxImbalance, AvgImbalance, AMREfficiency, Switches,
// Recoveries, DegradedRegrids, Steps, then the snapshots as the record
// stores its stats. Every float keeps its bits, NaN and -0 included.
func (res *RunResult) MarshalBinary() ([]byte, error) {
	b := appendString(nil, res.Strategy)
	for _, f := range [...]float64{res.TotalTime, res.ComputeTime, res.CommTime, res.PartitionTime,
		res.MigrationTime, res.MaxImbalance, res.AvgImbalance, res.AMREfficiency} {
		b = appendFloat(b, f)
	}
	for _, n := range [...]int{res.Switches, res.Recoveries, res.DegradedRegrids, res.Steps} {
		b = appendInt(b, n)
	}
	return appendStats(b, res.Snapshots), nil
}

// UnmarshalBinary decodes what MarshalBinary wrote, which must use up
// data exactly. No snapshot is allocated that data could not hold.
func (res *RunResult) UnmarshalBinary(data []byte) error {
	r := recordReader{b: data}
	out := RunResult{Strategy: r.string()}
	for _, f := range [...]*float64{&out.TotalTime, &out.ComputeTime, &out.CommTime, &out.PartitionTime,
		&out.MigrationTime, &out.MaxImbalance, &out.AvgImbalance, &out.AMREfficiency} {
		*f = r.float()
	}
	for _, n := range [...]*int{&out.Switches, &out.Recoveries, &out.DegradedRegrids, &out.Steps} {
		*n = r.int()
	}
	out.Snapshots = r.stats(nil)
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	if r.err != nil {
		return errBadResult
	}
	*res = out
	return nil
}

// recordReader consumes a record front to back. The first malformed field
// sets err and empties the input, so every later read yields zero.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) fail() {
	r.err, r.b = errBadRecord, nil
}

func (r *recordReader) next(n int) []byte {
	if n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *recordReader) byte() byte {
	if v := r.next(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *recordReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recordReader) int() int { return int(r.varint()) }

func (r *recordReader) float() float64 {
	if v := r.next(8); v != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(v))
	}
	return 0
}

// count reads a length and checks that that many elements of at least
// minSize bytes each fit in what remains.
func (r *recordReader) count(minSize int) int {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > uint64(len(r.b)-n)/uint64(minSize) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *recordReader) string() string { return string(r.next(r.count(1))) }

// stringLike reads a string and returns like itself when the bytes equal
// it, so an unchanged name costs no allocation.
func (r *recordReader) stringLike(like string) string {
	if b := r.next(r.count(1)); string(b) != like {
		return string(b)
	}
	return like
}

// stats appends what appendStats wrote to dst, which it returns unchanged
// when there are none. A stat's Partitioner equal to the one before it
// shares that string.
func (r *recordReader) stats(dst []SnapshotStat) []SnapshotStat {
	n := r.count(minStatBytes)
	if n == 0 {
		return dst
	}
	old := len(dst)
	dst = slices.Grow(dst, n)[:old+n]
	for i := old; i < len(dst); i++ {
		s := &dst[i]
		*s = SnapshotStat{Index: r.int()}
		like := ""
		if i > 0 {
			like = dst[i-1].Partitioner
		}
		s.Partitioner = r.stringLike(like)
		for _, f := range [...]*float64{&s.Quality.CommVolume, &s.Quality.CommMessages, &s.Quality.Imbalance, &s.Quality.Migration} {
			*f = r.float()
		}
		s.Quality.PartitionTime = time.Duration(r.varint())
		for _, f := range [...]*float64{&s.Quality.Overhead, &s.StepTime, &s.Overhead} {
			*f = r.float()
		}
	}
	return dst
}
