package lazyrand

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// int32max as an int64, for seed arithmetic.
const m31 int64 = int32max

// seeds covers the normalization edges of Seed: zero (replaced by a fixed
// seed), ±1, multiples of 2³¹−1 (which normalize to zero), the extremes of
// int64, and a few arbitrary ones.
var seeds = []int64{
	0, 1, -1, m31, -m31, 2 * m31, m31 - 1, m31 + 1, -m31 - 1,
	math.MinInt64, math.MaxInt64, 89482311,
	7, 42, 2002, 1000 + 37*1009, -987654321, 0x5eed5eed5eed, rand.New(rand.NewSource(99)).Int63(),
}

// drawCounts straddles the register's tap (273) and feed (334) offsets,
// its length (607) and its second lap.
var drawCounts = []int{1, 272, 273, 274, 334, 606, 607, 608, 1214, 5000}

// TestSourceMatchesMathRand: for every seed, a generator over Source draws
// what one over rand.NewSource draws, through every rand.Rand method the
// generators call, past the register's wrap and across a re-seed.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		for _, n := range drawCounts {
			got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
			for i := range n {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
				}
			}
		}
		// One op of every kind, twice, with a re-seed between the laps.
		ops := make([]byte, 0, 2*numOps*40)
		for i := range cap(ops) {
			ops = append(ops, byte(i))
		}
		compareOps(t, seed, 300, ops)
	}
}

// numOps is the number of operations compareOps knows.
const numOps = 7

// compareOps seeds a generator over Source and one over rand.NewSource
// with seed, draws n Uint64s from each, then applies ops to both: each
// byte picks an operation (op % numOps) and its argument (op / numOps).
// Every result must agree.
func compareOps(t *testing.T, seed int64, n int, ops []byte) {
	t.Helper()
	got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
	for i := range n {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
		}
	}
	for i, op := range ops {
		arg := int(op/numOps) + 1
		var g, w any
		switch op % numOps {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Uint64(), want.Uint64()
		case 3:
			g, w = got.Intn(arg*arg*arg), want.Intn(arg*arg*arg)
		case 4:
			g, w = got.Int31n(int32(arg)), want.Int31n(int32(arg))
		case 5:
			g, w = got.Perm(arg%12), want.Perm(arg%12)
		case 6:
			s := seed ^ int64(arg)<<29
			got.Seed(s)
			want.Seed(s)
		}
		if p, ok := g.([]int); ok {
			if !slices.Equal(p, w.([]int)) {
				t.Fatalf("seed %d: op %d (%d): Perm %v, want %v", seed, i, op, p, w)
			}
		} else if g != w {
			t.Fatalf("seed %d: op %d (%d): %v, want %v", seed, i, op, g, w)
		}
	}
}

// TestDrawsComputeAtMostTwoWords: after Seed and k draws, at most 2k
// register words have been computed, whatever the seed and however far
// the stream ran before the re-seed.
func TestDrawsComputeAtMostTwoWords(t *testing.T) {
	s := New(1)
	for _, seed := range seeds[:6] {
		for _, before := range []int{0, 3, 700} {
			for range before {
				s.Uint64()
			}
			s.Seed(seed)
			if c := computed(s); c != 0 {
				t.Fatalf("seed %d: %d words computed at Seed, want 0", seed, c)
			}
			for k := 1; k <= 2*rngLen; k++ {
				s.Uint64()
				if c := computed(s); c > 2*k {
					t.Fatalf("seed %d: %d words computed after %d draws", seed, c, k)
				}
			}
			if c := computed(s); c != rngLen {
				t.Fatalf("seed %d: %d words computed after two laps, want %d", seed, c, rngLen)
			}
		}
	}
}

// computed counts the register words s has computed since its Seed.
func computed(s *Source) int {
	n := 0
	for _, w := range s.done {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestGetIsFreshlySeeded: a pooled generator, whatever state it was put
// back in, draws what a fresh rand.NewSource with the same seed does.
func TestGetIsFreshlySeeded(t *testing.T) {
	for _, seed := range seeds {
		rng := Get(seed)
		want := rand.New(rand.NewSource(seed))
		for i := range 700 {
			if g, w := rng.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: pooled draw %d = %d, want %d", seed, i, g, w)
			}
		}
		Put(rng)
	}
}

// FuzzSourceMatchesMathRand: any seed, any number of leading draws and any
// sequence of operations give the same results over Source as over
// rand.NewSource.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(-1), uint16(606), []byte{13, 20, 6, 0})
	f.Add(int64(math.MinInt64), uint16(1214), []byte{5, 12, 19})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ops []byte) {
		compareOps(t, seed, int(n)%5000, ops)
	})
}

// BenchmarkSeedAndDraw seeds a Source and draws three values, as a trace
// generator does at a snapshot.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, tc := range []struct {
		name string
		src  rand.Source
	}{{"lazyrand", New(1)}, {"math-rand", rand.NewSource(1)}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(tc.src)
			for i := range b.N {
				rng.Seed(int64(i))
				rng.Float64()
				rng.Float64()
				rng.Float64()
			}
		})
	}
}
