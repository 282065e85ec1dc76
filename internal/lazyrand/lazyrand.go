// Package lazyrand provides a rand.Source64 whose value stream is that of
// math/rand's own source (rand.NewSource) bit for bit, for every seed, but
// whose Seed costs O(1) instead of 1 841 LCG steps.
//
// The trace generators draw a handful of numbers from a freshly seeded
// generator at every snapshot: the features are a pure function of (seed,
// snapshot), so the seed cannot be hoisted. math/rand's source fills all
// 607 words of its lagged-Fibonacci register at Seed; a generator that
// draws k values reads at most 2k of them. Source computes each register
// word the first time a draw reads it, with the seeding LCG jumped ahead
// to that word, and marks it computed.
//
// Get and Put recycle seeded generators through a pool: a Source is about
// 4.9 KB, its register and its computed mask.
package lazyrand

import (
	"math/rand"
	"reflect"
	"sync"
)

// The parameters of math/rand's source: the register length and tap, and
// the seeding LCG x ← 48271·x mod (2³¹−1) that fills the register.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 20 // LCG steps Seed discards before word 0
	maskLen  = (rngLen + 63) / 64
)

// mults[j] is lcgMul^(lcgSkip+1+j) mod int32max: word i of the register
// combines the LCG values at steps lcgSkip+1+3i+k, k = 0, 1, 2, from the
// seed.
var mults [3 * rngLen]uint64

// cooked is math/rand's rngCooked table, the constant that Seed XORs into
// every register word. It is read back from a math/rand source at init.
var cooked [rngLen]int64

// cookedSeed seeds the math/rand source cooked is read from; any seed
// would do.
const cookedSeed = 1

func init() {
	m := uint64(1)
	for range lcgSkip + 1 {
		m = m * lcgMul % int32max
	}
	for j := range mults {
		mults[j] = m
		m = m * lcgMul % int32max
	}
	vec := register(cookedSeed)
	for i := range cooked {
		cooked[i] = vec.Index(i).Int() ^ lcgWord(cookedSeed, i)
	}
	// Another seed's register checks the LCG part: were math/rand seeded
	// otherwise, cooked would hold garbage and every stream would differ.
	vec = register(cookedSeed + 1)
	for i := range cooked {
		if vec.Index(i).Int() != lcgWord(cookedSeed+1, i)^cooked[i] {
			panic("lazyrand: math/rand's source is not seeded as Source is")
		}
	}
}

// register returns the feedback register of rand.NewSource(seed), read
// only, through reflect.
func register(seed int64) reflect.Value {
	var vec reflect.Value
	if src := reflect.ValueOf(rand.NewSource(seed)); src.Kind() == reflect.Pointer && src.Elem().Kind() == reflect.Struct {
		vec = src.Elem().FieldByName("vec")
	}
	if vec.Kind() != reflect.Array || vec.Len() != rngLen || vec.Type().Elem().Kind() != reflect.Int64 {
		panic("lazyrand: math/rand's source has no [607]int64 register")
	}
	return vec
}

// lcgWord is the LCG part of register word i for a normalized seed: the
// three LCG values Seed combines into that word, shifted and XORed as it
// does.
func lcgWord(seed uint64, i int) int64 {
	x0 := int64(seed * mults[3*i] % int32max)
	x1 := int64(seed * mults[3*i+1] % int32max)
	x2 := int64(seed * mults[3*i+2] % int32max)
	return x0<<40 ^ x1<<20 ^ x2
}

// Source is a rand.Source64 with the value stream of rand.NewSource.
// Create one with New; it is not safe for concurrent use.
type Source struct {
	seed      uint64 // normalized: in [1, int32max)
	tap, feed int
	done      [maskLen]uint64 // bit i: vec[i] holds the register's word i
	vec       [rngLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state rand.NewSource(seed) starts in. The register
// words are computed as draws read them.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.done = [maskLen]uint64{}
}

// word returns register word i, computing it on its first read since Seed.
func (s *Source) word(i int) int64 {
	if s.done[i>>6]&(1<<(i&63)) == 0 {
		s.done[i>>6] |= 1 << (i & 63)
		s.vec[i] = lcgWord(s.seed, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next value, as rand.NewSource's Uint64 does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared, as
// rand.NewSource's Int63 does.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// pool recycles generators over a Source.
var pool = sync.Pool{New: func() any { return rand.New(New(1)) }}

// Get returns a generator in exactly the state rand.New(rand.NewSource(seed))
// starts in. Hand it back with Put once done with it.
func Get(seed int64) *rand.Rand {
	rng := pool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// Put returns a generator from Get to the pool.
func Put(rng *rand.Rand) { pool.Put(rng) }
