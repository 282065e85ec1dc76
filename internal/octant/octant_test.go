package octant

import (
	"testing"

	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

func TestOctantAxesRoundTrip(t *testing.T) {
	for _, dyn := range []bool{false, true} {
		for _, comm := range []bool{false, true} {
			for _, scat := range []bool{false, true} {
				o := FromAxes(dyn, comm, scat)
				if !o.Valid() {
					t.Fatalf("FromAxes(%v,%v,%v) = %v invalid", dyn, comm, scat, o)
				}
				if o.HigherDynamics() != dyn || o.CommDominated() != comm || o.Scattered() != scat {
					t.Fatalf("axes of %v = (%v,%v,%v), want (%v,%v,%v)",
						o, o.HigherDynamics(), o.CommDominated(), o.Scattered(), dyn, comm, scat)
				}
			}
		}
	}
	// All eight octants are distinct.
	seen := map[Octant]bool{}
	for _, dyn := range []bool{false, true} {
		for _, comm := range []bool{false, true} {
			for _, scat := range []bool{false, true} {
				seen[FromAxes(dyn, comm, scat)] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("only %d distinct octants", len(seen))
	}
}

func TestOctantStrings(t *testing.T) {
	want := map[Octant]string{I: "I", II: "II", III: "III", IV: "IV", V: "V", VI: "VI", VII: "VII", VIII: "VIII"}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
	if Octant(0).Valid() || Octant(9).Valid() {
		t.Error("invalid octants reported valid")
	}
	if Octant(0).String() == "I" {
		t.Error("invalid octant stringified as valid")
	}
}

func TestClassifyAgainstThresholds(t *testing.T) {
	th := Thresholds{Dynamics: 0.5, CommRatio: 0.5, Dispersion: 0.5}
	cases := []struct {
		s    State
		want Octant
	}{
		{State{0.1, 0.9, 0.1}, I},
		{State{0.1, 0.9, 0.9}, II},
		{State{0.1, 0.1, 0.1}, III},
		{State{0.1, 0.1, 0.9}, IV},
		{State{0.9, 0.9, 0.1}, V},
		{State{0.9, 0.9, 0.9}, VI},
		{State{0.9, 0.1, 0.1}, VII},
		{State{0.9, 0.1, 0.9}, VIII},
	}
	for _, c := range cases {
		if got := Classify(c.s, th); got != c.want {
			t.Errorf("Classify(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
	// Boundary values fall into the upper half-space.
	if got := Classify(State{0.5, 0.5, 0.5}, th); got != VI {
		t.Errorf("boundary state = %v, want VI", got)
	}
}

// TestTable3Reproduction is the package's headline test: characterizing the
// RM3D adaptation trace must reproduce the paper's Table 3 octant states.
func TestTable3Reproduction(t *testing.T) {
	tr, err := rm3d.GenerateTrace(rm3d.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Octant{
		0:   IV,
		5:   VII,
		25:  I,
		106: VI,
		137: VIII,
		162: II,
		174: V,
		201: III,
	}
	th := DefaultThresholds()
	for idx, wantOct := range want {
		s, err := StateAt(tr, idx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := Classify(s, th); got != wantOct {
			t.Errorf("time-step %d: octant %v (state %+v), paper reports %v", idx, got, s, wantOct)
		}
	}
}

func TestCharacterizeTraceCoversAllOctants(t *testing.T) {
	tr, err := rm3d.GenerateTrace(rm3d.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chars, err := CharacterizeTrace(tr, DefaultThresholds(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != len(tr.Snapshots) {
		t.Fatalf("characterized %d of %d snapshots", len(chars), len(tr.Snapshots))
	}
	seen := map[Octant]bool{}
	for _, c := range chars {
		if !c.Octant.Valid() {
			t.Fatalf("snapshot %d: invalid octant", c.Index)
		}
		seen[c.Octant] = true
	}
	// The application "may start in one octant, then, as solution
	// progresses, migrate to others" — the RM3D trace visits all eight.
	if len(seen) != 8 {
		t.Fatalf("trace visits %d octants, want all 8: %v", len(seen), seen)
	}
	// CharacterizeTrace diffs each snapshot pair once and rolls the window;
	// it must report the very floats StateAt measures one index at a time.
	for _, window := range []int{0, 1, 3, 5} {
		chars, err := CharacterizeTrace(tr, DefaultThresholds(), window)
		if err != nil {
			t.Fatal(err)
		}
		for idx, c := range chars {
			s, err := StateAt(tr, idx, window)
			if err != nil {
				t.Fatal(err)
			}
			if c.Index != idx || c.State != s {
				t.Fatalf("window %d snapshot %d: CharacterizeTrace state %+v, StateAt %+v", window, idx, c.State, s)
			}
		}
	}
}

func TestStateAtValidation(t *testing.T) {
	tr := &samr.Trace{}
	if _, err := StateAt(tr, 0, 3); err == nil {
		t.Error("empty trace accepted")
	}
	h, _ := samr.NewHierarchy(samr.MakeBox(8, 8, 8), 2)
	tr = &samr.Trace{Snapshots: []samr.Snapshot{{Index: 0, H: h}}}
	if _, err := StateAt(tr, -1, 3); err == nil {
		t.Error("negative index accepted")
	}
	// Snapshot without refinement classifies as a zero state.
	s, err := StateAt(tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s != (State{}) {
		t.Fatalf("unrefined state = %+v, want zero", s)
	}
}
