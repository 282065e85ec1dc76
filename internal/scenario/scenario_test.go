package scenario

import (
	"bytes"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/samr"
)

func TestDefaultSpecValidates(t *testing.T) {
	spec := Default()
	spec.Phases = []Phase{{Snapshots: 4, Drivers: []Driver{Sheet(Low)}}}
	if err := spec.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() Spec {
		spec := Default()
		spec.Phases = []Phase{{Snapshots: 4, Drivers: []Driver{Sheet(Low)}}}
		return spec
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"tiny dim", func(s *Spec) { s.BaseDims[1] = 4 }, "too small"},
		{"huge dim", func(s *Spec) { s.BaseDims[0] = 4096 }, "too large"},
		{"huge grid", func(s *Spec) { s.BaseDims = [3]int{512, 512, 512} }, "too large"},
		{"bad depth", func(s *Spec) { s.MaxDepth = 9 }, "depth"},
		{"bad ratio", func(s *Spec) { s.Ratio = 1 }, "ratio"},
		{"bad regrid", func(s *Spec) { s.RegridEvery = 0 }, "regrid"},
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"no drivers", func(s *Spec) { s.Phases[0].Drivers = nil }, "no drivers"},
		{"zero snapshots", func(s *Spec) { s.Phases[0].Snapshots = 0 }, "snapshots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestParseSpecOptionsAndPhases(t *testing.T) {
	spec, err := ParseSpec("name=demo;dims=32x24x16;seed=99;regrid=2;depth=2;shock:5,block+background4:3,I:4")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "demo" || spec.BaseDims != [3]int{32, 24, 16} || spec.Seed != 99 ||
		spec.RegridEvery != 2 || spec.MaxDepth != 2 {
		t.Fatalf("options not applied: %+v", spec)
	}
	if len(spec.Phases) != 3 {
		t.Fatalf("got %d phases", len(spec.Phases))
	}
	if got := spec.Phases[0].Label(); got != "sheet.high" {
		t.Errorf("phase 0 label %q", got)
	}
	if spec.Phases[0].Snapshots != 5 || spec.Phases[1].Snapshots != 3 || spec.Phases[2].Snapshots != 4 {
		t.Errorf("snapshot counts wrong: %+v", spec.Phases)
	}
	if got := spec.Phases[1].Label(); got != "block+background4" {
		t.Errorf("phase 1 label %q", got)
	}
	if o, ok := spec.Phases[2].Expected(); !ok || o != octant.I {
		t.Errorf("roman phase expectation = %v,%v", o, ok)
	}
	if spec.TotalSnapshots() != 12 {
		t.Errorf("total snapshots %d", spec.TotalSnapshots())
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("sheet")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Phases[0].Snapshots != 8 {
		t.Errorf("default snapshots %d, want 8", spec.Phases[0].Snapshots)
	}
	if spec.BaseDims != Default().BaseDims {
		t.Errorf("dims %v, want default", spec.BaseDims)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"",                 // no phases
		"warp:4",           // unknown driver
		"shock.low:4",      // contradictory alias
		"sheet:x",          // bad count
		"dims=32x32;sheet", // bad dims
		"speed=3;sheet",    // unknown option
		"sheet:4;block:4",  // two phase lists
		"+:4",              // empty drivers
		"sheet:4,",         // trailing comma is fine -> actually ok
		"seed=abc;sheet",   // bad seed
		"dims=0x0x0;sheet", // validates dims
		"sheets99x:4",      // trailing junk
	} {
		if s == "sheet:4," {
			if _, err := ParseSpec(s); err != nil {
				t.Errorf("%q: unexpected error %v", s, err)
			}
			continue
		}
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("%q: expected parse error", s)
		}
	}
}

func TestParseDriverRoundTripsNames(t *testing.T) {
	for _, d := range library() {
		got, err := ParseDriver(d.Name())
		if err != nil {
			t.Errorf("driver name %q does not re-parse: %v", d.Name(), err)
			continue
		}
		if got.Name() != d.Name() {
			t.Errorf("round trip %q -> %q", d.Name(), got.Name())
		}
		if got.Signature() != d.Signature() {
			t.Errorf("%q: signature changed in round trip", d.Name())
		}
	}
}

func TestSubSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for phase := 0; phase < 8; phase++ {
		for driver := 0; driver < 8; driver++ {
			s := SubSeed(42, phase, driver)
			if seen[s] {
				t.Fatalf("duplicate sub-seed at phase %d driver %d", phase, driver)
			}
			seen[s] = true
		}
	}
	if SubSeed(1, 0, 0) == SubSeed(2, 0, 0) {
		t.Error("different scenario seeds collide")
	}
}

// TestGenerateSeedDeterminism is the scenario half of the seed-explicit
// satellite: equal seeds produce byte-identical serialized traces, and
// different seeds change the layout.
func TestGenerateSeedDeterminism(t *testing.T) {
	gen := func(seed int64) []byte {
		spec := Default()
		spec.Seed = seed
		spec.Phases = []Phase{
			{Snapshots: 4, Drivers: []Driver{Sheet(High), Background(3)}},
			{Snapshots: 4, Drivers: []Driver{BlobField(3, Low)}},
		}
		tr, err := spec.Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var buf bytes.Buffer
		if err := samr.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("equal seeds produced different traces")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("different seeds produced identical traces")
	}
}

func TestTrajectoryAnnotatesPhases(t *testing.T) {
	spec := Default()
	spec.Phases = []Phase{
		{Snapshots: 3, Drivers: []Driver{Sheet(High)}},
		{Snapshots: 5, Drivers: []Driver{Sheet(Low), Block(Low)}},
	}
	traj := spec.Trajectory()
	if len(traj) != 2 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	if !traj[0].Known || traj[0].Octant != octant.V || traj[0].Start != 0 || traj[0].End != 3 {
		t.Errorf("phase 0 expectation %+v", traj[0])
	}
	// Mixed signatures (I vs III) yield no derived expectation.
	if traj[1].Known {
		t.Errorf("mixed phase unexpectedly has expectation %+v", traj[1])
	}
	spec.Phases[1].Expect = octant.III
	if o, ok := spec.Phases[1].Expected(); !ok || o != octant.III {
		t.Errorf("pinned expectation = %v,%v", o, ok)
	}
}

func TestGeneratedTracesValidate(t *testing.T) {
	spec, err := ParseSpec("seed=3;merge:10,point.high+bg3:6")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tr, err := spec.Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(tr.Snapshots) != 16 {
		t.Fatalf("got %d snapshots", len(tr.Snapshots))
	}
	for i, s := range tr.Snapshots {
		if err := s.H.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	// Serialization round-trips the generated trace.
	var buf bytes.Buffer
	if err := samr.WriteTrace(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := samr.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(back.Snapshots) != len(tr.Snapshots) {
		t.Fatalf("round trip lost snapshots: %d != %d", len(back.Snapshots), len(tr.Snapshots))
	}
}

// library returns every driver constructor's canonical instances: the
// eight octant witnesses plus the point source, merging fronts and
// background ingredients.
func library() []Driver {
	out := make([]Driver, 0, 12)
	for o := octant.I; o <= octant.VIII; o++ {
		out = append(out, ForOctant(o))
	}
	return append(out, PointSource(Low), PointSource(High), MergingFronts(), Background(4))
}

func TestActivityNamesAndDriverSuffix(t *testing.T) {
	if Low.String() != "low" || High.String() != "high" {
		t.Fatalf("activity names %q, %q", Low.String(), High.String())
	}
	for _, tc := range []struct {
		d    Driver
		want string
	}{
		{Sheet(Low), "sheet"},
		{Sheet(High), "sheet.high"},
		{SheetField(4, High), "sheets4.high"},
		{PointSource(Low), "point"},
	} {
		if got := tc.d.Name(); got != tc.want {
			t.Errorf("driver name %q, want %q", got, tc.want)
		}
	}
}
