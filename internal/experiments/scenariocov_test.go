package experiments

import "testing"

func TestScenarioCoverageConforms(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	res, err := ScenarioCoverage(1000, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios != n || len(res.Rows) != 8 {
		t.Fatalf("result shape: %d scenarios, %d rows", res.Scenarios, len(res.Rows))
	}
	total := 0
	for _, row := range res.Rows {
		total += row.Snapshots
		if row.Snapshots > 0 && row.Conformance != 1.0 {
			t.Errorf("octant %s: conformance %.3f (selections %s)", row.Octant, row.Conformance, row.TopSelections())
		}
		if row.Recommended == "" {
			t.Errorf("octant %s: no recommendation", row.Octant)
		}
	}
	if total != res.Snapshots || total == 0 {
		t.Fatalf("snapshot accounting: rows sum %d, result %d", total, res.Snapshots)
	}
}

func TestScenarioReplayReportsPhases(t *testing.T) {
	res, err := ScenarioReplay("seed=3;shock:6,block:6", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.Snapshots != 12 {
		t.Fatalf("shape: %d phases, %d snapshots", len(res.Phases), res.Snapshots)
	}
	if res.Phases[0].Expected != "V" || res.Phases[0].Observed != "V" {
		t.Errorf("phase 0: expected %s observed %s, want V/V", res.Phases[0].Expected, res.Phases[0].Observed)
	}
	if res.Phases[1].Expected != "III" || res.Phases[1].Observed != "III" {
		t.Errorf("phase 1: expected %s observed %s, want III/III", res.Phases[1].Expected, res.Phases[1].Observed)
	}
	if res.Switches < 1 {
		t.Errorf("switches %d, want >= 1", res.Switches)
	}
	if _, err := ScenarioReplay("not-a-driver:4", 8); err == nil {
		t.Error("bad spec: expected error")
	}
}

func TestTopSelectionsOrder(t *testing.T) {
	row := CoverageRow{Selected: map[string]int{"G-MISP+SP": 2, "pBD-ISP": 5, "CGDS": 2}}
	if got, want := row.TopSelections(), "pBD-ISP:5 CGDS:2 G-MISP+SP:2"; got != want {
		t.Fatalf("TopSelections = %q, want %q", got, want)
	}
	if got := (CoverageRow{}).TopSelections(); got != "-" {
		t.Fatalf("empty row renders %q, want -", got)
	}
}
