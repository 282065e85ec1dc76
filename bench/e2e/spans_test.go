package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func at(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "regrid", Start: at(10), End: at(60)},
		{ID: 3, Parent: 2, Name: "repartition", Start: at(10), End: at(30)},
		{ID: 4, Parent: 3, Name: "partition", Start: at(15), End: at(25)},
		{ID: 5, Parent: 2, Name: "pac", Start: at(30), End: at(55)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: at(50), // 100 minus the regrid; grandchildren are not subtracted twice
		2: at(5),  // 50 minus 20 and 25
		3: at(10), // 20 minus the partition call
		4: at(10),
		5: at(25),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: at(0), End: at(100)},
		// Two workers' spans overlap for 20 ms: covered once.
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(70)},
		// Contained in b entirely.
		{ID: 4, Parent: 1, Name: "c", Start: at(35), End: at(40)},
		// Reaches past the parent's end: clipped.
		{ID: 5, Parent: 1, Name: "d", Start: at(90), End: at(130)},
		// Entirely outside: covers nothing.
		{ID: 6, Parent: 1, Name: "e", Start: at(200), End: at(210)},
	}
	self := selfTimes(spans)
	if want := at(30); self[1] != want { // 100 - [10,70] - [90,100]
		t.Errorf("self time of the parent = %v, want %v", self[1], want)
	}
	by := selfByName(spans)
	if by["a"] != at(40) || by["d"] != at(40) {
		t.Errorf("leaf self times = %v", by)
	}
}

func TestRecorderWritesJSONL(t *testing.T) {
	r := newRecorder()
	start := r.epoch.Add(time.Millisecond)
	run := r.reserve("run-1", spanRun, 0, start)
	r.add("run-1", spanRepartition, run, start, start.Add(2*time.Millisecond))
	r.finish(run, start.Add(5*time.Millisecond))

	path := filepath.Join(t.TempDir(), "out", "w.trace.jsonl")
	if err := writeJSONL(path, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 2 {
		t.Fatalf("%d spans written, want 2", len(got))
	}
	if got[0].Name != spanRun || got[0].duration() != 5*time.Millisecond || got[0].Run != "run-1" {
		t.Errorf("run span = %+v", got[0])
	}
	if got[1].Parent != got[0].ID || got[1].Name != spanRepartition {
		t.Errorf("child span = %+v, want parent %d", got[1], got[0].ID)
	}
}
