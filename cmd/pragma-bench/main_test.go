package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the program's output")

const paperGolden = "testdata/paper.golden"

// paperInvocations are the pragma-bench invocations whose concatenated
// output is testdata/paper.golden: every table and figure of the paper at
// paper scale, the extension experiments, the scenario corpus and one
// composed scenario, then the ablations on the reduced configuration.
var paperInvocations = [][]string{
	{"-all", "-extensions", "-scenario-coverage", "100", "-scenario", "seed=7;shock:8,block:6"},
	{"-ablations", "-small"},
}

// TestPaperGolden regenerates the paper's tables and figures and compares
// them byte for byte with testdata/paper.golden, so a change that moves a
// decision or a printed figure shows as a diff of that file. Rewrite it
// with `go test ./cmd/pragma-bench/ -update`; a commit that changes it
// carries a Decision-Change: trailer and quotes the diff in CHANGES.md.
//
// Table 1's performance functions go through math.Exp, whose amd64
// implementation takes a different path on CPUs with FMA, so the last
// printed digit of a Table 1 value may differ on such a host until the
// network evaluation is made independent of the CPU.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale regeneration; run without -short")
	}
	var got bytes.Buffer
	for _, args := range paperInvocations {
		var stderr bytes.Buffer
		if code := run(args, &got, &stderr); code != 0 {
			t.Fatalf("pragma-bench %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
		}
	}
	if *update {
		if err := os.WriteFile(paperGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g == w {
			continue
		}
		if diffs++; diffs <= 10 {
			t.Errorf("%s:%d\n  want %q\n  got  %q", paperGolden, i+1, w, g)
		}
	}
	t.Errorf("%d lines differ from %s (rewrite it with -update if the change is meant)", diffs, paperGolden)
}

// TestExperimentsMatchGolden checks the "ours" figures EXPERIMENTS.md
// quotes for Tables 1, 4 and 5 and the scenario-coverage table against
// testdata/paper.golden, each at the precision the document prints it.
func TestExperimentsMatchGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		heading string // EXPERIMENTS.md section holding the table
		section string // golden section title
		docCols []int  // the document's columns that quote the program
		// values picks, from a golden row's fields, the values docCols quote.
		values func(fields []string) []string
	}{
		{"## Table 1", "Table 1. Accuracy of the Performance Functions", []int{3, 4, 5},
			func(f []string) []string { return f[1:4] }},
		{"## Table 4", "Table 4. Partitioner performance for RM3D on 64 processors", []int{4, 5, 6},
			func(f []string) []string { return f[1:4] }},
		{"## Table 5", "Table 5. Improvement due to system-sensitive partitioning", []int{2},
			func(f []string) []string { return f[1:2] }},
		{"## Scenario corpus", "Scenario corpus octant coverage", []int{1, 2, 3, 4},
			func(f []string) []string { return []string{f[1], f[2], f[3], strings.Join(f[4:], " ")} }},
	} {
		rows := markdownTable(string(doc), c.heading)
		if len(rows) == 0 {
			t.Errorf("EXPERIMENTS.md: no table under %q", c.heading)
			continue
		}
		byKey := goldenRows(string(golden), c.section)
		for _, row := range rows {
			fields, ok := byKey[row[0]]
			if !ok {
				t.Errorf("%s: row %q not in the golden section %q", c.heading, row[0], c.section)
				continue
			}
			want := c.values(fields)
			for i, col := range c.docCols {
				if col >= len(row) {
					t.Errorf("%s row %q: no column %d", c.heading, row[0], col)
					continue
				}
				if !sameFigure(row[col], want[i]) {
					t.Errorf("%s row %q column %d: EXPERIMENTS.md says %q, the program prints %q",
						c.heading, row[0], col, row[col], want[i])
				}
			}
		}
	}
}

// markdownTable returns the cells of the body rows of the first table
// after the line starting with heading.
func markdownTable(doc, heading string) [][]string {
	var rows [][]string
	inSection, inTable := false, false
	for _, line := range strings.Split(doc, "\n") {
		if !inSection {
			inSection = strings.HasPrefix(line, heading)
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		if !inTable { // the header row
			inTable = true
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows = append(rows, cells)
	}
	return rows
}

// goldenRows returns the whitespace-separated fields of the lines of the
// golden section titled title, up to its first blank line, keyed by their
// first field.
func goldenRows(golden, title string) map[string][]string {
	rows := map[string][]string{}
	lines := strings.Split(golden, "\n")
	for i, line := range lines {
		if line != title {
			continue
		}
		for _, l := range lines[i+2:] { // skip the title's closing rule
			if l == "" {
				break
			}
			f := strings.Fields(l)
			rows[f[0]] = f
		}
		break
	}
	return rows
}

// sameFigure reports whether quoted, a figure as EXPERIMENTS.md prints it,
// is printed the program's value rounded to quoted's precision. Figures
// that are not numbers must match exactly.
func sameFigure(quoted, printed string) bool {
	q := strings.TrimSpace(strings.TrimSuffix(quoted, "%"))
	p := strings.TrimSuffix(printed, "%")
	qv, qerr := strconv.ParseFloat(q, 64)
	pv, perr := strconv.ParseFloat(p, 64)
	if qerr != nil || perr != nil {
		return quoted == printed
	}
	// Half a unit in the last place of q.
	mantissa, exp := q, 0
	if i := strings.IndexAny(q, "eE"); i >= 0 {
		mantissa = q[:i]
		e, err := strconv.Atoi(q[i+1:])
		if err != nil {
			return false
		}
		exp = e
	}
	decimals := 0
	if i := strings.IndexByte(mantissa, '.'); i >= 0 {
		decimals = len(mantissa) - i - 1
	}
	half := 0.5 * math.Pow(10, float64(exp-decimals))
	return math.Abs(qv-pv) <= half*(1+1e-9)
}
