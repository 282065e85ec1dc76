package pragma

import (
	"go/ast"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests fails on a -run, -bench or -fuzz pattern in the
// CI workflow or the Makefile with an alternative that names no Test,
// Benchmark, Fuzz or Example function of the module: go test passes
// silently when a pattern matches nothing, so a renamed or deleted test
// would drop out of its step unnoticed. The alternative ^$ (run nothing)
// is allowed.
func TestCIPatternsMatchTests(t *testing.T) {
	testFunc := regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)
	var names []string
	for _, mf := range parseModule(t).files {
		if !mf.test {
			continue
		}
		eachDecl(mf.f, func(name, method string, _ ast.Node) {
			if method == "" && testFunc.MatchString(name) {
				names = append(names, name)
			}
		})
	}
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if file == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		flags := patternFlags(text)
		for _, f := range flags {
			for _, alt := range strings.Split(f.pattern, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -%s alternative %q: %v", file, f.kind, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: -%s alternative %q matches no test function", file, f.kind, alt)
				}
			}
		}
		if len(flags) == 0 {
			t.Errorf("%s: no -run, -bench or -fuzz pattern found", file)
		}
	}
}

// patternFlag is one -run, -bench or -fuzz flag of a command line.
type patternFlag struct{ kind, pattern string }

var patternFlagRE = regexp.MustCompile(`(?:^|\s)-(run|bench|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// patternFlags returns the -run, -bench and -fuzz flags in text with
// their patterns unquoted.
func patternFlags(text string) []patternFlag {
	var out []patternFlag
	for _, m := range patternFlagRE.FindAllStringSubmatch(text, -1) {
		out = append(out, patternFlag{m[1], m[2] + m[3] + m[4]})
	}
	return out
}

// TestPatternFlags checks the flag forms CI steps write.
func TestPatternFlags(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		want       []patternFlag
	}{
		{"single quotes", `go test -run 'TestA|TestB' ./...`, []patternFlag{{"run", "TestA|TestB"}}},
		{"double quotes", `go test -race -run="TestC$" .`, []patternFlag{{"run", "TestC$"}}},
		{"bare with equals", `go test -run=^$ -bench=BenchmarkX -benchtime=1x ./x`, []patternFlag{{"run", "^$"}, {"bench", "BenchmarkX"}}},
		{"fuzz", `go test -fuzz FuzzFrameDecode -fuzztime 10s ./internal/agents`, []patternFlag{{"fuzz", "FuzzFrameDecode"}}},
		{"other flags only", `go test -short -count=1 -runner x ./...`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := patternFlags(tc.line); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("patternFlags(%q) = %v, want %v", tc.line, got, tc.want)
			}
		})
	}
}
