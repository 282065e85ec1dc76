package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
)

var calibLine = regexp.MustCompile(`calib ([0-9.]+) ms`)

// selfCheck measures every workload twice, each time in a process of its
// own as the gate does, the second round in reverse order (A B C D,
// D C B A) so that neither position in the sequence nor slow drift of the
// host favours one side, and reports whether every end-to-end metric's
// two values agree within its bound. Both values and each side's
// calibration time are printed, so that a failure can be read as host
// drift (calibration moved too) or harness noise (it did not).
func selfCheck(seed int64, seconds float64) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return false
	}
	order := append([]workloadDef(nil), workloads...)
	for i := len(workloads) - 1; i >= 0; i-- {
		order = append(order, workloads[i])
	}
	results := make(map[string][]result)
	for _, w := range order {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		os.Stderr.Write(stderr.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
			return false
		}
		var res result
		if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: result line: %v\n", w.name, err)
			return false
		}
		if m := calibLine.FindSubmatch(stderr.Bytes()); m != nil {
			res.calibMS, _ = strconv.ParseFloat(string(m[1]), 64)
		}
		results[w.name] = append(results[w.name], res)
	}
	ok := true
	for _, w := range workloads {
		a, b := results[w.name][0], results[w.name][1]
		fmt.Printf("%s  (client.calib_ms %.1f, %.1f)\n", w.name, a.calibMS, b.calibMS)
		for _, m := range endToEndMetrics {
			x, y := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := "ok"
			if diff > m.bound {
				verdict, ok = "DIFFER", false
			}
			fmt.Printf("  %-18s %12.6g %12.6g %-6s  %5.2f%% of %4.1f%%  %s\n",
				m.name, x, y, m.unit, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok
}
