package fleet

import (
	"bytes"
	"math"
	"testing"

	"github.com/pragma-grid/pragma/internal/core"
)

// TestResultMsgBinary: a result message round-trips with and without a
// result, every float by its bits (NaN, ±Inf and -0, which JSON cannot
// carry, included), and every proper prefix of an encoding is refused.
func TestResultMsgBinary(t *testing.T) {
	for _, in := range []resultMsg{
		{RunID: "run-000001", Attempt: 3, State: "done", Result: &core.RunResult{
			Strategy: "adaptive", TotalTime: math.NaN(), MaxImbalance: math.Inf(-1), Steps: 8,
			Snapshots: []core.SnapshotStat{{Partitioner: "G-MISP+SP", StepTime: math.Copysign(0, -1)}},
		}},
		{RunID: "run-000002", Attempt: 1, State: "drained", Err: "interrupted", Resumable: true},
	} {
		enc, err := in.marshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var out resultMsg
		if err := out.unmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		// The encoding holds every float's bits, so equal re-encodings
		// mean an equal result.
		again, _ := out.marshalBinary()
		if !bytes.Equal(again, enc) || out.RunID != in.RunID || out.Attempt != in.Attempt || out.State != in.State ||
			out.Err != in.Err || out.Resumable != in.Resumable || (out.Result == nil) != (in.Result == nil) {
			t.Fatalf("round trip changed %+v into %+v", in, out)
		}
		for cut := 0; cut < len(enc); cut++ {
			if err := new(resultMsg).unmarshalBinary(enc[:cut]); err == nil {
				t.Fatalf("an encoding cut to %d of %d bytes decoded", cut, len(enc))
			}
		}
	}
}
