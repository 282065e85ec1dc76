// Package fleet is Pragma's federated control plane: a router that shards
// submitted runs across many pragma-node worker processes over the agents
// TCP control network, and the worker that executes its share.
//
// The run lifecycle is internal/sched's — admission, the fair queue, run
// records, drain, the /sched/* surface. The Router is its remote executor:
// it places each attempt the lifecycle hands it. Workers advertise
// forecast capacity in heartbeats (the Fig. 4 relative capacity math,
// applied to fleet placement instead of intra-run partitioning); the
// router places an attempt on the worker with the most predicted headroom,
// guarded by per-worker circuit breakers, bounded retries with exponential
// backoff + jitter, and per-dispatch deadlines.
//
// The robustness core is failover: when a worker goes silent past the
// heartbeat window, or its link tears down, every attempt placed on it is
// reported lost, and the lifecycle requeues the run to resume on a
// surviving worker from its latest CRC-verified checkpoint
// (internal/checkpoint guarantees bit-identical resume); when zero workers
// are placeable the router executes attempts in-process with sched.Local.
// See DESIGN.md §12 for the failure model and failover sequence.
package fleet

import (
	"encoding/binary"
	"errors"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/core"
)

// RouterPort is the mailbox the router registers on the Message Center.
// Workers address all their traffic to it.
const RouterPort = "pragma/fleet/router"

// workerPortPrefix prefixes every worker mailbox, so the router can
// recognize worker ports in the Center's disconnect notifications.
const workerPortPrefix = "pragma/fleet/worker/"

// WorkerPort returns the mailbox name a worker with the given identity
// registers.
func WorkerPort(id string) string { return workerPortPrefix + id }

// Message kinds of the fleet protocol, carried in agents.Message over the
// existing control network — the fleet adds no second wire protocol.
// Every payload is JSON except KindResult's, which is binary (see
// resultMsg), so the worker→router hop formats and parses no floats.
const (
	// KindHello announces a worker to the router (worker → router).
	KindHello = "fleet.hello"
	// KindHeartbeat carries a worker's forecast capacity reading
	// (worker → router, periodic).
	KindHeartbeat = "fleet.heartbeat"
	// KindDispatch places one run on a worker (router → worker).
	KindDispatch = "fleet.dispatch"
	// KindAck answers a dispatch with the worker's admission verdict
	// (worker → router).
	KindAck = "fleet.ack"
	// KindResult reports a run's terminal state (worker → router).
	KindResult = "fleet.result"
	// KindDrain asks a worker to drain gracefully (router → worker).
	KindDrain = "fleet.drain"
	// KindBye announces a worker's graceful departure (worker → router).
	KindBye = "fleet.bye"
)

// helloMsg is KindHello's payload.
type helloMsg struct {
	ID    string `json:"id"`
	Slots int    `json:"slots"`
	// MemoryMB and BandwidthMBps are the worker's advertised static
	// resources, the non-CPU terms of the Fig. 4 capacity formula.
	MemoryMB      float64 `json:"memoryMB"`
	BandwidthMBps float64 `json:"bandwidthMBps"`
}

// heartbeatMsg is KindHeartbeat's payload: one capacity advertisement.
type heartbeatMsg struct {
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	// CPU is the forecast available-CPU fraction in [0, 1]: one minus the
	// worker's meta-forecast of its pool utilization (advertise).
	CPU float64 `json:"cpu"`
	// Active is the worker's queued-plus-running run count; Slots its pool
	// size. The router places only where Active < Slots.
	Active        int     `json:"active"`
	Slots         int     `json:"slots"`
	MemoryMB      float64 `json:"memoryMB"`
	BandwidthMBps float64 `json:"bandwidthMBps"`
}

// dispatchMsg is KindDispatch's payload: one placement attempt.
type dispatchMsg struct {
	RunID string `json:"runID"`
	// Attempt numbers the run's placement attempts; acks and results
	// carrying a stale attempt are ignored, so a zombie worker that
	// reconnects after eviction cannot corrupt the record of the failover
	// that superseded it.
	Attempt int      `json:"attempt"`
	Tenant  string   `json:"tenant,omitempty"`
	Spec    WireSpec `json:"spec"`
}

// ackMsg is KindAck's payload: the worker's admission verdict for one
// dispatch.
type ackMsg struct {
	RunID   string `json:"runID"`
	Attempt int    `json:"attempt"`
	Err     string `json:"err,omitempty"`
	// Refused marks an Err the spec caused: it did not materialize, and
	// every fleet member, sharing one materializer, would refuse it alike.
	Refused bool `json:"refused,omitempty"`
}

// resultMsg is KindResult's payload: one run's terminal state on a worker.
// It travels in binary: RunID, State and Err as uvarint-length strings,
// Attempt as a varint, a flags byte (resultResumable, resultPresent),
// then Result in core.RunResult's binary encoding as the rest.
type resultMsg struct {
	RunID   string
	Attempt int
	// State is the worker-side outcome: done, failed or drained
	// (sched.State values).
	State     string
	Err       string
	Resumable bool
	Result    *core.RunResult
}

// The flags byte of an encoded resultMsg.
const (
	resultResumable = 1 << iota
	resultPresent
)

var errBadResult = errors.New("fleet: malformed result")

// marshalBinary encodes res.
func (res *resultMsg) marshalBinary() ([]byte, error) {
	var b []byte
	for _, s := range [...]string{res.RunID, res.State, res.Err} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b = binary.AppendVarint(b, int64(res.Attempt))
	var flags byte
	if res.Resumable {
		flags |= resultResumable
	}
	if res.Result == nil {
		return append(b, flags), nil
	}
	result, err := res.Result.MarshalBinary()
	return append(append(b, flags|resultPresent), result...), err
}

// unmarshalBinary decodes what marshalBinary wrote.
func (res *resultMsg) unmarshalBinary(p []byte) error {
	var out resultMsg
	for _, s := range [...]*string{&out.RunID, &out.State, &out.Err} {
		n, w := binary.Uvarint(p)
		if w <= 0 || n > uint64(len(p)-w) {
			return errBadResult
		}
		*s, p = string(p[w:w+int(n)]), p[w+int(n):]
	}
	attempt, w := binary.Varint(p)
	if w <= 0 || len(p) == w {
		return errBadResult
	}
	out.Attempt = int(attempt)
	flags, p := p[w], p[w+1:]
	out.Resumable = flags&resultResumable != 0
	switch {
	case flags&^(resultResumable|resultPresent) != 0:
		return errBadResult
	case flags&resultPresent != 0:
		out.Result = new(core.RunResult)
		if err := out.Result.UnmarshalBinary(p); err != nil {
			return err
		}
	case len(p) != 0:
		return errBadResult
	}
	*res = out
	return nil
}

// byeMsg is KindBye's payload.
type byeMsg struct {
	ID string `json:"id"`
}

// send is a small helper: encode payload v and send it from one port to
// another over the control network.
func send(p agents.Port, from, to, kind string, v interface{}) error {
	return p.Send(agents.Message{From: from, To: to, Kind: kind, Payload: agents.Encode(v)})
}
