package agents

import (
	"testing"

	"github.com/pragma-grid/pragma/internal/policy"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

func TestCenterRegisterSendReceive(t *testing.T) {
	c := NewCenter()
	inbox, err := c.Register("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Message{From: "b", To: "a", Kind: "ping"}); err != nil {
		t.Fatal(err)
	}
	m := <-inbox
	if m.Kind != "ping" || m.From != "b" {
		t.Fatalf("received %+v", m)
	}
}

func TestCenterErrors(t *testing.T) {
	c := NewCenter()
	if _, err := c.Register("", 1); err == nil {
		t.Error("empty port accepted")
	}
	if _, err := c.Register("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("a", 1); err == nil {
		t.Error("duplicate port accepted")
	}
	if err := c.Send(Message{To: "nope"}); err == nil {
		t.Error("send to unknown port accepted")
	}
	if err := c.Send(Message{}); err == nil {
		t.Error("send without destination accepted")
	}
	if err := c.Subscribe("nope", "t"); err == nil {
		t.Error("subscribe of unknown port accepted")
	}
	if err := c.Subscribe("a", ""); err == nil {
		t.Error("empty topic accepted")
	}
	if err := c.Publish(Message{}); err == nil {
		t.Error("publish without topic accepted")
	}
}

func TestCenterMailboxOverflow(t *testing.T) {
	c := NewCenter()
	if _, err := c.Register("tiny", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Message{From: "x", To: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Message{From: "x", To: "tiny"}); err == nil {
		t.Error("overflowing mailbox accepted")
	}
}

func TestCenterPublishSubscribe(t *testing.T) {
	c := NewCenter()
	in1, _ := c.Register("s1", 4)
	in2, _ := c.Register("s2", 4)
	if _, err := c.Register("pub", 4); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("s1", "news"); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("s2", "news"); err != nil {
		t.Fatal(err)
	}
	// The publisher itself subscribed should not receive its own message.
	if err := c.Subscribe("pub", "news"); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(Message{From: "pub", Topic: "news", Kind: "event"}); err != nil {
		t.Fatal(err)
	}
	if m := <-in1; m.Kind != "event" || m.To != "s1" {
		t.Fatalf("s1 received %+v", m)
	}
	if m := <-in2; m.Kind != "event" || m.To != "s2" {
		t.Fatalf("s2 received %+v", m)
	}
}

func TestCenterUnregisterClosesAndUnsubscribes(t *testing.T) {
	c := NewCenter()
	in, _ := c.Register("a", 4)
	if err := c.Subscribe("a", "t"); err != nil {
		t.Fatal(err)
	}
	c.Unregister("a")
	if _, ok := <-in; ok {
		t.Fatal("channel not closed")
	}
	if err := c.Send(Message{From: "x", To: "a"}); err == nil {
		t.Fatal("send to unregistered port accepted")
	}
	// Publishing to the topic must not fail on the removed subscriber.
	if _, err := c.Register("pub", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(Message{From: "pub", Topic: "t"}); err != nil {
		t.Fatalf("publish after unregister: %v", err)
	}
}

func TestEncodeDecode(t *testing.T) {
	m := Message{Kind: "state", Payload: Encode(StateReport{Agent: "a", Seq: 3})}
	var r StateReport
	if err := Decode(m, &r); err != nil {
		t.Fatal(err)
	}
	if r.Agent != "a" || r.Seq != 3 {
		t.Fatalf("decoded %+v", r)
	}
}

func fixedSensor(name string, v float64) Sensor {
	return SensorFunc{SensorName: name, Fn: func() (float64, error) { return v, nil }}
}

func TestComponentAgentPollPublishesState(t *testing.T) {
	c := NewCenter()
	watcher, _ := c.Register("watcher", 16)
	if err := c.Subscribe("watcher", TopicState); err != nil {
		t.Fatal(err)
	}
	ca, err := NewComponentAgent("ca-1", c, []Sensor{fixedSensor("load", 0.42)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := ca.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if report.Readings["load"] != 0.42 || report.Seq != 1 {
		t.Fatalf("report %+v", report)
	}
	m := <-watcher
	var got StateReport
	if err := Decode(m, &got); err != nil {
		t.Fatal(err)
	}
	if got.Agent != "ca-1" || got.Readings["load"] != 0.42 {
		t.Fatalf("published %+v", got)
	}
}

func TestComponentAgentThresholdEventsLatch(t *testing.T) {
	c := NewCenter()
	events, _ := c.Register("ev", 16)
	if err := c.Subscribe("ev", TopicEvents); err != nil {
		t.Fatal(err)
	}
	load := 0.2
	sensor := SensorFunc{SensorName: "load", Fn: func() (float64, error) { return load, nil }}
	hi := 0.8
	ca, err := NewComponentAgent("ca-2", c,
		[]Sensor{sensor}, nil,
		[]EventRule{{Sensor: "load", Above: &hi, Event: "overload"}})
	if err != nil {
		t.Fatal(err)
	}
	poll := func() int {
		t.Helper()
		if _, err := ca.Poll(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			select {
			case <-events:
				n++
			default:
				return n
			}
		}
	}
	if n := poll(); n != 0 {
		t.Fatalf("no-threshold poll fired %d events", n)
	}
	load = 0.9
	if n := poll(); n != 1 {
		t.Fatalf("crossing poll fired %d events, want 1", n)
	}
	// Still above: latched, no repeat.
	if n := poll(); n != 0 {
		t.Fatalf("latched poll fired %d events", n)
	}
	// Drop below and cross again: fires again.
	load = 0.2
	poll()
	load = 0.95
	if n := poll(); n != 1 {
		t.Fatalf("re-crossing poll fired %d events, want 1", n)
	}
}

func TestComponentAgentCommands(t *testing.T) {
	c := NewCenter()
	applied := map[string]float64{}
	act := ActuatorFunc{ActuatorName: "repartition", Fn: func(p map[string]float64) error {
		for k, v := range p {
			applied[k] = v
		}
		return nil
	}}
	ca, err := NewComponentAgent("ca-3", c, nil, []Actuator{act}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Send(Message{From: "adm", To: "ca-3", Kind: "command",
		Payload: Encode(Command{Actuator: "repartition", Params: map[string]float64{"granularity": 8}})})
	if err != nil {
		t.Fatal(err)
	}
	// Non-command messages are ignored.
	if err := c.Send(Message{From: "adm", To: "ca-3", Kind: "noise"}); err != nil {
		t.Fatal(err)
	}
	n, err := ca.DrainInbox()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || applied["granularity"] != 8 {
		t.Fatalf("drained %d commands, applied %v", n, applied)
	}
	// Unknown actuator is an error.
	if err := ca.HandleCommand(Command{Actuator: "nope"}); err == nil {
		t.Fatal("unknown actuator accepted")
	}
}

func TestADMConsolidatesAndDirects(t *testing.T) {
	c := NewCenter()
	adm, err := NewADM("adm", c, policy.Table2())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, load float64) *ComponentAgent {
		ca, err := NewComponentAgent(id, c, []Sensor{fixedSensor("load", load)}, []Actuator{
			ActuatorFunc{ActuatorName: "noop", Fn: func(map[string]float64) error { return nil }},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ca
	}
	a1, a2, a3 := mk("n1", 0.2), mk("n2", 0.9), mk("n3", 0.4)
	for _, ca := range []*ComponentAgent{a1, a2, a3} {
		if _, err := ca.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := adm.Absorb(); n != 3 {
		t.Fatalf("absorbed %d messages", n)
	}
	cons := adm.Consolidate()
	if cons.Agents != 3 {
		t.Fatalf("agents = %d", cons.Agents)
	}
	if cons.Max["load"] != 0.9 || cons.ArgMax["load"] != "n2" {
		t.Fatalf("max = %v argmax = %v", cons.Max, cons.ArgMax)
	}
	if mean := cons.Mean["load"]; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean = %g", mean)
	}
	// Policy decision with the octant attribute.
	decisions := adm.Decide(map[string]interface{}{"octant": "VI"}, "select-partitioner")
	if len(decisions) != 1 || decisions[0].Action.Target != "pBD-ISP" {
		t.Fatalf("decisions = %+v", decisions)
	}
	// Broadcast reaches all agents.
	if err := adm.Broadcast(Command{Actuator: "noop"}); err != nil {
		t.Fatal(err)
	}
	for _, ca := range []*ComponentAgent{a1, a2, a3} {
		if n, err := ca.DrainInbox(); err != nil || n != 1 {
			t.Fatalf("%s drained %d err=%v", ca.ID, n, err)
		}
	}
}

func TestADMEventFlow(t *testing.T) {
	c := NewCenter()
	adm, err := NewADM("adm", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	hi := 0.5
	load := 0.9
	ca, err := NewComponentAgent("ca", c,
		[]Sensor{SensorFunc{SensorName: "load", Fn: func() (float64, error) { return load, nil }}},
		nil, []EventRule{{Sensor: "load", Above: &hi, Event: "overload"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Poll(); err != nil {
		t.Fatal(err)
	}
	adm.Absorb()
	evs := adm.PendingEvents()
	if len(evs) != 1 || evs[0].Name != "overload" || evs[0].Agent != "ca" {
		t.Fatalf("events = %+v", evs)
	}
	if len(adm.PendingEvents()) != 0 {
		t.Fatal("events not cleared")
	}
	// Decide without a policy base returns nothing.
	if d := adm.Decide(nil, "select-partitioner"); d != nil {
		t.Fatalf("nil-policy decisions = %+v", d)
	}
}

func TestTemplateRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Template{}); err == nil {
		t.Error("unnamed template accepted")
	}
	mustReg := func(tpl Template) {
		t.Helper()
		if err := r.Register(tpl); err != nil {
			t.Fatal(err)
		}
	}
	mustReg(Template{Name: "perf-redundant", Provides: map[string]string{"attribute": "performance", "scheme": "active-redundancy"}})
	mustReg(Template{Name: "perf-migrate", Provides: map[string]string{"attribute": "performance", "scheme": "migration"}})
	mustReg(Template{Name: "ft-passive", Provides: map[string]string{"attribute": "fault-tolerance"}})
	got := r.Discover(map[string]string{"attribute": "performance"})
	if len(got) != 2 {
		t.Fatalf("performance templates = %d", len(got))
	}
	got = r.Discover(map[string]string{"attribute": "performance", "scheme": "migration"})
	if len(got) != 1 || got[0].Name != "perf-migrate" {
		t.Fatalf("specific discovery = %+v", got)
	}
	if got := r.Discover(map[string]string{"attribute": "security"}); len(got) != 0 {
		t.Fatalf("unsatisfiable discovery = %+v", got)
	}
	if got := r.Discover(nil); len(got) != 3 {
		t.Fatalf("open discovery = %d", len(got))
	}
}

// TestTemplateDiscoverSortsByName checks that discovery returns its
// matches in name order on every call, not in map order.
func TestTemplateDiscoverSortsByName(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"perf-c", "perf-a", "perf-b"} {
		if err := r.Register(Template{Name: name, Provides: map[string]string{"attribute": "performance"}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		got := r.Discover(map[string]string{"attribute": "performance"})
		if len(got) != 3 || got[0].Name != "perf-a" || got[1].Name != "perf-b" || got[2].Name != "perf-c" {
			t.Fatalf("call %d: discovered %+v, want perf-a, perf-b, perf-c", i, got)
		}
	}
}

// TestTemplateRegisterReplaces checks that registering a template under a
// name already taken replaces it rather than adding a second match.
func TestTemplateRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	for _, scheme := range []string{"migration", "active-redundancy"} {
		if err := r.Register(Template{Name: "perf", Provides: map[string]string{"scheme": scheme}}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Discover(nil)
	if len(got) != 1 || got[0].Provides["scheme"] != "active-redundancy" {
		t.Fatalf("discovered %+v, want the one replacing template", got)
	}
	if got := r.Discover(map[string]string{"scheme": "migration"}); len(got) != 0 {
		t.Fatalf("replaced template still discovered: %+v", got)
	}
}

func TestCenterQueueDepthCountsLocalMailboxes(t *testing.T) {
	c := NewCenter()
	a, err := c.Register("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("b", 8); err != nil {
		t.Fatal(err)
	}
	if c.QueueDepth() != 0 {
		t.Fatalf("fresh center queue depth %d", c.QueueDepth())
	}
	for _, to := range []string{"a", "a", "b"} {
		if err := c.Send(Message{From: "x", To: to, Kind: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.QueueDepth(); got != 3 {
		t.Fatalf("queue depth %d after three sends, want 3", got)
	}
	<-a
	if got := c.QueueDepth(); got != 2 {
		t.Fatalf("queue depth %d after one receive, want 2", got)
	}
}

func TestQueueDepthGaugeSamplesCenter(t *testing.T) {
	c := NewCenter()
	if _, err := c.Register("a", 8); err != nil {
		t.Fatal(err)
	}
	RegisterQueueDepthGauge(c)
	for i := 0; i < 2; i++ {
		if err := c.Send(Message{From: "x", To: "a", Kind: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	series := telemetry.Default.Snapshot().Find("pragma_agents_queue_depth")
	if len(series) != 1 || series[0].Value != 2 {
		t.Fatalf("queue depth gauge = %+v, want 2", series)
	}
}
