package agents

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestComponentAgentRunLoop(t *testing.T) {
	c := NewCenter()
	watcher, _ := c.Register("watch", 64)
	if err := c.Subscribe("watch", TopicState); err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 4)
	ca, err := NewComponentAgent("runner", c,
		[]Sensor{fixedSensor("load", 0.5)},
		[]Actuator{ActuatorFunc{ActuatorName: "tweak", Fn: func(map[string]float64) error {
			fired <- struct{}{}
			return nil
		}}},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		ca.Run(ctx, 2*time.Millisecond)
		close(done)
	}()
	// The loop polls: state reports arrive.
	select {
	case m := <-watcher:
		if m.Kind != "state" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no state report from running agent")
	}
	// The loop serves commands.
	if err := c.Send(Message{From: "x", To: "runner", Kind: "command",
		Payload: Encode(Command{Actuator: "tweak"})}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("running agent never actuated")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("agent loop did not stop on cancel")
	}
}

func TestComponentAgentRunStopsOnUnregister(t *testing.T) {
	c := NewCenter()
	ca, err := NewComponentAgent("ephemeral", c, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		ca.Run(context.Background(), time.Hour) // only the inbox can wake it
		close(done)
	}()
	c.Unregister("ephemeral")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("agent loop did not stop when its mailbox closed")
	}
}

func TestComponentAgentSensorError(t *testing.T) {
	c := NewCenter()
	bad := SensorFunc{SensorName: "broken", Fn: func() (float64, error) {
		return 0, fmt.Errorf("hardware gone")
	}}
	ca, err := NewComponentAgent("sick", c, []Sensor{bad}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Poll(); err == nil {
		t.Fatal("sensor error swallowed")
	}
}

func TestComponentAgentConstructorValidation(t *testing.T) {
	c := NewCenter()
	if _, err := NewComponentAgent("", c, nil, nil, nil); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := NewComponentAgent("dup", c, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewComponentAgent("dup", c, nil, nil, nil); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := NewADM("", c, nil); err == nil {
		t.Error("empty ADM id accepted")
	}
}

func TestEventRuleBelowThreshold(t *testing.T) {
	c := NewCenter()
	events, _ := c.Register("ev", 16)
	if err := c.Subscribe("ev", TopicEvents); err != nil {
		t.Fatal(err)
	}
	val := 0.9
	lo := 0.2
	ca, err := NewComponentAgent("low", c,
		[]Sensor{SensorFunc{SensorName: "bandwidth", Fn: func() (float64, error) { return val, nil }}},
		nil,
		[]EventRule{{Sensor: "bandwidth", Below: &lo, Event: "bandwidth-collapse"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Poll(); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-events:
		t.Fatalf("unexpected event %+v", m)
	default:
	}
	val = 0.1
	if _, err := ca.Poll(); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-events:
		var ev Event
		if err := Decode(m, &ev); err != nil || ev.Name != "bandwidth-collapse" {
			t.Fatalf("event %+v err %v", ev, err)
		}
	default:
		t.Fatal("below-threshold event not fired")
	}
}
