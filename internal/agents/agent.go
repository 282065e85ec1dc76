package agents

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Sensor abstracts an application or system sensor (§3.4.2): application
// sensors are co-located with computational data structures, system sensors
// wrap the monitoring infrastructure. Reads must be cheap; they run on
// every agent poll.
type Sensor interface {
	// Name identifies the sensed attribute, e.g. "load" or "bandwidth".
	Name() string
	// Read samples the sensor.
	Read() (float64, error)
}

// SensorFunc adapts a function to the Sensor interface.
type SensorFunc struct {
	SensorName string
	Fn         func() (float64, error)
}

// Name implements Sensor.
func (s SensorFunc) Name() string { return s.SensorName }

// Read implements Sensor.
func (s SensorFunc) Read() (float64, error) { return s.Fn() }

// Actuator abstracts an adaptation mechanism the agent can invoke:
// repartition, migrate, switch communication mechanism, suspend/save state.
type Actuator interface {
	// Name identifies the actuator, e.g. "repartition".
	Name() string
	// Act applies the actuation with the given parameters.
	Act(params map[string]float64) error
}

// ActuatorFunc adapts a function to the Actuator interface.
type ActuatorFunc struct {
	ActuatorName string
	Fn           func(params map[string]float64) error
}

// Name implements Actuator.
func (a ActuatorFunc) Name() string { return a.ActuatorName }

// Act implements Actuator.
func (a ActuatorFunc) Act(params map[string]float64) error { return a.Fn(params) }

// EventRule publishes an event when a sensed value crosses a threshold —
// "a local agent is used to generate events when the load reaches a certain
// threshold".
type EventRule struct {
	// Sensor is the watched sensor name.
	Sensor string
	// Above fires the event when the reading is >= the value.
	Above *float64
	// Below fires the event when the reading is <= the value.
	Below *float64
	// Event is the event name to publish.
	Event string
}

// StateReport is the payload a component agent publishes on each poll.
type StateReport struct {
	Agent    string             `json:"agent"`
	Seq      int                `json:"seq"`
	Readings map[string]float64 `json:"readings"`
}

// Event is the payload of a threshold event.
type Event struct {
	Agent  string  `json:"agent"`
	Name   string  `json:"name"`
	Sensor string  `json:"sensor"`
	Value  float64 `json:"value"`
}

// Command is the payload of an actuation directive sent to an agent's
// mailbox.
type Command struct {
	Actuator string             `json:"actuator"`
	Params   map[string]float64 `json:"params,omitempty"`
}

// Topics used by the control network.
const (
	TopicState  = "agent-state"
	TopicEvents = "agent-events"
)

// ComponentAgent is the CA of the CATALINA architecture: it monitors one
// application component through its sensors, publishes state and threshold
// events to the Message Center, and applies actuators when commanded.
type ComponentAgent struct {
	// ID is the agent's identity and mailbox port name.
	ID string
	// StateTopic overrides the topic state reports are published on
	// (default TopicState); group members publish on their group topic.
	StateTopic string
	// OnError, when set, receives asynchronous errors from Run — failed
	// polls and undecodable commands that the loop would otherwise drop.
	// It runs on the agent goroutine and must not block.
	OnError func(error)

	port      Port
	inbox     <-chan Message
	sensors   []Sensor
	actuators map[string]Actuator
	rules     []EventRule

	mu  sync.Mutex
	seq int
	// latched remembers which rules currently hold, so events fire on the
	// crossing, not continuously.
	latched map[int]bool
}

// NewComponentAgent registers the agent's mailbox on the port and returns
// the agent.
func NewComponentAgent(id string, port Port, sensors []Sensor, actuators []Actuator, rules []EventRule) (*ComponentAgent, error) {
	if id == "" {
		return nil, fmt.Errorf("agents: component agent without id")
	}
	inbox, err := port.Register(id, 64)
	if err != nil {
		return nil, err
	}
	acts := make(map[string]Actuator, len(actuators))
	for _, a := range actuators {
		acts[a.Name()] = a
	}
	return &ComponentAgent{
		ID:        id,
		port:      port,
		inbox:     inbox,
		sensors:   sensors,
		actuators: acts,
		rules:     rules,
		latched:   make(map[int]bool),
	}, nil
}

// Poll reads all sensors, publishes a state report, and fires threshold
// events. It returns the report.
func (ca *ComponentAgent) Poll() (StateReport, error) {
	readings := make(map[string]float64, len(ca.sensors))
	for _, s := range ca.sensors {
		v, err := s.Read()
		if err != nil {
			return StateReport{}, fmt.Errorf("agents: %s: sensor %s: %w", ca.ID, s.Name(), err)
		}
		readings[s.Name()] = v
	}
	ca.mu.Lock()
	ca.seq++
	report := StateReport{Agent: ca.ID, Seq: ca.seq, Readings: readings}
	var events []Event
	for i, r := range ca.rules {
		v, ok := readings[r.Sensor]
		if !ok {
			continue
		}
		firing := (r.Above != nil && v >= *r.Above) || (r.Below != nil && v <= *r.Below)
		if firing && !ca.latched[i] {
			events = append(events, Event{Agent: ca.ID, Name: r.Event, Sensor: r.Sensor, Value: v})
		}
		ca.latched[i] = firing
	}
	ca.mu.Unlock()

	topic := ca.StateTopic
	if topic == "" {
		topic = TopicState
	}
	if err := ca.port.Publish(Message{
		From: ca.ID, Topic: topic, Kind: "state", Payload: Encode(report),
	}); err != nil {
		return report, err
	}
	for _, ev := range events {
		if err := ca.port.Publish(Message{
			From: ca.ID, Topic: TopicEvents, Kind: "event", Payload: Encode(ev),
		}); err != nil {
			return report, err
		}
	}
	return report, nil
}

// HandleCommand applies one actuation command.
func (ca *ComponentAgent) HandleCommand(cmd Command) error {
	act, ok := ca.actuators[cmd.Actuator]
	if !ok {
		return fmt.Errorf("agents: %s: unknown actuator %q", ca.ID, cmd.Actuator)
	}
	return act.Act(cmd.Params)
}

// DrainInbox processes every queued mailbox message; command messages are
// applied, others ignored. It returns the number of commands executed and
// the first actuation error.
func (ca *ComponentAgent) DrainInbox() (int, error) {
	n := 0
	var firstErr error
	for {
		select {
		case m, ok := <-ca.inbox:
			if !ok {
				return n, firstErr
			}
			if m.Kind != "command" {
				continue
			}
			var cmd Command
			if err := Decode(m, &cmd); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if err := ca.HandleCommand(cmd); err != nil && firstErr == nil {
				firstErr = err
			}
			n++
		default:
			return n, firstErr
		}
	}
}

// Run polls on the given interval and serves its mailbox until the context
// is cancelled — the autonomous mode of the agent.
func (ca *ComponentAgent) Run(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if _, err := ca.Poll(); err != nil {
				ca.reportErr(err)
			}
		case m, ok := <-ca.inbox:
			if !ok {
				return
			}
			if m.Kind == "command" {
				var cmd Command
				if err := Decode(m, &cmd); err != nil {
					ca.reportErr(fmt.Errorf("agents: %s: bad command: %w", ca.ID, err))
				} else if err := ca.HandleCommand(cmd); err != nil {
					ca.reportErr(err)
				}
			}
		}
	}
}

func (ca *ComponentAgent) reportErr(err error) {
	if ca.OnError != nil {
		ca.OnError(err)
	}
}
