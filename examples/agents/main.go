// Agents: the automated adaptation scenario of §4.7. Component agents on
// two emulated nodes (TCP clients of the Message Center) monitor local
// load, publish state and threshold events, and the application delegated
// manager consolidates them, queries the policy knowledge base, and directs
// a repartitioning — the full active control network in miniature.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"github.com/pragma-grid/pragma"
)

func main() {
	// The Message Center, served over TCP so agents can live on other
	// "nodes" (here: other goroutines holding TCP connections).
	center := pragma.NewMessageCenter()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go center.Serve(ln)
	defer ln.Close()

	// The ADM runs next to the broker with the Table 2 policy base.
	adm, err := pragma.NewADM("adm", center, pragma.Table2Policy())
	if err != nil {
		log.Fatal(err)
	}

	// Two node-local component agents connect over TCP. Each has a load
	// sensor, a repartition actuator, and a threshold event rule.
	type node struct {
		agent *pragma.ComponentAgent
		load  *float64
	}
	overload := 0.8
	mkNode := func(id string, initial float64) node {
		client, err := pragma.DialMessageCenter(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		load := initial
		agent, err := pragma.NewComponentAgent(id, client,
			[]pragma.Sensor{pragma.SensorFunc{SensorName: "load", Fn: func() (float64, error) { return load, nil }}},
			[]pragma.Actuator{pragma.ActuatorFunc{ActuatorName: "repartition", Fn: func(p map[string]float64) error {
				fmt.Printf("  [%s] actuator: repartitioning with %v\n", id, p)
				return nil
			}}},
			[]pragma.EventRule{{Sensor: "load", Above: &overload, Event: "overload"}},
		)
		if err != nil {
			log.Fatal(err)
		}
		return node{agent: agent, load: &load}
	}
	n1 := mkNode("node-1", 0.30)
	n2 := mkNode("node-2", 0.35)

	poll := func() {
		for _, n := range []node{n1, n2} {
			if _, err := n.agent.Poll(); err != nil {
				log.Fatal(err)
			}
		}
		// Let the TCP frames land, then absorb.
		deadline := time.Now().Add(2 * time.Second)
		for adm.Consolidate().Agents < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			adm.Absorb()
		}
		adm.Absorb()
	}

	fmt.Println("step 1: both nodes lightly loaded")
	poll()
	c := adm.Consolidate()
	fmt.Printf("  ADM view: %d agents, mean load %.2f, max load %.2f on %s\n",
		c.Agents, c.Mean["load"], c.Max["load"], c.ArgMax["load"])

	fmt.Println("step 2: node-2's background load spikes")
	*n2.load = 0.93
	poll()
	// Events travel over TCP asynchronously; absorb until one arrives.
	var events []pragma.ADMEvent
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		adm.Absorb()
		events = append(events, adm.PendingEvents()...)
		if len(events) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, ev := range events {
		fmt.Printf("  event: %s from %s (%s=%.2f)\n", ev.Name, ev.Agent, ev.Sensor, ev.Value)
	}
	if len(events) == 0 {
		log.Fatal("expected an overload event")
	}

	fmt.Println("step 3: ADM consults the policy base and directs repartitioning")
	// The application is currently communication-dominated and scattered
	// with high dynamics: octant VI.
	decisions := adm.Decide(map[string]interface{}{"octant": "VI"}, "select-partitioner")
	for _, d := range decisions {
		fmt.Printf("  policy: %s -> %s\n", d.Action.Kind, d.Action.Target)
	}
	if err := adm.Broadcast(pragma.Command{Actuator: "repartition", Params: map[string]float64{"procs": 2}}); err != nil {
		log.Fatal(err)
	}
	// Drain node-1's mailbox, then node-2's, each until its command fires.
	deadline := time.Now().Add(2 * time.Second)
	for _, n := range []node{n1, n2} {
		for {
			k, err := n.agent.DrainInbox()
			if err != nil {
				log.Fatal(err)
			}
			if k > 0 {
				break
			}
			if time.Now().After(deadline) {
				log.Fatal("expected a repartition command on every node")
			}
			time.Sleep(time.Millisecond)
		}
	}

	fmt.Println("step 4: template discovery for the new execution environment")
	registry := pragma.NewTemplateRegistry()
	if err := registry.Register(pragma.Template{
		Name:     "perf-migration",
		Provides: map[string]string{"attribute": "performance", "scheme": "migration"},
	}); err != nil {
		log.Fatal(err)
	}
	found := registry.Discover(map[string]string{"attribute": "performance"})
	for _, t := range found {
		fmt.Printf("  template: %s (%v)\n", t.Name, t.Provides)
	}
}
