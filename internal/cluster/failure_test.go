package cluster

import (
	"reflect"
	"testing"
)

func TestFailStopsNodeFromFailureTime(t *testing.T) {
	c := Homogeneous(4, 1e5, 512, 10)
	c.Fail(2, 3.5)
	if !c.Alive(2, 3.4999) {
		t.Error("node 2 dead before its failure time")
	}
	if c.Alive(2, 3.5) || c.Alive(2, 100) {
		t.Error("node 2 alive at or after its failure time")
	}
	for _, i := range []int{0, 1, 3} {
		if !c.Alive(i, 100) {
			t.Errorf("node %d dead without a scheduled failure", i)
		}
	}
}

func TestAliveRejectsOutOfRangeNodes(t *testing.T) {
	c := Homogeneous(2, 1e5, 512, 10)
	if c.Alive(-1, 0) || c.Alive(2, 0) {
		t.Error("an index outside the machine reported alive")
	}
}

func TestAliveNodesInOrder(t *testing.T) {
	c := Homogeneous(5, 1e5, 512, 10)
	c.Fail(3, 1)
	c.Fail(1, 2)
	for _, tc := range []struct {
		at   float64
		want []int
	}{
		{0, []int{0, 1, 2, 3, 4}},
		{1, []int{0, 1, 2, 4}},
		{2, []int{0, 2, 4}},
	} {
		if got := c.AliveNodes(tc.at); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("AliveNodes(%g) = %v, want %v", tc.at, got, tc.want)
		}
	}
}
