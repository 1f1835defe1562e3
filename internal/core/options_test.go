package core

import (
	"testing"
	"time"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Group == "" || o.HeartbeatEvery <= 0 || o.SuspectAfter <= 0 ||
		o.Tick <= 0 || o.ProposeTimeout <= 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	if o.Observer != nil {
		t.Fatal("a nil Observer must stay nil: observation is off")
	}
	set := Options{
		Group:          "g",
		HeartbeatEvery: time.Second,
		SuspectAfter:   2 * time.Second,
		Tick:           time.Millisecond,
		ProposeTimeout: time.Second,
	}.withDefaults()
	if set.HeartbeatEvery != time.Second || set.Tick != time.Millisecond {
		t.Fatal("withDefaults clobbered explicit values")
	}
}
