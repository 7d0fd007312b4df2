package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	// A forward [0,100) with two sequential layers; the second layer's
	// MVM has two tile tasks that overlap in time (parallel workers),
	// one of which has a solve child.
	spans := []span{
		{ID: 1, Name: "funcsim.forward", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "funcsim.layer.00.conv", Start: 2, Dur: 40},
		{ID: 3, Parent: 1, Name: "funcsim.layer.01.digital", Start: 45, Dur: 50},
		{ID: 4, Parent: 3, Name: "funcsim.mvm", Start: 50, Dur: 40},
		{ID: 5, Parent: 4, Name: "funcsim.tile", Start: 52, Dur: 20},
		{ID: 6, Parent: 4, Name: "funcsim.tile", Start: 60, Dur: 25},
		{ID: 7, Parent: 6, Name: "xbar.batch.solve", Start: 61, Dur: 10},
		// A child sticking out of its parent counts only inside it.
		{ID: 8, Parent: 2, Name: "funcsim.mvm", Start: 30, Dur: 20},
	}
	want := map[int64]int64{
		1: 100 - 40 - 50,
		2: 40 - 12, // [30,42) of the child lies inside [2,42)
		3: 50 - 40,
		4: 40 - (85 - 52), // tiles cover the union [52,85)
		5: 20,
		6: 25 - 10,
		7: 10,
		8: 20,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}

	var bd breakdown
	bd.add(spans)
	if bd.forwardMS != 100/1e6 {
		t.Errorf("forward ms = %v", bd.forwardMS)
	}
	if w := float64(20+15) / 1e6; math.Abs(bd.selfMS["funcsim.tile"]-w) > 1e-15 {
		t.Errorf("tile self ms = %v, want %v (summed over both tasks)", bd.selfMS["funcsim.tile"], w)
	}
}

func TestCheckTreeAndCoverage(t *testing.T) {
	ok := []span{
		{ID: 1, Name: "bench.forward", Start: 0, Dur: 1000},
		{ID: 2, Parent: 1, Name: "funcsim.forward", Start: 1, Dur: 998},
		{ID: 3, Parent: 2, Name: "funcsim.layer.00.conv", Start: 2, Dur: 500},
		{ID: 4, Parent: 2, Name: "funcsim.layer.01.digital", Start: 502, Dur: 490},
	}
	if err := checkTree(ok, "bench.forward"); err != nil {
		t.Errorf("checkTree: %v", err)
	}
	if err := checkCoverage(ok); err != nil {
		t.Errorf("checkCoverage: %v", err)
	}
	orphan := append(append([]span{}, ok...), span{ID: 9, Parent: 77, Name: "funcsim.tile"})
	if checkTree(orphan, "bench.forward") == nil {
		t.Error("checkTree accepted a span whose parent is missing")
	}
	if checkTree(ok[1:], "bench.forward") == nil {
		t.Error("checkTree accepted a trace without its root")
	}
	gap := []span{ok[1], ok[2]} // the layers leave half the forward uncovered
	if checkCoverage(gap) == nil {
		t.Error("checkCoverage accepted layers covering half the forward")
	}
	overlap := []span{ok[1], ok[2], {ID: 5, Parent: 2, Name: "funcsim.layer.01.digital", Start: 400, Dur: 595}}
	if checkCoverage(overlap) == nil {
		t.Error("checkCoverage accepted overlapping layer spans")
	}
}

func TestOpenLoopArithmetic(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueTimes(start, 4, 3)
	for i, w := range []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond} {
		if got := due[i].Sub(start); got != w {
			t.Errorf("due[%d] = start+%v, want start+%v", i, got, w)
		}
	}
	// A request sent 30 ms late and answered 20 ms after sending is
	// charged 50 ms: the time it waited behind its schedule counts.
	sent := due[1].Add(30 * time.Millisecond)
	done := sent.Add(20 * time.Millisecond)
	if got := sinceDue(due[1], done); got != 50*time.Millisecond {
		t.Errorf("latency from due = %v, want 50ms", got)
	}
	if got := lateness(due[1], sent); got != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", got)
	}
	if got := lateness(due[1], due[1].Add(-time.Millisecond)); got != 0 {
		t.Errorf("early hand-over lateness = %v, want 0", got)
	}
}

func TestServerTraceAccounting(t *testing.T) {
	var tr chromeTrace
	add := func(name string, tid, id, parent int64, ts, dur float64) {
		tr.TraceEvents = append(tr.TraceEvents, traceEvent{
			Name: name, Ph: "X", Tid: tid, Ts: ts, Dur: dur,
			Args: traceArgs{SpanID: id, ParentID: parent},
		})
	}
	add("serve.request", 1, 10, 0, 0, 50)
	add("funcsim.forward", 1, 11, 10, 1, 48)
	add("serve.request", 2, 20, 0, 100, 50)
	add("funcsim.forward", 2, 21, 20, 101, 48)
	tr.SpansDropped = 7
	if got := tr.ringTotal(); got != 11 {
		t.Errorf("ring total = %d, want 4 retained + 7 dropped", got)
	}
	spans := tr.lastRequest()
	if len(spans) != 2 || spans[0].Trace != 2 {
		t.Fatalf("last request spans = %+v, want trace 2's two spans", spans)
	}
	if spans[1].Start != 101000 || spans[1].Dur != 48000 {
		t.Errorf("µs not converted to ns: %+v", spans[1])
	}
}

func TestTierCoverage(t *testing.T) {
	if err := checkTierCoverage(); err != nil {
		t.Fatal(err)
	}
	saved := excluded
	excluded = map[string]string{}
	defer func() { excluded = saved }()
	if checkTierCoverage() == nil {
		t.Error("the guard accepted geniex-adaptive with no workload and no exclusion")
	}
}
