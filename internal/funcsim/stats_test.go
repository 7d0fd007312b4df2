package funcsim

import (
	"testing"

	"geniex/internal/linalg"
)

func TestStatsCountersAccumulate(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.NewRNG(1)
	w := randMatrix(r, 8, 8, 2)
	lm, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	x := randMatrix(r, 4, 8, 2)
	if _, err := lm.MVM(nil, x); err != nil {
		t.Fatal(err)
	}
	s := lm.Stats()
	if s.MVMRows != 4 {
		t.Errorf("MVMRows = %d, want 4", s.MVMRows)
	}
	if s.CrossbarOps == 0 || s.ADCConversions == 0 || s.AccOps == 0 {
		t.Errorf("counters not accumulating: %s", s)
	}
	if s.ADCConversions != s.CrossbarOps*int64(cfg.Xbar.Cols) {
		t.Errorf("ADC conversions %d inconsistent with crossbar ops %d", s.ADCConversions, s.CrossbarOps)
	}
	lm.ResetStats()
	if lm.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear counters")
	}
}

// Sparse inputs must cost fewer crossbar operations than dense inputs
// (the zero-skipping the differential encoding enables).
func TestStatsSparsitySavesWork(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	r := linalg.NewRNG(2)
	w := randMatrix(r, 8, 8, 2)

	dense, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	xDense := randMatrix(r, 4, 8, 2)
	if _, err := dense.MVM(nil, xDense); err != nil {
		t.Fatal(err)
	}

	sparse, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	xSparse := linalg.NewDense(4, 8) // all zero
	if _, err := sparse.MVM(nil, xSparse); err != nil {
		t.Fatal(err)
	}
	if sparse.Stats().CrossbarOps >= dense.Stats().CrossbarOps {
		t.Errorf("sparse ops %d not below dense ops %d",
			sparse.Stats().CrossbarOps, dense.Stats().CrossbarOps)
	}
	if sparse.Stats().SkippedPasses == 0 {
		t.Error("zero input should skip passes")
	}
}

func TestSimStatsAggregation(t *testing.T) {
	r := linalg.NewRNG(3)
	net := buildTinyCNN(r)
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}
	x := randMatrix(r, 2, 36, 1)
	if _, err := sim.Forward(x); err != nil {
		t.Fatal(err)
	}
	s := sim.Stats()
	if s.CrossbarOps == 0 || s.MVMRows == 0 {
		t.Errorf("aggregated stats empty: %s", s)
	}
	sim.ResetStats()
	if sim.Stats() != (Stats{}) {
		t.Error("Sim.ResetStats did not clear")
	}
}

func TestEnergyEstimate(t *testing.T) {
	em := DefaultEnergyModel()
	cfg := DefaultConfig()
	s := Stats{CrossbarOps: 1000, ADCConversions: 64000, ShiftAdds: 64000, AccOps: 4096, MVMRows: 64}
	r := em.Estimate(s, cfg)
	if r.Energy <= 0 || r.Latency <= 0 {
		t.Fatalf("non-positive estimate: %+v", r)
	}
	// Doubling the op counts must double the energy.
	s2 := s
	s2.CrossbarOps *= 2
	s2.ADCConversions *= 2
	s2.ShiftAdds *= 2
	s2.AccOps *= 2
	s2.MVMRows *= 2
	r2 := em.Estimate(s2, cfg)
	if r2.Energy <= r.Energy*1.99 || r2.Energy >= r.Energy*2.01 {
		t.Errorf("energy not linear in ops: %v vs %v", r2.Energy, r.Energy)
	}
}

// Wider streams mean fewer sequential steps: latency per MVM row must
// drop as StreamBits grows.
func TestEnergyLatencyVsStreamWidth(t *testing.T) {
	em := DefaultEnergyModel()
	s := Stats{MVMRows: 100}
	lat := func(streamBits int) float64 {
		cfg := DefaultConfig()
		cfg.StreamBits = streamBits
		return em.Estimate(s, cfg).Latency
	}
	if !(lat(1) > lat(2) && lat(2) > lat(4)) {
		t.Errorf("latency not decreasing with stream width: %v %v %v", lat(1), lat(2), lat(4))
	}
}

func TestCrossbarsCount(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	// All-positive weights: only positive crossbars are allocated.
	wPos := linalg.NewDense(8, 8)
	linalg.Fill(wPos.Data, 1)
	lmPos, err := eng.Lower(wPos)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed-sign weights: positive and negative crossbars.
	wMix := wPos.Clone()
	wMix.Data[0] = -1
	lmMix, err := eng.Lower(wMix)
	if err != nil {
		t.Fatal(err)
	}
	if lmMix.Crossbars() != 2*lmPos.Crossbars() {
		t.Errorf("mixed-sign crossbars = %d, want %d", lmMix.Crossbars(), 2*lmPos.Crossbars())
	}
}
