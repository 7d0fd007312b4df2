package funcsim

import (
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

func TestCalibratedName(t *testing.T) {
	c := Calibrated{Inner: Analytical{Cfg: xbar.DefaultConfig()}, Xbar: xbar.DefaultConfig()}
	if c.Name() != "analytical+cal" {
		t.Errorf("name = %q", c.Name())
	}
}

// Calibrating the ideal model must be a near-no-op (gains ≈ 1).
func TestCalibrationOfIdealIsIdentity(t *testing.T) {
	cfg := harshXbar()
	c := Calibrated{Inner: Ideal{}, Seed: 1, Xbar: cfg}
	r := linalg.NewRNG(2)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	tile, err := c.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.NewDense(3, cfg.Rows)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * r.Float64()
	}
	got, err := currents(tile, v, g.Cols)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.MatMul(v, g)
	if rmse := linalg.RMSE(got.Data, want.Data); rmse > 1e-12*want.Data[0] {
		// Allow tiny float noise relative to the current scale.
		rel := rmse / (linalg.NormInf(want.Data) + 1e-30)
		if rel > 1e-10 {
			t.Errorf("ideal calibration changed currents: relative %v", rel)
		}
	}
}

// Calibration must reduce the circuit model's distortion: the
// compensated analytical tile tracks the ideal MVM better than the raw
// one on fresh inputs.
func TestCalibrationReducesDistortion(t *testing.T) {
	cfg := harshXbar()
	r := linalg.NewRNG(3)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	raw, err := Analytical{Cfg: cfg}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrated{Inner: Analytical{Cfg: cfg}, Seed: 5, Xbar: cfg}.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.NewDense(8, cfg.Rows)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * r.Float64()
	}
	ideal := linalg.MatMul(v, g)
	rawOut, err := currents(raw, v, g.Cols)
	if err != nil {
		t.Fatal(err)
	}
	calOut, err := currents(cal, v, g.Cols)
	if err != nil {
		t.Fatal(err)
	}
	rawErr := linalg.RMSE(rawOut.Data, ideal.Data)
	calErr := linalg.RMSE(calOut.Data, ideal.Data)
	t.Logf("distortion RMSE: raw=%.3g calibrated=%.3g", rawErr, calErr)
	if calErr >= rawErr {
		t.Errorf("calibration did not reduce distortion: %v vs %v", calErr, rawErr)
	}
}

// End to end: a lowered network under the calibrated analytical model
// must match the float outputs at least as well as the uncalibrated
// one.
func TestCalibrationImprovesLoweredNetwork(t *testing.T) {
	r := linalg.NewRNG(6)
	net := buildTinyCNN(r)
	for i := 0; i < 10; i++ {
		x := randMatrix(r, 8, 36, 1)
		net.Forward(x, true)
	}
	x := randMatrix(r, 4, 36, 1)
	want := net.Forward(x, false)

	cfg := exactConfig(8, 8)
	cfg.Xbar = harshXbar()
	run := func(m Model) float64 {
		eng, err := NewEngine(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Lower(net, eng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		return linalg.RMSE(got.Data, want.Data)
	}
	raw := run(Analytical{Cfg: cfg.Xbar})
	cal := run(Calibrated{Inner: Analytical{Cfg: cfg.Xbar}, Seed: 7, Xbar: cfg.Xbar})
	t.Logf("network output RMSE vs float: raw=%.4f calibrated=%.4f", raw, cal)
	if cal > raw*1.05 {
		t.Errorf("calibration made things worse: %v vs %v", cal, raw)
	}
}

func TestCalibrationErrors(t *testing.T) {
	cfg := harshXbar()
	c := Calibrated{Inner: Ideal{}, Samples: -1, Xbar: cfg}
	if _, err := c.NewTile(linalg.NewDense(cfg.Rows, cfg.Cols)); err == nil {
		t.Error("expected error for negative samples")
	}
}
