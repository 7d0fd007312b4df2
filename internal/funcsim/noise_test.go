package funcsim

import (
	"math"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

func noiseFullScale(cfg xbar.Config) float64 {
	return float64(cfg.Rows) * cfg.Vsupply * cfg.Gon()
}

func TestNoisyZeroSigmaIsTransparent(t *testing.T) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	n := &Noisy{Inner: Ideal{}, Sigma: 0, FullScale: noiseFullScale(cfg), Seed: 1}
	r := linalg.NewRNG(2)
	g := linalg.NewDense(8, 8)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	tile, err := n.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.NewDense(3, 8)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * r.Float64()
	}
	got, err := currents(tile, v, g.Cols)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.MatMul(v, g)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("zero-sigma noise changed currents")
		}
	}
}

func TestNoisyPerturbationStatistics(t *testing.T) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	full := noiseFullScale(cfg)
	n := &Noisy{Inner: Ideal{}, Sigma: 0.01, FullScale: full, Seed: 3}
	r := linalg.NewRNG(4)
	g := linalg.NewDense(8, 8)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(0.5 + 0.5*r.Float64())
	}
	tile, err := n.NewTile(g)
	if err != nil {
		t.Fatal(err)
	}
	v := linalg.NewDense(500, 8)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * (0.5 + 0.5*r.Float64())
	}
	got, err := currents(tile, v, g.Cols)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.MatMul(v, g)
	var sum, sq float64
	for i := range got.Data {
		d := got.Data[i] - want.Data[i]
		sum += d
		sq += d * d
	}
	nSamples := float64(len(got.Data))
	mean := sum / nSamples
	std := math.Sqrt(sq/nSamples - mean*mean)
	if math.Abs(mean) > 0.002*full {
		t.Errorf("noise mean %v too large", mean/full)
	}
	if math.Abs(std-0.01*full)/(0.01*full) > 0.15 {
		t.Errorf("noise std %v, want ~%v", std, 0.01*full)
	}
}

func TestNoisyDeterministicAcrossRuns(t *testing.T) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	run := func() []float64 {
		n := &Noisy{Inner: Ideal{}, Sigma: 0.05, FullScale: noiseFullScale(cfg), Seed: 7}
		r := linalg.NewRNG(8)
		g := linalg.NewDense(8, 8)
		for i := range g.Data {
			g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
		}
		tile, err := n.NewTile(g)
		if err != nil {
			t.Fatal(err)
		}
		v := linalg.NewDense(4, 8)
		for i := range v.Data {
			v.Data[i] = cfg.Vsupply * r.Float64()
		}
		out, err := currents(tile, v, g.Cols)
		if err != nil {
			t.Fatal(err)
		}
		return out.Data
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noise not reproducible across identical runs")
		}
	}
}

func TestNoisyValidation(t *testing.T) {
	n := &Noisy{Inner: Ideal{}, Sigma: -1, FullScale: 1}
	if _, err := n.NewTile(linalg.NewDense(2, 2)); err == nil {
		t.Error("expected error for negative sigma")
	}
	n = &Noisy{Inner: Ideal{}, Sigma: 0.1}
	if _, err := n.NewTile(linalg.NewDense(2, 2)); err == nil {
		t.Error("expected error for missing full scale")
	}
}

// Accuracy through the pipeline must degrade monotonically-ish with
// read noise: heavy noise must hurt more than no noise.
func TestNoiseDegradesAccuracy(t *testing.T) {
	r := linalg.NewRNG(9)
	net := buildTinyCNN(r)
	for i := 0; i < 10; i++ {
		net.Forward(randMatrix(r, 8, 36, 1), true)
	}
	x := randMatrix(r, 4, 36, 1)
	want := net.Forward(x, false)
	cfg := exactConfig(8, 8)
	rmseAt := func(sigma float64) float64 {
		eng, err := NewEngine(cfg, &Noisy{
			Inner: Ideal{}, Sigma: sigma,
			FullScale: noiseFullScale(cfg.Xbar), Seed: 11,
		})
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
	clean := rmseAt(0)
	noisy := rmseAt(0.05)
	if noisy <= clean {
		t.Errorf("read noise had no effect: %v vs %v", noisy, clean)
	}
}
