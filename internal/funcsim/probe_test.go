package funcsim

import (
	"testing"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// probedEngine lowers the test workload under an engine with the
// fidelity probe enabled at the given rate.
func probedEngine(t *testing.T, rate int) (*Engine, *Matrix, *linalg.Dense) {
	t.Helper()
	cfg := exactConfig(8, 8)
	cfg.Workers = 1
	cfg.ProbeRate = rate
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	w, x := testWorkload(77, 20, 12, 4) // 3×2 tile grid
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mat, x
}

// With probing enabled the engine must sample tile MVMs, shadow-solve
// them through the circuit solver, and report a nonzero divergence —
// the ideal model ignores every non-ideality, so rrmse > 0.
func TestProbeSamplesAndSolves(t *testing.T) {
	eng, mat, x := probedEngine(t, 1)
	for i := 0; i < 4; i++ {
		if _, err := mat.MVM(nil, x); err != nil {
			t.Fatal(err)
		}
	}
	p := eng.Probe()
	if p == nil {
		t.Fatal("engine with ProbeRate=1 has no probe")
	}
	if !p.Drain(30 * time.Second) {
		t.Fatal("probe did not drain")
	}
	s := p.Stats()
	if s.Sampled == 0 {
		t.Fatal("no tile MVMs sampled")
	}
	if s.Solved == 0 {
		t.Fatalf("no shadow-solves completed: %+v", s)
	}
	if s.Failures != 0 {
		t.Errorf("%d shadow-solves failed", s.Failures)
	}
	if s.RRMSEEWMA <= 0 {
		t.Errorf("ideal-vs-circuit rrmse EWMA = %g, want > 0", s.RRMSEEWMA)
	}
	if len(s.Tiles) == 0 {
		t.Fatal("no per-tile aggregates recorded")
	}
	for i, ts := range s.Tiles {
		if ts.Probes <= 0 || ts.MeanRRMSE <= 0 {
			t.Errorf("tile %d: %+v, want positive probe count and rrmse", i, ts)
		}
		if i > 0 {
			prev := s.Tiles[i-1]
			if prev.Matrix > ts.Matrix ||
				(prev.Matrix == ts.Matrix && prev.TileRow > ts.TileRow) ||
				(prev.Matrix == ts.Matrix && prev.TileRow == ts.TileRow && prev.TileCol >= ts.TileCol) {
				t.Errorf("tiles not sorted at %d: %+v after %+v", i, ts, prev)
			}
		}
	}
	if got := s.String(); got == "" {
		t.Error("empty Stats summary")
	}
}

// A stalled solver must never block the MVM hot path: samples beyond
// the queue capacity drop and are counted, and the MVM itself keeps
// returning correct results.
func TestProbeDropsNeverBlocks(t *testing.T) {
	eng, mat, x := probedEngine(t, 1)
	p := eng.Probe()
	release := make(chan struct{})
	p.setSolveHook(func(*probeJob) { <-release })
	defer close(release)

	ref, err := mat.MVM(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the queue: each MVM samples 6 tile tasks at rate 1; run
	// enough to exhaust queue+freelist many times over.
	for i := 0; i < 30; i++ {
		y, err := mat.MVM(nil, x)
		if err != nil {
			t.Fatalf("MVM %d under stalled probe: %v", i, err)
		}
		for j := range ref.Data {
			if y.Data[j] != ref.Data[j] {
				t.Fatalf("MVM %d output diverged under stalled probe", i)
			}
		}
	}
	s := p.Stats()
	if s.Dropped == 0 {
		t.Errorf("stalled probe dropped nothing (sampled %d): queue must be bounded", s.Sampled)
	}
	if s.Sampled < s.Dropped {
		t.Errorf("dropped %d > sampled %d", s.Dropped, s.Sampled)
	}
}

// The sampling decision plus the drop path must not allocate: with the
// worker stalled and the queue saturated, steady-state MVMInto keeps
// the 0 allocs/op contract of the unprobed pipeline.
func TestProbedMVMIntoSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates")
	}
	eng, mat, x := probedEngine(t, 1)
	p := eng.Probe()
	release := make(chan struct{})
	p.setSolveHook(func(*probeJob) { <-release })
	defer close(release)

	dst := linalg.NewDense(x.Rows, mat.Out())
	for i := 0; i < 12; i++ { // warm pools and exhaust the probe freelist
		if err := mat.MVMInto(nil, dst, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := mat.MVMInto(nil, dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("probed steady-state MVMInto allocates %.1f objects per call, want 0", allocs)
	}
	if s := p.Stats(); s.Dropped == 0 {
		t.Errorf("expected saturated probe to drop (sampled %d)", s.Sampled)
	}
}

// SetBaseline arms the drift gauge immediately.
func TestProbeSetBaseline(t *testing.T) {
	eng, mat, x := probedEngine(t, 1)
	p := eng.Probe()
	p.SetBaseline(0.01)
	for i := 0; i < 2; i++ {
		if _, err := mat.MVM(nil, x); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Drain(30 * time.Second) {
		t.Fatal("probe did not drain")
	}
	s := p.Stats()
	if !s.BaselineRecorded || s.Baseline != 0.01 {
		t.Errorf("baseline = %+v, want recorded 0.01", s)
	}
	if s.Drift != s.RRMSEEWMA-s.Baseline {
		t.Errorf("drift = %g, want %g", s.Drift, s.RRMSEEWMA-s.Baseline)
	}
}

// ProbeRate is validated, the probe is absent when disabled, and Close
// is idempotent.
func TestProbeConfigAndLifecycle(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.ProbeRate = -1
	if _, err := NewEngine(cfg, Ideal{}); err == nil {
		t.Error("negative ProbeRate accepted")
	}
	cfg.ProbeRate = 0
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Probe() != nil {
		t.Error("ProbeRate=0 engine has a probe")
	}
	eng.Close() // no probe: must be a no-op
	eng2, _, _ := probedEngine(t, 4)
	eng2.Close()
	eng2.Close() // idempotent
}

// The probe publishes into the process-wide fidelity metrics.
func TestProbePublishesMetrics(t *testing.T) {
	before := obs.Default().Snapshot()
	eng, mat, x := probedEngine(t, 1)
	for i := 0; i < 2; i++ {
		if _, err := mat.MVM(nil, x); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.Probe().Drain(30 * time.Second) {
		t.Fatal("probe did not drain")
	}
	after := obs.Default().Snapshot()
	if d := after.Counters["funcsim.probe.solved"] - before.Counters["funcsim.probe.solved"]; d <= 0 {
		t.Errorf("funcsim.probe.solved advanced by %d, want > 0", d)
	}
	rr := after.Histograms["funcsim.probe.rrmse"]
	if rr.Count == 0 || rr.Sum <= 0 {
		t.Errorf("funcsim.probe.rrmse = %+v, want nonzero samples", rr)
	}
}
