package funcsim

import (
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/nonideal"
	"geniex/internal/xbar"
)

// testScenario is a representative mixed stack: hard faults, programming
// variation, and aging.
func testScenario(seed uint64) *nonideal.Scenario {
	return &nonideal.Scenario{
		Stack: nonideal.Stack{
			&nonideal.StuckAt{POn: 0.02, POff: 0.03},
			&nonideal.D2DVariation{Sigma: 0.15},
			&nonideal.Drift{Nu: 0.02, Tau0: 10},
		},
		Seed: seed,
		Time: 1e4,
	}
}

// lowerWithScenario lowers w under the scenario with the probe enabled,
// so the per-slice conductance matrices are retained for inspection.
func lowerWithScenario(t *testing.T, sc *nonideal.Scenario, m Model, workers int, w *linalg.Dense) *Matrix {
	t.Helper()
	cfg := exactConfig(8, 8)
	cfg.Scenario = sc
	cfg.ProbeRate = 1 << 30 // retain posG/negG without sampling anything
	cfg.Workers = workers
	eng, err := NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	lm, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	return lm
}

// conductancesOf flattens every retained per-slice conductance matrix
// of the lowering, in deterministic tile order.
func conductancesOf(lm *Matrix) []float64 {
	var out []float64
	for tr := range lm.conds {
		for tc := range lm.conds[tr] {
			cd := &lm.conds[tr][tc]
			for _, g := range cd.pos {
				out = append(out, g.Data...)
			}
			for _, g := range cd.neg {
				out = append(out, g.Data...)
			}
		}
	}
	return out
}

// The same scenario seed must produce bit-identical perturbed
// conductances across independent lowerings and across worker counts.
func TestScenarioSeedReproducible(t *testing.T) {
	r := linalg.NewRNG(41)
	w := randMatrix(r, 20, 13, 2)
	ref := conductancesOf(lowerWithScenario(t, testScenario(7), Ideal{}, 1, w))
	if len(ref) == 0 {
		t.Fatal("no conductances retained")
	}
	for _, workers := range []int{0, 1, 3} {
		got := conductancesOf(lowerWithScenario(t, testScenario(7), Ideal{}, workers, w))
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d conductances, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: conductance %d = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
	other := conductancesOf(lowerWithScenario(t, testScenario(8), Ideal{}, 1, w))
	same := 0
	for i := range other {
		if other[i] == ref[i] {
			same++
		}
	}
	if same == len(ref) {
		t.Fatal("different seeds produced identical perturbations")
	}
}

// Every fidelity tier lowers the same weights onto the same perturbed
// conductances: the scenario acts on the matrices the model tiles are
// built from, not inside any one model.
func TestScenarioSameConductancesAcrossTiers(t *testing.T) {
	r := linalg.NewRNG(43)
	w := randMatrix(r, 16, 10, 2)
	sc := testScenario(11)
	cfg := exactConfig(8, 8)
	models := []Model{
		Ideal{},
		Analytical{Cfg: cfg.Xbar},
		Circuit{Cfg: cfg.Xbar},
	}
	var ref []float64
	for _, m := range models {
		got := conductancesOf(lowerWithScenario(t, sc, m, 1, w))
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d conductances, want %d", m.Name(), len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: conductance %d = %v, want %v", m.Name(), i, got[i], ref[i])
			}
		}
	}
}

// MVM results under a scenario are deterministic across engines and
// worker counts, and actually differ from the clean lowering.
func TestScenarioMVMDeterministicAndPerturbing(t *testing.T) {
	r := linalg.NewRNG(47)
	w := randMatrix(r, 16, 9, 2)
	x := randMatrix(r, 3, 16, 2)

	run := func(sc *nonideal.Scenario, workers int) []float64 {
		cfg := exactConfig(8, 8)
		cfg.Scenario = sc
		cfg.Workers = workers
		eng, err := NewEngine(cfg, Ideal{})
		if err != nil {
			t.Fatal(err)
		}
		lm, err := eng.Lower(w)
		if err != nil {
			t.Fatal(err)
		}
		out, err := lm.MVM(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		return out.Data
	}

	ref := run(testScenario(3), 1)
	for _, workers := range []int{0, 2} {
		got := run(testScenario(3), workers)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
	clean := run(nil, 1)
	same := true
	for i := range clean {
		if clean[i] != ref[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("scenario lowering produced identical MVM results to clean lowering")
	}
}

// The lowering report counts tiles and stuck cells, and the stuck-at
// fraction surfaces as a degraded-tile fraction.
func TestScenarioReportAndDegradedFraction(t *testing.T) {
	r := linalg.NewRNG(53)
	w := randMatrix(r, 24, 17, 2)
	lm := lowerWithScenario(t, testScenario(5), Ideal{}, 1, w)
	rep := lm.NonIdeal()
	if rep.Tiles == 0 || rep.Cells == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.Stuck == 0 {
		t.Fatal("stuck-at scenario injected no stuck cells")
	}
	if df := rep.DegradedFraction(); df <= 0 || df > 1 {
		t.Fatalf("degraded fraction %v out of range", df)
	}
	if rep.PerKind[nonideal.KindStuckAt] == 0 || rep.PerKind[nonideal.KindDrift] == 0 {
		t.Fatalf("per-kind counts missing: %+v", rep.PerKind)
	}

	clean, err := func() (*Matrix, error) {
		eng, err := NewEngine(exactConfig(8, 8), Ideal{})
		if err != nil {
			return nil, err
		}
		return eng.Lower(w)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if rep := clean.NonIdeal(); rep.Stuck != 0 || rep.Touched != 0 {
		t.Fatalf("clean lowering reported perturbations: %+v", rep)
	}
}

// An invalid scenario is rejected at configuration time.
func TestScenarioValidation(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Scenario = &nonideal.Scenario{
		Stack: nonideal.Stack{&nonideal.D2DVariation{Sigma: -1}},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative-sigma scenario accepted")
	}
	if _, err := NewEngine(cfg, Ideal{}); err == nil {
		t.Fatal("NewEngine accepted invalid scenario")
	}
}

// A FaultPlan's stuck-at component perturbs the conductances a circuit
// tile actually solves on — the chaos path shares the same component
// the scenario path uses.
func TestFaultPlanStuckAtReachesCircuit(t *testing.T) {
	cfg, err := xbar.NewConfig(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := linalg.NewDense(8, 8)
	mid := 0.5 * (cfg.Goff() + cfg.Gon())
	linalg.Fill(g.Data, mid)

	faulted := cfg.WithFaults(&xbar.FaultPlan{
		StuckAt:   &nonideal.StuckAt{POn: 0.2, POff: 0.2},
		StuckSeed: 77,
	})
	s, err := xbar.NewBatchSolver(faulted, g)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for _, gv := range s.Conductances().Data {
		switch gv {
		case cfg.Gon(), cfg.Goff():
			pinned++
		case mid:
		default:
			t.Fatalf("unexpected conductance %v", gv)
		}
	}
	if pinned == 0 {
		t.Fatal("stuck-at plan left every cell untouched")
	}

	s2, err := xbar.NewBatchSolver(faulted, g)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Conductances().Data, s2.Conductances().Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stuck mask not reproducible at cell %d", i)
		}
	}
}
