package xbar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"geniex/internal/linalg"
	"geniex/internal/obs"
)

// streamRow draws one drive vector the way the functional simulator
// produces them: 2-bit digits on a sparse grid of the supply.
func streamRow(cfg Config, r *linalg.RNG) []float64 {
	v := make([]float64, cfg.Rows)
	for i := range v {
		if r.Float64() < 0.4 {
			continue
		}
		v[i] = float64(1+r.Intn(3)) / 3 * cfg.Vsupply
	}
	return v
}

// batchOf stacks the given rows, by index into distinct, into a batch.
func batchOf(distinct [][]float64, order []int) *linalg.Dense {
	vs := linalg.NewDense(len(order), len(distinct[0]))
	for b, i := range order {
		copy(vs.Row(b), distinct[i])
	}
	return vs
}

// dupOrder is a batch layout with repeated, interleaved rows: five
// distinct drive vectors over twelve items.
var dupOrder = []int{0, 1, 0, 2, 1, 0, 3, 4, 2, 0, 4, 4}

// harshConfig is an aggressively non-ideal 8×8 design point (low Ron,
// low ON/OFF ratio, long wires, high supply) whose solves take more CG
// work than the default's.
func harshConfig() Config {
	cfg := smallConfig()
	cfg.Ron = 25e3
	cfg.OnOffRatio = 2
	cfg.Rwire = 25
	cfg.Vsupply = 0.5
	return cfg
}

// The seeded solver's output bits are pinned: GENIEx training data
// (core.Generate), and through it every golden digest of a trained
// surrogate's outputs, depend on them, so a solver edit that moves
// seeded numerics by even one ulp must fail here first. The batch carries duplicates so the digest also
// covers how repeated drive vectors are answered.
func TestSeededSolverOutputDigest(t *testing.T) {
	const want = "a763f5c87097d028dbc6652a7abcf4b741c6597cb3df8bff6a5ad0da1868eb38"
	h := sha256.New()
	var buf [8]byte
	for ci, cfg := range []Config{smallConfig(), harshConfig()} {
		r := linalg.NewRNG(uint64(90 + ci))
		g := randomLevels(cfg, r)
		distinct := make([][]float64, 5)
		for i := range distinct {
			distinct[i] = streamRow(cfg, r)
		}
		s, err := NewBatchSolver(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := s.SolveReport(batchOf(distinct, dupOrder))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllOK() {
			t.Fatalf("config %d: %v", ci, rep)
		}
		for _, x := range out.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("seeded solver output digest = %s, want %s", got, want)
	}
}

// solverWork is the solver work the obs registry recorded between two
// snapshots.
type solverWork struct {
	solves, dedup                                      int64
	newton, cg                                         float64
	luFallbacks, cgBreakdowns, dampedSteps, batchItems int64
}

func workBetween(before, after obs.SnapshotData) solverWork {
	c := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	h := func(name string) float64 { return after.Histograms[name].Sum - before.Histograms[name].Sum }
	return solverWork{
		solves:       c("xbar.solver.solves"),
		dedup:        c("xbar.batch.dedup_items"),
		newton:       h("xbar.solver.newton_iters"),
		cg:           h("xbar.solver.cg_iters"),
		luFallbacks:  c("xbar.solver.lu_fallbacks"),
		cgBreakdowns: c("xbar.solver.cg_breakdowns"),
		dampedSteps:  c("xbar.solver.damped_steps"),
		batchItems:   c("xbar.batch.items"),
	}
}

// checkDedupReport checks the duplicate-outcome rules for one batch:
// every repeat of an earlier item (same row bits, same fault coverage)
// copies that item's status and solution quality with zero work of its
// own, the solver ran once per distinct item (plus once per retry),
// and the report's work totals equal the obs deltas. A failed attempt's
// work reaches only the obs histograms, not the report, so the totals
// are compared on batches without failed or retried items.
func checkDedupReport(t *testing.T, name string, order []int, covered func(int) bool, rep *BatchReport, w solverWork) {
	t.Helper()
	first := map[[2]int]int{}
	solves := 0
	for b, row := range order {
		key := [2]int{row, 0}
		if covered(b) {
			key[1] = 1
		}
		f, seen := first[key]
		if !seen {
			first[key] = b
			solves += 1 + rep.Outcomes[b].Retries
			continue
		}
		o, fo := rep.Outcomes[b], rep.Outcomes[f]
		if o.Status != fo.Status || o.Err != fo.Err || o.Retries != fo.Retries ||
			o.Recovery != fo.Recovery || o.Converged != fo.Converged || o.Residual != fo.Residual {
			t.Errorf("%s: item %d outcome %+v does not copy item %d's %+v", name, b, o, f, fo)
		}
		if o.NewtonIters != 0 || o.CGIters != 0 || o.LUFallbacks != 0 || o.CGBreakdowns != 0 || o.DampedSteps != 0 {
			t.Errorf("%s: duplicate item %d reports solver work %+v", name, b, o)
		}
	}
	if w.solves != int64(solves) {
		t.Errorf("%s: xbar.solver.solves moved by %d, want %d (%d distinct items)", name, w.solves, solves, len(first))
	}
	if w.dedup != int64(len(order)-len(first)) || w.batchItems != int64(len(order)) {
		t.Errorf("%s: dedup_items/items moved by %d/%d, want %d/%d",
			name, w.dedup, w.batchItems, len(order)-len(first), len(order))
	}
	if rep.Failed > 0 || rep.Retried > 0 {
		return
	}
	if float64(rep.NewtonIters) != w.newton || float64(rep.CGIters) != w.cg ||
		int64(rep.LUFallbacks) != w.luFallbacks || int64(rep.CGBreakdowns) != w.cgBreakdowns ||
		int64(rep.DampedSteps) != w.dampedSteps {
		t.Errorf("%s: report totals newton=%d cg=%d lu=%d breakdowns=%d damped=%d, obs deltas %+v",
			name, rep.NewtonIters, rep.CGIters, rep.LUFallbacks, rep.CGBreakdowns, rep.DampedSteps, w)
	}
}

// A batch solve answers each distinct drive vector with one solve: at
// any worker count every output row is bit-equal to solving that row
// alone, the solver runs once per distinct row, duplicates copy their
// first occurrence's outcome with zero work, and the report totals
// equal the obs counters.
func TestBatchSolverDeduplicatesRepeatedRows(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	cfg := harshConfig()
	r := linalg.NewRNG(60)
	g := randomLevels(cfg, r)
	distinct := make([][]float64, 5)
	for i := range distinct {
		distinct[i] = streamRow(cfg, r)
	}
	// Reference: each row solved alone on a fresh solver.
	alone := make([][]float64, len(distinct))
	for i, v := range distinct {
		s, err := NewBatchSolver(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		out, rep, err := s.SolveReport(linalg.NewDenseFrom(1, cfg.Rows, v))
		if err != nil || !rep.AllOK() {
			t.Fatalf("row %d alone: %v %v", i, err, rep)
		}
		alone[i] = out.Row(0)
	}
	layouts := map[string][]int{
		"repeated":     dupOrder,
		"all-distinct": {0, 1, 2, 3, 4},
		"all-same":     {3, 3, 3, 3, 3, 3},
	}
	for _, workers := range []int{1, 4} {
		cfg.BatchWorkers = workers
		s, err := NewBatchSolver(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		for name, order := range layouts {
			name := fmt.Sprintf("%s/workers=%d", name, workers)
			before := obs.Snapshot()
			out, rep, err := s.SolveReport(batchOf(distinct, order))
			if err != nil {
				t.Fatal(err)
			}
			w := workBetween(before, obs.Snapshot())
			if !rep.AllOK() || rep.Solved != len(order) {
				t.Fatalf("%s: %v", name, rep)
			}
			for b, row := range order {
				if !sameBits(out.Row(b), alone[row]) {
					t.Errorf("%s: item %d = %v, solved alone %v", name, b, out.Row(b), alone[row])
				}
			}
			checkDedupReport(t, name, order, func(int) bool { return false }, rep, w)
		}
	}
}

// A fault plan covering only some copies of a repeated row fails or
// recovers those copies alone: covered and uncovered items never share
// a solve, while covered copies of one row still share theirs.
func TestBatchSolverDedupRespectsFaultCoverage(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	cfg := smallConfig()
	r := linalg.NewRNG(61)
	g := randomLevels(cfg, r)
	distinct := make([][]float64, 5)
	for i := range distinct {
		distinct[i] = streamRow(cfg, r)
	}
	vs := batchOf(distinct, dupOrder)
	// Items 0, 2, 5 and 9 all carry row 0.
	cases := []struct {
		name   string
		plan   FaultPlan
		status ItemStatus
	}{
		{"fail-one-copy", FaultPlan{FailAttempts: 3, Items: []int{2}}, ItemFailed},
		{"recover-one-copy", FaultPlan{FailAttempts: 1, Items: []int{5}}, ItemRecovered},
		{"recover-two-copies", FaultPlan{FailAttempts: 1, Items: []int{2, 9}}, ItemRecovered},
	}
	for _, workers := range []int{1, 4} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/workers=%d", c.name, workers)
			fcfg := cfg
			fcfg.BatchWorkers = workers
			plan := c.plan
			s, err := NewBatchSolver(fcfg.WithFaults(&plan), g)
			if err != nil {
				t.Fatal(err)
			}
			before := obs.Snapshot()
			out, rep, err := s.SolveReport(vs)
			if err != nil {
				t.Fatal(err)
			}
			w := workBetween(before, obs.Snapshot())
			for b := range dupOrder {
				want := ItemOK
				if plan.covers(b) {
					want = c.status
				}
				if got := rep.Outcomes[b].Status; got != want {
					t.Errorf("%s: item %d status %v, want %v", name, b, got, want)
				}
			}
			if c.status == ItemFailed {
				for _, x := range out.Row(2) {
					if x != 0 {
						t.Fatalf("%s: failed item 2 has non-zero output %v", name, out.Row(2))
					}
				}
				if !sameBits(out.Row(0), out.Row(5)) || out.Row(0)[0] == 0 {
					t.Errorf("%s: clean copies of row 0 disagree: %v vs %v", name, out.Row(0), out.Row(5))
				}
			}
			checkDedupReport(t, name, dupOrder, plan.covers, rep, w)
		}
	}
}

// Deduplication only shortens a warm-start chain: on a duplicate-heavy
// batch StartWarm stays within 1e-6 rRMSE of StartCold.
func TestBatchSolverDedupWarmMatchesCold(t *testing.T) {
	cfg := harshConfig()
	r := linalg.NewRNG(62)
	g := randomLevels(cfg, r)
	distinct := make([][]float64, 6)
	for i := range distinct {
		distinct[i] = streamRow(cfg, r)
	}
	order := make([]int, 40)
	for b := range order {
		order[b] = r.Intn(len(distinct))
	}
	vs := batchOf(distinct, order)
	cold := cfg
	cold.Start = StartCold
	want, rep, err := BatchSolveReport(cold, g, vs)
	if err != nil || !rep.AllOK() {
		t.Fatalf("cold: %v %v", err, rep)
	}
	for _, workers := range []int{1, 4} {
		warm := cfg
		warm.Start = StartWarm
		warm.BatchWorkers = workers
		got, rep, err := BatchSolveReport(warm, g, vs)
		if err != nil || !rep.AllOK() {
			t.Fatalf("warm, workers=%d: %v %v", workers, err, rep)
		}
		var num, den float64
		for i := range want.Data {
			d := got.Data[i] - want.Data[i]
			num += d * d
			den += want.Data[i] * want.Data[i]
		}
		if e := math.Sqrt(num / den); e > 1e-6 {
			t.Errorf("warm (workers=%d) vs cold rRMSE = %g, want ≤ 1e-6", workers, e)
		}
	}
}
