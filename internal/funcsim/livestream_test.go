package funcsim

import (
	"context"
	"sync/atomic"
	"testing"

	"geniex/internal/core"
	"geniex/internal/linalg"
	"geniex/internal/obs"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// countingModel wraps an analog model and counts the drive-vector rows
// its tiles evaluate, through whichever tile interface the pipeline
// picks (the surrogate, cancellable, into-buffer or plain path).
type countingModel struct {
	inner Model
	rows  *atomic.Int64
}

func (m countingModel) Name() string { return m.inner.Name() }

func (m countingModel) surrogate() *core.Model { return surrogateOf(m.inner) }

func (m countingModel) NewTile(g *linalg.Dense) (Tile, error) {
	t, err := m.inner.NewTile(g)
	if err != nil {
		return nil, err
	}
	return countingTile{inner: t, rows: m.rows}, nil
}

type countingTile struct {
	inner Tile
	rows  *atomic.Int64
}

func (t countingTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	t.rows.Add(int64(v.Rows))
	return t.inner.Currents(v)
}

func (t countingTile) CurrentsInto(dst, v *linalg.Dense) error {
	t.rows.Add(int64(v.Rows))
	return currentsInto(nil, t.inner, dst, v, nil)
}

func (t countingTile) CurrentsCtxInto(ctx context.Context, dst, v *linalg.Dense) error {
	t.rows.Add(int64(v.Rows))
	return currentsInto(ctx, t.inner, dst, v, nil)
}

func (t countingTile) currentsVC(dst, v *linalg.Dense, vc *core.VContext) error {
	t.rows.Add(int64(v.Rows))
	return currentsInto(nil, t.inner, dst, v, vc)
}

// liveStreamWorkload is a 3×2 tile grid (8×8 tiles) whose input tile
// rows cover the three block shapes: row 0 holds small activations
// (their high-order stream digits are all zero), row 1 is entirely
// zero, and row 2 holds large activations with one all-zero batch row.
func liveStreamWorkload() (w, x *linalg.Dense) {
	r := linalg.NewRNG(71)
	w = linalg.NewDense(24, 12)
	for i := range w.Data {
		w.Data[i] = 2*r.Float64() - 1
	}
	x = linalg.NewDense(4, 24)
	for b := 0; b < x.Rows; b++ {
		for i := 0; i < 8; i++ {
			x.Set(b, i, 2*r.Float64()-1)
		}
		if b == 1 {
			continue
		}
		for i := 16; i < 24; i++ {
			x.Set(b, i, 14*r.Float64()-7)
		}
	}
	return w, x
}

// liveStreams re-derives, independently of the engine, the stream
// voltages of every (tileRow, sign) input block that carry a non-zero
// digit: [tileRow][sign] → live rows × tile rows.
func liveStreams(cfg Config, x *linalg.Dense, in int) [][2]*linalg.Dense {
	n := cfg.Xbar.Rows
	ka := cfg.streamDigits()
	amax := float64(int64(1)<<cfg.StreamBits) - 1
	out := make([][2]*linalg.Dense, (in+n-1)/n)
	for tr := range out {
		for s := range out[tr] {
			var rows []float64
			for b := 0; b < x.Rows; b++ {
				for k := 0; k < ka; k++ {
					v := make([]float64, n)
					live := false
					for i := 0; i < n && tr*n+i < in; i++ {
						q := cfg.Act.QuantizeSymmetric(x.At(b, tr*n+i))
						if (s == 0) != (q > 0) || q == 0 {
							continue
						}
						if q < 0 {
							q = -q
						}
						if d := quant.Digit(uint64(q), cfg.StreamBits, k); d != 0 {
							v[i] = float64(d) / amax * cfg.Xbar.Vsupply
							live = true
						}
					}
					if live {
						rows = append(rows, v...)
					}
				}
			}
			out[tr][s] = linalg.NewDenseFrom(len(rows)/n, n, rows)
		}
	}
	return out
}

// wantCrossbarOps is the live-stream oracle for one MVM: every slice
// crossbar of every (tile, weight sign) evaluates exactly the live
// streams of each input sign.
func wantCrossbarOps(cfg Config, mat *Matrix, x *linalg.Dense) int64 {
	live := liveStreams(cfg, x, mat.In())
	ts := mat.tset.Load()
	var ops int64
	for tr := range ts.tiles {
		for _, lt := range ts.tiles[tr] {
			slices := int64(len(lt.pos) + len(lt.neg))
			ops += slices * int64(live[tr][0].Rows+live[tr][1].Rows)
		}
	}
	return ops
}

// Tiles receive only live stream rows: on every deterministic tier the
// rows the tiles evaluate equal Stats().CrossbarOps, which equals the
// independently derived live-stream count, and the fully zero input
// block is skipped without reaching a tile.
func TestTilesEvaluateOnlyLiveStreams(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar.BatchWorkers = 1
	gxCfg := cfg
	gxCfg.Xbar = harshXbar()
	gxCfg.Xbar.BatchWorkers = 1
	// The invariant is about which rows reach a tile, not about
	// surrogate quality, so an untrained surrogate serves.
	gx, err := core.NewModel(gxCfg.Xbar, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg   Config
		model Model
	}{
		{cfg, Ideal{}},
		{cfg, Analytical{Cfg: cfg.Xbar}},
		{gxCfg, GENIEx{Model: gx}},
		{cfg, Circuit{Cfg: cfg.Xbar}},
	}
	w, x := liveStreamWorkload()
	for _, c := range cases {
		if raceDetectorEnabled && testing.Short() && c.model.Name() == "circuit" {
			continue // circuit solves under -race -short
		}
		var rows atomic.Int64
		eng, err := NewEngine(c.cfg, countingModel{inner: c.model, rows: &rows})
		if err != nil {
			t.Fatal(err)
		}
		mat, err := eng.Lower(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mat.MVM(x); err != nil {
			t.Fatalf("%s: %v", c.model.Name(), err)
		}
		s := mat.Stats()
		if got := rows.Load(); got != s.CrossbarOps {
			t.Errorf("%s: tiles evaluated %d rows, CrossbarOps = %d", c.model.Name(), got, s.CrossbarOps)
		}
		if want := wantCrossbarOps(c.cfg, mat, x); s.CrossbarOps != want {
			t.Errorf("%s: CrossbarOps = %d, live-stream oracle = %d", c.model.Name(), s.CrossbarOps, want)
		}
		// Tile row 1 is all zero: both input signs of both its tile
		// columns skip both weight signs.
		if s.SkippedPasses < 8 {
			t.Errorf("%s: %d skipped passes, want ≥ 8 from the zero block", c.model.Name(), s.SkippedPasses)
		}
	}
}

// On the circuit tier every crossbar op is exactly one solve, and the
// solver's Newton and CG work equals that of solving only the live
// rows directly through an xbar.BatchSolver: no all-zero stream is
// ever solved.
func TestCircuitSolvesOnlyLiveStreams(t *testing.T) {
	if raceDetectorEnabled && testing.Short() {
		t.Skip("circuit solves under -race -short")
	}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	cfg := exactConfig(8, 8)
	cfg.Workers = 1
	cfg.Xbar.BatchWorkers = 1
	cfg.Swappable = true // retain the programmed conductances
	eng, err := NewEngine(cfg, Circuit{Cfg: cfg.Xbar})
	if err != nil {
		t.Fatal(err)
	}
	w, x := liveStreamWorkload()
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Snapshot()
	if _, err := mat.MVM(x); err != nil {
		t.Fatal(err)
	}
	after := obs.Snapshot()
	ops := mat.Stats().CrossbarOps
	if d := after.Counters["xbar.solver.solves"] - before.Counters["xbar.solver.solves"]; d != ops {
		t.Errorf("xbar.solver.solves moved by %d, CrossbarOps = %d", d, ops)
	}
	newton := after.Histograms["xbar.solver.newton_iters"].Sum - before.Histograms["xbar.solver.newton_iters"].Sum
	cg := after.Histograms["xbar.solver.cg_iters"].Sum - before.Histograms["xbar.solver.cg_iters"].Sum

	live := liveStreams(cfg, x, mat.In())
	var wantNewton, wantCG float64
	var items int64
	for tr := range mat.conds {
		for _, cd := range mat.conds[tr] {
			for _, gs := range [][]*linalg.Dense{cd.pos, cd.neg} {
				for _, g := range gs {
					for _, v := range live[tr] {
						if v.Rows == 0 {
							continue
						}
						solver, err := xbar.NewBatchSolver(cfg.Xbar, g)
						if err != nil {
							t.Fatal(err)
						}
						_, rep, err := solver.SolveReport(v)
						if err != nil {
							t.Fatal(err)
						}
						wantNewton += float64(rep.NewtonIters)
						wantCG += float64(rep.CGIters)
						items += int64(v.Rows)
					}
				}
			}
		}
	}
	if items != ops {
		t.Errorf("direct solves covered %d live rows, CrossbarOps = %d", items, ops)
	}
	if newton != wantNewton || cg != wantCG {
		t.Errorf("MVM solver work newton=%v cg=%v, direct live-row solves newton=%v cg=%v",
			newton, cg, wantNewton, wantCG)
	}
}
