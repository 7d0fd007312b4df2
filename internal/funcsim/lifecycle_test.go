package funcsim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"geniex/internal/linalg"
	"geniex/internal/obs"
	"geniex/internal/xbar"
)

// Engine.Close must be idempotent: double-Close on a probe-carrying
// engine, Close on a probe-less engine, and Close after the probe was
// already closed directly must all be no-ops.
func TestEngineCloseIdempotent(t *testing.T) {
	eng, err := NewEngine(exactConfig(8, 8), Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // no probe: both are no-ops

	cfg := exactConfig(8, 8)
	cfg.ProbeRate = 1
	eng, err = NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Probe() == nil {
		t.Fatal("ProbeRate=1 engine has no probe")
	}
	eng.Probe().Close() // direct probe Close first
	eng.Close()         // then the engine's
	eng.Close()         // and again
}

// Close racing in-flight MVMs must be safe: the probe's offer path
// never blocks and never touches freed state, so MVMs that straddle
// Close still complete successfully. Run under -race in check.sh.
func TestEngineCloseRacesInflightMVM(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.ProbeRate = 1 // sample every tile task: maximum offer traffic
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(77, 20, 18, 3) // 3×3 tile grid
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				if _, err := mat.MVM(nil, x); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	eng.Close() // races the MVMs above
	eng.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("MVM racing Close failed: %v", err)
	}
}

// A cancelled context must stop the MVM before circuit work starts,
// and — the acceptance criterion — the xbar solve counters must not
// advance for work done on behalf of a dead caller.
func TestMVMContextCancelledStopsCircuitSolves(t *testing.T) {
	cfg := exactConfig(8, 8)
	cfg.Xbar.BatchWorkers = 1
	eng, err := NewEngine(cfg, Circuit{Cfg: cfg.Xbar})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(81, 12, 10, 2)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}

	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	solves := obs.NewCounter("xbar.solver.solves")
	cancelled := obs.NewCounter("xbar.solver.cancelled")

	// Uncancelled baseline: circuit solves advance the counter.
	before := solves.Load()
	if _, err := mat.MVM(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	if solves.Load() == before {
		t.Fatal("circuit MVM advanced no solve counters; test is not exercising the solver")
	}

	// Dead caller: no solves, error wraps context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before = solves.Load()
	_, err = mat.MVM(ctx, x)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if d := solves.Load() - before; d != 0 {
		t.Errorf("solve counter advanced by %d after cancellation", d)
	}
	_ = cancelled // per-update cancellation is covered in internal/xbar

	// Matrix still works after a cancelled call (pooled run state must
	// not leak the dead context).
	if _, err := mat.MVM(nil, x); err != nil {
		t.Fatalf("MVM after cancelled MVM failed: %v", err)
	}
}

// The decorators must forward the caller's context to the tile they
// wrap: an already-cancelled CurrentsInto on a calibrated or noisy
// circuit tile must return context.Canceled without running a solve.
func TestDecoratedCircuitTileHonoursCancellation(t *testing.T) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 8, 8
	cfg.BatchWorkers = 1
	r := linalg.NewRNG(83)
	g := linalg.NewDense(cfg.Rows, cfg.Cols)
	for i := range g.Data {
		g.Data[i] = cfg.ConductanceFromLevel(r.Float64())
	}
	v := linalg.NewDense(3, cfg.Rows)
	for i := range v.Data {
		v.Data[i] = cfg.Vsupply * r.Float64()
	}

	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	solves := obs.NewCounter("xbar.solver.solves")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, m := range []Model{
		Calibrated{Inner: Circuit{Cfg: cfg}, Samples: 4, Seed: 1, Xbar: cfg},
		&Noisy{Inner: Circuit{Cfg: cfg}, Sigma: 0.01, FullScale: noiseFullScale(cfg), Seed: 1},
	} {
		tile, err := m.NewTile(g)
		if err != nil {
			t.Fatal(err)
		}
		dst := linalg.NewDense(v.Rows, cfg.Cols)
		before := solves.Load()
		if err := tile.CurrentsInto(nil, dst, v, nil); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if solves.Load() == before {
			t.Fatalf("%s: tile advanced no solve counters; test is not exercising the solver", m.Name())
		}

		before = solves.Load()
		err = tile.CurrentsInto(ctx, dst, v, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", m.Name(), err)
		}
		if d := solves.Load() - before; d != 0 {
			t.Errorf("%s: solve counter advanced by %d after cancellation", m.Name(), d)
		}
	}
}

// An expired deadline must surface as context.DeadlineExceeded through
// the whole funcsim stack.
func TestMVMContextDeadlineExceeded(t *testing.T) {
	cfg := exactConfig(8, 8)
	eng, err := NewEngine(cfg, Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	w, x := testWorkload(82, 12, 10, 2)
	mat, err := eng.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := mat.MVM(ctx, x); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// ForwardContext must honor cancellation between layers and propagate
// the context error up from the MVM layers; a background context must
// match the context-free Forward bit for bit.
func TestForwardContextCancellation(t *testing.T) {
	r := linalg.NewRNG(11)
	net := buildTinyCNN(r)
	eng, err := NewEngine(exactConfig(8, 8), Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Lower(net, eng)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(2, 36)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}

	want, err := sim.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.ForwardContext(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d: ForwardContext %g != Forward %g", i, got.Data[i], want.Data[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.ForwardContext(ctx, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
