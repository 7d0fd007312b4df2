package hwtrain

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/nn"
)

// brokenTileModel lowers fine but fails every analog MVM, standing in
// for an unsolvable circuit tile.
type brokenTileModel struct{}

func (brokenTileModel) Name() string { return "broken-tile" }
func (brokenTileModel) NewTile(g *linalg.Dense) (funcsim.Tile, error) {
	return brokenTile{}, nil
}

type brokenTile struct{}

func (brokenTile) CurrentsInto(_ context.Context, _, _ *linalg.Dense, _ *core.VContext) error {
	return fmt.Errorf("injected tile failure: %w", linalg.ErrNoConvergence)
}

// brokenLowerModel fails at lowering time (tile construction).
type brokenLowerModel struct{}

func (brokenLowerModel) Name() string { return "broken-lower" }
func (brokenLowerModel) NewTile(g *linalg.Dense) (funcsim.Tile, error) {
	return nil, errors.New("injected lowering failure")
}

func smallNet(r *linalg.RNG, features, classes int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewFlatten(),
		nn.NewLinear(features, 8, true, r),
		nn.NewReLU(),
		nn.NewLinear(8, classes, true, r),
	)
}

// A hardware-forward failure mid-training must abort FineTune with an
// error the caller can classify — never a panic, never a silent
// continuation on garbage activations.
func TestFineTuneSurfacesHardwareFailure(t *testing.T) {
	r := linalg.NewRNG(21)
	set := dataset.SynthCIFAR(32, 8, 22)
	net := smallNet(r, set.Features(), set.Classes)
	eng, err := funcsim.NewEngine(harshSim(), brokenTileModel{})
	if err != nil {
		t.Fatal(err)
	}
	err = FineTune(net, eng, set, Options{Epochs: 1, BatchSize: 16, LR: 0.01, Seed: 23})
	if err == nil {
		t.Fatal("FineTune completed despite every hardware MVM failing")
	}
	if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("error %v does not match linalg.ErrNoConvergence", err)
	}
}

// A lowering failure must surface the same way.
func TestFineTuneSurfacesLoweringFailure(t *testing.T) {
	r := linalg.NewRNG(24)
	set := dataset.SynthCIFAR(32, 8, 25)
	net := smallNet(r, set.Features(), set.Classes)
	eng, err := funcsim.NewEngine(harshSim(), brokenLowerModel{})
	if err != nil {
		t.Fatal(err)
	}
	err = FineTune(net, eng, set, Options{Epochs: 1, BatchSize: 16, LR: 0.01, Seed: 26})
	if err == nil {
		t.Fatal("FineTune completed despite lowering failing")
	}
}

// On failure the wrapped forward must fall back to the float result
// (keeping the network state consistent) while recording the error for
// PendingError.
func TestWrappedForwardFallsBackToFloat(t *testing.T) {
	r := linalg.NewRNG(27)
	net := nn.NewSequential(nn.NewLinear(8, 8, true, r))
	eng, err := funcsim.NewEngine(harshSim(), brokenTileModel{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := WrapNetwork(net, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(2, 8)
	for i := range x.Data {
		x.Data[i] = r.Norm() / 2
	}
	got := wrapped.Forward(x, false)
	want := net.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fallback output differs from float forward at %d: %v vs %v",
				i, got.Data[i], want.Data[i])
		}
	}
	if err := PendingError(wrapped); err == nil {
		t.Error("PendingError is nil after a failed hardware forward")
	} else if !errors.Is(err, linalg.ErrNoConvergence) {
		t.Errorf("pending error %v does not match linalg.ErrNoConvergence", err)
	}
}

// PendingError must find failures inside nested structures (Residual
// bodies and sub-Sequentials).
func TestPendingErrorRecursesNestedLayers(t *testing.T) {
	r := linalg.NewRNG(28)
	net := nn.NewSequential(
		nn.NewResidual(nn.NewLinear(8, 8, true, r)),
	)
	eng, err := funcsim.NewEngine(harshSim(), brokenTileModel{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := WrapNetwork(net, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(1, 8)
	for i := range x.Data {
		x.Data[i] = r.Norm() / 2 // non-zero, so the analog path actually runs
	}
	wrapped.Forward(x, false)
	if PendingError(wrapped) == nil {
		t.Error("PendingError did not find the failure inside the residual body")
	}
}
