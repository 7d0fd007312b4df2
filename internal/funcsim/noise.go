package funcsim

import (
	"context"
	"fmt"
	"sync"

	"geniex/internal/core"
	"geniex/internal/linalg"
)

// Noisy wraps an analog model with stochastic read noise: every sensed
// column current is perturbed by zero-mean Gaussian noise whose
// standard deviation is Sigma × the column's full-scale current. This
// models the thermal/shot-noise error sources analysed by the AMS
// framework the paper compares against (Table 1) and is independent of
// the deterministic distortions the wrapped model produces.
//
// Noise is deterministic given the Seed: each tile derives its own
// stream, and draws advance with every current the tile reports, so
// repeated runs of the same workload see identical noise. The MVM
// pipeline hands tiles only live stream rows, so draws advance once
// per live row and column; all-zero streams consume none.
type Noisy struct {
	// Inner is the analog model being perturbed.
	Inner Model
	// Sigma is the noise standard deviation as a fraction of the
	// crossbar full-scale current.
	Sigma float64
	// FullScale is the full-scale current (amperes); zero derives it
	// from nothing and is an error — callers pass
	// rows·Vsupply·Gon of their design point.
	FullScale float64
	// Seed drives the noise streams.
	Seed uint64

	mu    sync.Mutex
	tiles int
}

// Name implements Model.
func (n *Noisy) Name() string { return n.Inner.Name() + "+noise" }

func (n *Noisy) surrogate() *core.Model { return surrogateOf(n.Inner) }

// NewTile implements Model.
func (n *Noisy) NewTile(g *linalg.Dense) (Tile, error) {
	if n.Sigma < 0 {
		return nil, fmt.Errorf("funcsim: negative noise sigma %g", n.Sigma)
	}
	if n.FullScale <= 0 {
		return nil, fmt.Errorf("funcsim: noise wrapper needs a positive full-scale current")
	}
	inner, err := n.Inner.NewTile(g)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	id := n.tiles
	n.tiles++
	n.mu.Unlock()
	return &noisyTile{
		inner: inner,
		std:   n.Sigma * n.FullScale,
		rng:   linalg.NewRNG(n.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
	}, nil
}

type noisyTile struct {
	inner Tile
	std   float64

	// The RNG stream advances with every draw, one per element of the
	// live-row current matrix the pipeline hands in; parallel tile
	// tasks may evaluate the same tile concurrently, so draws are
	// serialized.
	// Which task draws first is scheduling-dependent, so the engine's
	// bit-exact-at-any-worker-count guarantee covers the deterministic
	// models only, not the noise ordering (see DESIGN.md).
	mu  sync.Mutex
	rng *linalg.RNG
}

// Currents implements Tile.
func (t *noisyTile) Currents(v *linalg.Dense) (*linalg.Dense, error) {
	curr, err := t.inner.Currents(v)
	if err != nil {
		return nil, err
	}
	t.perturb(curr)
	return curr, nil
}

// CurrentsInto implements the allocation-free fast path when the inner
// tile supports it.
func (t *noisyTile) CurrentsInto(dst, v *linalg.Dense) error {
	return t.currentsVC(dst, v, nil)
}

func (t *noisyTile) currentsVC(dst, v *linalg.Dense, vc *core.VContext) error {
	if err := currentsInto(nil, t.inner, dst, v, vc); err != nil {
		return err
	}
	t.perturb(dst)
	return nil
}

// CurrentsCtxInto implements ctxTile by forwarding the context to the
// wrapped tile, so a decorated circuit tile stays cancellable.
func (t *noisyTile) CurrentsCtxInto(ctx context.Context, dst, v *linalg.Dense) error {
	if err := currentsInto(ctx, t.inner, dst, v, nil); err != nil {
		return err
	}
	t.perturb(dst)
	return nil
}

func (t *noisyTile) perturb(curr *linalg.Dense) {
	if t.std == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range curr.Data {
		curr.Data[i] += t.rng.NormScaled(0, t.std)
		if curr.Data[i] < 0 {
			curr.Data[i] = 0 // a sense amplifier cannot report negative current
		}
	}
}
