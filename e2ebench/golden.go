package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"geniex/internal/linalg"
	"geniex/internal/xbar"
)

// golden is one seed's reference outputs for one workload: digests of
// bit-exact tier outputs, and the cold-start circuit solve's outputs
// that the circuit tiers must match within fidelityTol.
type golden struct {
	Digests map[string]string `json:"digests,omitempty"`
	Circuit []float64         `json:"circuit,omitempty"`
}

// goldenFile holds a workload's references by seed.
type goldenFile map[string]golden

func goldenPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

// expected returns the references for b's seed: from the golden file
// when it holds the seed, otherwise computed here the same way the
// golden files were (serial tile tasks for the bit-exact tiers, a
// cold-start solve for circuit).
func (b *bench) expected(workload string) (golden, error) {
	raw, err := os.ReadFile(goldenPath(b.golden, workload))
	if err != nil {
		return golden{}, fmt.Errorf("read golden outputs: %w", err)
	}
	var f goldenFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return golden{}, fmt.Errorf("parse golden outputs: %w", err)
	}
	if g, ok := f[strconv.FormatUint(b.seed, 10)]; ok {
		return g, nil
	}
	logf("seed %d has no golden outputs; computing the references", b.seed)
	d, err := buildDesign()
	if err != nil {
		return golden{}, err
	}
	return reference(d, workload, b.seed)
}

// reference computes a workload's reference outputs for seed.
func reference(d *design, workload string, seed uint64) (golden, error) {
	g := golden{Digests: map[string]string{}}
	serial := func(tier string, x *linalg.Dense) (*linalg.Dense, error) {
		sim, err := d.lower(tier, 1, nil)
		if err != nil {
			return nil, err
		}
		return sim.ForwardContext(context.Background(), x)
	}
	switch workload {
	case "forward-surrogate":
		x := inputs(seed, surrogateBatch)
		for _, t := range surrogateTiers {
			y, err := serial(t, x)
			if err != nil {
				return g, err
			}
			g.Digests[t] = digest(y)
		}
	case "forward-circuit":
		x := inputs(seed, circuitImages)
		for _, t := range fidelityTiers {
			y, err := serial(t, x)
			if err != nil {
				return g, err
			}
			g.Digests[t] = digest(y)
		}
		// A cold start is deterministic at any worker count, so this
		// reference may use every core.
		cold := xbar.StartCold
		sim, err := d.lower("circuit", 0, &cold)
		if err != nil {
			return g, err
		}
		y, err := sim.ForwardContext(context.Background(), x)
		if err != nil {
			return g, err
		}
		g.Circuit = y.Data
	case "serve-open":
		sim, err := d.lower(servedTier, 1, nil)
		if err != nil {
			return g, err
		}
		y, err := forwardRows(sim, inputs(seed, servePool))
		if err != nil {
			return g, err
		}
		g.Digests["geniex"] = digest(y)
	default:
		return g, fmt.Errorf("no references for workload %q", workload)
	}
	return g, nil
}

// writeGolden computes every workload's references for seeds 0..n-1
// and writes the golden files.
func writeGolden(dir string, n int) error {
	d, err := buildDesign()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range []string{"forward-surrogate", "forward-circuit", "serve-open"} {
		f := goldenFile{}
		for seed := uint64(0); seed < uint64(n); seed++ {
			g, err := reference(d, w, seed)
			if err != nil {
				return err
			}
			f[strconv.FormatUint(seed, 10)] = g
			logf("golden %s seed %d", w, seed)
		}
		raw, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath(dir, w), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
