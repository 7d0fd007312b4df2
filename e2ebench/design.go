package main

import (
	"fmt"
	"time"

	"geniex/internal/core"
	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/models"
	"geniex/internal/nn"
	"geniex/internal/quant"
	"geniex/internal/xbar"
)

// The design point is geniex-serve's defaults (flag values of
// cmd/geniex-serve with -seed 1), so the in-process workloads and the
// served workload run the same lowered network, and the in-process
// GENIEx outputs are the golden outputs for served responses.
const (
	designSeed     = 1
	tileSize       = 8
	fxpBits        = 8
	streamBits     = 2
	sliceBits      = 2
	adcBits        = 14
	cnnChannels    = 4
	cnnEpochs      = 1
	cnnTrainImages = 256
	surSamples     = 200
	surEpochs      = 60
)

// design is one built design point: the trained float network and the
// GENIEx surrogate every surrogate tier shares.
type design struct {
	net       *nn.Sequential
	surrogate *core.Model
	// Stage times of the build, in seconds.
	cnnTrainS, surGenerateS, surTrainS float64
}

// buildDesign trains the network and fits the GENIEx surrogate,
// exactly as geniex-serve does at start-up.
func buildDesign() (*design, error) {
	d := &design{}
	t := time.Now()
	set := dataset.SynthCIFAR(cnnTrainImages, 16, designSeed+10)
	d.net = models.MiniConvNet(set, cnnChannels, designSeed+30)
	if err := models.Train(d.net, set, models.TrainConfig{
		Epochs: cnnEpochs, BatchSize: 32, LR: 0.05, Seed: designSeed + 40,
	}); err != nil {
		return nil, fmt.Errorf("train CNN: %w", err)
	}
	d.cnnTrainS = time.Since(t).Seconds()
	xcfg, err := xbarConfig()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	ds, err := core.Generate(xcfg, core.GenOptions{
		Samples:    surSamples,
		StreamBits: streamBits, SliceBits: sliceBits,
		Sparsities: []float64{0, 0.5, 0.9},
		Seed:       designSeed + 50,
	})
	if err != nil {
		return nil, fmt.Errorf("generate surrogate data: %w", err)
	}
	d.surGenerateS = time.Since(t).Seconds()
	t = time.Now()
	gx, err := core.NewModel(xcfg, 64, designSeed+60)
	if err != nil {
		return nil, err
	}
	if err := gx.Train(ds, core.TrainOptions{Epochs: surEpochs, Seed: designSeed + 70}); err != nil {
		return nil, fmt.Errorf("train surrogate: %w", err)
	}
	d.surTrainS = time.Since(t).Seconds()
	d.surrogate = gx
	return d, nil
}

func xbarConfig() (xbar.Config, error) {
	return xbar.NewConfig(tileSize, tileSize, xbar.WithBatchWorkers(1))
}

// lower builds tier's engine and lowers the network onto it. workers
// is the tile-task fan-out (0 = all cores); start overrides the
// circuit solver's Newton start when set. The engines carry no probe,
// so they hold no goroutines and need no Close.
func (d *design) lower(tier string, workers int, start *xbar.SolverStart) (*funcsim.Sim, error) {
	spec, err := funcsim.ModelByName(tier)
	if err != nil {
		return nil, err
	}
	xcfg, err := xbarConfig()
	if err != nil {
		return nil, err
	}
	if start != nil {
		xcfg.Start = *start
	}
	fxp := quant.FxP{Bits: fxpBits, Frac: fxpBits - 3}
	cfg, err := funcsim.NewConfig(xcfg,
		funcsim.WithFormats(fxp, fxp),
		funcsim.WithStreamBits(streamBits), funcsim.WithSliceBits(sliceBits),
		funcsim.WithADCBits(adcBits), funcsim.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	params := funcsim.ModelParams{Xbar: cfg.Xbar}
	if spec.Circuit {
		params.Health = &funcsim.SolverHealth{}
	}
	if spec.NeedsSurrogate {
		params.Surrogate = d.surrogate
	}
	model, err := spec.New(params)
	if err != nil {
		return nil, err
	}
	eng, err := funcsim.NewEngine(cfg, model)
	if err != nil {
		return nil, err
	}
	sim, err := funcsim.Lower(d.net, eng)
	if err != nil {
		return nil, fmt.Errorf("lower %s: %w", tier, err)
	}
	return sim, nil
}
