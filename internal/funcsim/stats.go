package funcsim

import (
	"fmt"

	"geniex/internal/obs"
)

// Stats counts the hardware events a lowered network generates. The
// counters correspond to the architectural quantities an accelerator
// cost model needs: every crossbar activation (one input stream
// applied to one tile-slice crossbar), every ADC conversion, and every
// digital merge operation.
type Stats struct {
	// CrossbarOps is the number of crossbar activations: one live
	// stream vector applied to one (tile, slice, sign) crossbar. Tiles
	// receive only live streams (at least one non-zero digit), so
	// crossbar ops = live rows = tile rows evaluated. On the circuit
	// tiers the circuit solves are fewer: each tile call solves every
	// distinct live drive vector once and reuses the result for its
	// repeats.
	CrossbarOps int64
	// ADCConversions is the number of analog-to-digital conversions
	// (one per active column per crossbar activation).
	ADCConversions int64
	// ShiftAdds is the number of digital shift-and-add merge
	// operations.
	ShiftAdds int64
	// AccOps is the number of saturating accumulator updates.
	AccOps int64
	// MVMRows is the number of logical MVM input vectors processed.
	MVMRows int64
	// SkippedPasses counts differential passes skipped because the
	// operand block was entirely zero — a direct measure of how much
	// work sparsity saves.
	SkippedPasses int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CrossbarOps += other.CrossbarOps
	s.ADCConversions += other.ADCConversions
	s.ShiftAdds += other.ShiftAdds
	s.AccOps += other.AccOps
	s.MVMRows += other.MVMRows
	s.SkippedPasses += other.SkippedPasses
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("xbar-ops=%d adc=%d shift-adds=%d acc-ops=%d mvm-rows=%d skipped=%d",
		s.CrossbarOps, s.ADCConversions, s.ShiftAdds, s.AccOps, s.MVMRows, s.SkippedPasses)
}

// matrixStats is the engine-internal form of Stats, built on the obs
// counter primitive: MVMs run tile tasks on many goroutines and may
// themselves execute concurrently, so the shared counters are atomic
// and read as a snapshot. The parallel pipeline folds each task's
// local Stats once per MVM, so the atomic traffic is per-call, not
// per-op. These counters are per-Matrix (unregistered); MVMInto also
// mirrors every fold into the process-wide registry (see obs.go).
type matrixStats struct {
	crossbarOps, adcConversions, shiftAdds, accOps, mvmRows, skippedPasses obs.Counter
}

func (s *matrixStats) add(d Stats) {
	s.crossbarOps.Add(d.CrossbarOps)
	s.adcConversions.Add(d.ADCConversions)
	s.shiftAdds.Add(d.ShiftAdds)
	s.accOps.Add(d.AccOps)
	s.mvmRows.Add(d.MVMRows)
	s.skippedPasses.Add(d.SkippedPasses)
}

func (s *matrixStats) snapshot() Stats {
	return Stats{
		CrossbarOps:    s.crossbarOps.Load(),
		ADCConversions: s.adcConversions.Load(),
		ShiftAdds:      s.shiftAdds.Load(),
		AccOps:         s.accOps.Load(),
		MVMRows:        s.mvmRows.Load(),
		SkippedPasses:  s.skippedPasses.Load(),
	}
}

func (s *matrixStats) swap() Stats {
	return Stats{
		CrossbarOps:    s.crossbarOps.Swap(),
		ADCConversions: s.adcConversions.Swap(),
		ShiftAdds:      s.shiftAdds.Swap(),
		AccOps:         s.accOps.Swap(),
		MVMRows:        s.mvmRows.Swap(),
		SkippedPasses:  s.skippedPasses.Swap(),
	}
}

// Stats returns a consistent snapshot of the counters accumulated by
// this matrix since creation (or the last ResetStats). It is
// read-only: reading never clears. Counters are folded once per
// completed MVM, so a snapshot taken while MVMs are in flight reflects
// only finished calls — it never shows a torn, partially merged
// update.
func (m *Matrix) Stats() Stats { return m.stats.snapshot() }

// ResetStats atomically clears the matrix's counters and returns the
// counts it cleared — the repo-wide reset convention (obs.Registry,
// SolverHealth): reads snapshot, Reset* swaps-and-returns. It does not
// touch the process-wide registry mirrors; those are cleared only by
// an explicit obs reset.
func (m *Matrix) ResetStats() Stats { return m.stats.swap() }

// Stats aggregates the counters of every lowered MVM layer in the
// network.
func (s *Sim) Stats() Stats {
	var total Stats
	for _, l := range s.layers {
		switch v := l.(type) {
		case *simConv:
			total.Add(v.mat.Stats())
		case *simLinear:
			total.Add(v.mat.Stats())
		case *simResidual:
			total.Add(v.body.Stats())
		}
	}
	return total
}

// ResetStats atomically clears every lowered layer's counters and
// returns the aggregate counts it cleared, matching the repo-wide
// snapshot-and-clear reset convention (see Matrix.ResetStats).
func (s *Sim) ResetStats() Stats {
	var total Stats
	for _, l := range s.layers {
		switch v := l.(type) {
		case *simConv:
			total.Add(v.mat.ResetStats())
		case *simLinear:
			total.Add(v.mat.ResetStats())
		case *simResidual:
			total.Add(v.body.ResetStats())
		}
	}
	return total
}

// EnergyModel holds per-event energy and latency constants for the
// crossbar substrate. The defaults are representative of ISAAC/PUMA
// class designs at 32nm (order-of-magnitude; the experiments only use
// ratios between configurations, which are insensitive to the absolute
// calibration).
type EnergyModel struct {
	// CellReadEnergy is the energy to read one cell during an
	// activation (J); a crossbar activation costs Rows·Cols of these.
	CellReadEnergy float64
	// DriverEnergy is the per-row input driver (DAC) energy per
	// activation (J).
	DriverEnergy float64
	// ADCEnergyPerBit is the energy of one conversion divided by the
	// resolution (J/bit); conversion cost grows with ADC bits.
	ADCEnergyPerBit float64
	// ShiftAddEnergy and AccEnergy are digital per-op energies (J).
	ShiftAddEnergy, AccEnergy float64

	// CrossbarLatency is the analog settle + sense time of one
	// activation (s); ADCLatency the conversion time (s). Streams are
	// serialized, tiles and slices operate in parallel.
	CrossbarLatency, ADCLatency float64
}

// DefaultEnergyModel returns the representative constants.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		CellReadEnergy:  0.5e-15, // 0.5 fJ/cell/read
		DriverEnergy:    1e-12,   // 1 pJ/row drive
		ADCEnergyPerBit: 0.2e-12, // 0.2 pJ/bit conversion
		ShiftAddEnergy:  50e-15,
		AccEnergy:       50e-15,
		CrossbarLatency: 100e-9,
		ADCLatency:      10e-9,
	}
}

// Report is the cost estimate of a workload.
type Report struct {
	Energy  float64 // joules
	Latency float64 // seconds, stream-serialized critical path
}

// Estimate converts event counters into energy and latency for a given
// simulator configuration.
func (em EnergyModel) Estimate(s Stats, cfg Config) Report {
	cells := float64(cfg.Xbar.Rows * cfg.Xbar.Cols)
	rows := float64(cfg.Xbar.Rows)
	var r Report
	r.Energy = float64(s.CrossbarOps)*(em.CellReadEnergy*cells+em.DriverEnergy*rows) +
		float64(s.ADCConversions)*em.ADCEnergyPerBit*float64(cfg.ADCBits) +
		float64(s.ShiftAdds)*em.ShiftAddEnergy +
		float64(s.AccOps)*em.AccEnergy
	// Latency: tiles/slices run in parallel, streams serialize. Each
	// MVM row therefore pays streamDigits sequential activation +
	// conversion steps per differential input pass (≤2 passes).
	stepsPerRow := float64(cfg.streamDigits()) * 2
	r.Latency = float64(s.MVMRows) * stepsPerRow * (em.CrossbarLatency + em.ADCLatency)
	return r
}
