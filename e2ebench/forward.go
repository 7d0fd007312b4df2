package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"geniex/internal/dataset"
	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/obs"
)

const (
	// surrogateBatch is forward-surrogate's batch: the accuracy sweeps
	// behind Figs. 7–9 evaluate test sets in batches.
	surrogateBatch = 16
	// circuitImages is forward-circuit's batch: one image is the
	// smallest unit of a circuit-tier forward (seconds of host time).
	circuitImages = 1
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
	// fidelityTol is the rRMSE the circuit tiers may show against the
	// cold-start reference solve.
	fidelityTol = 1e-6
)

var (
	surrogateTiers = []string{"ideal", "analytical", "geniex"}
	circuitTiers   = []string{"circuit", "fastcircuit"}
	// circuitRound is one round of forward-circuit's loop: circuit, the
	// tier behind its p50_ms, runs twice so that median rests on twice
	// the samples of fastcircuit's 2x longer calls.
	circuitRound = []string{"circuit", "fastcircuit", "circuit"}
	// fidelityTiers run on forward-circuit's images to score their
	// logits against the circuit tier.
	fidelityTiers = []string{"geniex", "analytical"}
)

// inputs generates n SynthCIFAR test images from seed; the program
// sees only these rows.
func inputs(seed uint64, n int) *linalg.Dense {
	return dataset.SynthCIFAR(1, n, seed).TestX
}

// setupDesign builds the design point and lowers tiers setupReps
// times, records the median set-up time and its stages, and returns
// the last build with its lowered networks.
func (b *bench) setupDesign(tiers []string) (*design, map[string]*funcsim.Sim, error) {
	var total, cnn, gen, train, lower []float64
	var d *design
	var sims map[string]*funcsim.Sim
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		nd, err := buildDesign()
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		ns := map[string]*funcsim.Sim{}
		for _, t := range tiers {
			if ns[t], err = nd.lower(t, 0, nil); err != nil {
				return nil, nil, err
			}
		}
		total = append(total, time.Since(t0).Seconds())
		lower = append(lower, time.Since(t1).Seconds())
		cnn = append(cnn, nd.cnnTrainS)
		gen = append(gen, nd.surGenerateS)
		train = append(train, nd.surTrainS)
		d, sims = nd, ns
	}
	b.m.set("setup_s", median(total), "s")
	b.m.set("setup.cnn_train_s", median(cnn), "s")
	b.m.set("setup.surrogate_generate_s", median(gen), "s")
	b.m.set("setup.surrogate_train_s", median(train), "s")
	b.m.set("setup.lower_s", median(lower), "s")
	return d, sims, nil
}

// timer times untraced forward calls per tier. In a traced run it
// also reads each call's allocations.
type timer struct {
	b       *bench
	times   map[string][]time.Duration
	allocKB map[string][]float64 // per image
}

func newTimer(b *bench) *timer {
	return &timer{b: b, times: map[string][]time.Duration{}, allocKB: map[string][]float64{}}
}

// forward runs one untraced call and returns its output, or nil when
// the call failed.
func (tm *timer) forward(tier string, sim *funcsim.Sim, x *linalg.Dense) *linalg.Dense {
	var ms0, ms1 runtime.MemStats
	if tm.b.trace {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	y, err := sim.ForwardContext(context.Background(), x)
	d := time.Since(t0)
	tm.b.attempted++
	if err != nil {
		tm.b.failed++
		logf("%s forward failed: %v", tier, err)
		return nil
	}
	if tm.b.trace {
		runtime.ReadMemStats(&ms1)
		tm.allocKB[tier] = append(tm.allocKB[tier], float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(x.Rows))
	}
	tm.times[tier] = append(tm.times[tier], d)
	return y
}

// medianS is tier's median call time in seconds.
func (tm *timer) medianS(tier string) float64 {
	return median(msOf(tm.times[tier])) / 1000
}

// throughput is the images the tiers' calls completed per second of
// call time, over the whole measured window.
func (tm *timer) throughput(tiers []string, images int) float64 {
	n, secs := 0, 0.0
	for _, t := range tiers {
		n += images * len(tm.times[t])
		secs += sum(msOf(tm.times[t])) / 1000
	}
	return float64(n) / secs
}

func (tm *timer) report(tiers []string, images int) {
	for _, t := range tiers {
		tm.b.m.set(t+".images_per_s", float64(images)/tm.medianS(t), "images/s")
		if kb := tm.allocKB[t]; len(kb) > 0 {
			tm.b.m.set("runtime.alloc_kb_per_image."+t, median(kb), "KiB")
		}
	}
}

// measure runs round repeatedly for the measured window, at least
// once.
func (b *bench) measure(round func()) {
	end := time.Now().Add(b.window)
	for first := true; first || time.Now().Before(end); first = false {
		round()
	}
}

// forwardSurrogate: one caller, closed loop, a 16-image batch through
// the ideal, analytical and geniex tiers in turn.
func forwardSurrogate(b *bench) error {
	_, sims, err := b.setupDesign(surrogateTiers)
	if err != nil {
		return err
	}
	x := inputs(b.seed, surrogateBatch)
	want, err := b.expected("forward-surrogate")
	if err != nil {
		return err
	}
	tm := newTimer(b)
	b.measure(func() {
		for _, t := range surrogateTiers {
			if y := tm.forward(t, sims[t], x); y != nil {
				b.checkOutput(want, t, y)
			}
		}
	})
	b.m.set("images_per_s", tm.throughput(surrogateTiers, surrogateBatch), "images/s")
	b.m.set("p50_ms", median(msOf(tm.times["geniex"])), "ms")
	if err := b.setPeakRSS("self"); err != nil {
		return err
	}
	tm.report(surrogateTiers, surrogateBatch)
	if !b.trace {
		return nil
	}
	timed := func(tier string) (*funcsim.Sim, error) { return sims[tier], nil }
	return b.traceTiers(tm, surrogateTiers, surrogateTiers, x, timed, want)
}

// forwardCircuit: one caller, closed loop, one image through the
// circuit and fastcircuit tiers; geniex and analytical run the same
// image to score their logits against circuit.
func forwardCircuit(b *bench) error {
	d, sims, err := b.setupDesign(slices.Concat(circuitTiers, fidelityTiers))
	if err != nil {
		return err
	}
	x := inputs(b.seed, circuitImages)
	want, err := b.expected("forward-circuit")
	if err != nil {
		return err
	}
	tm := newTimer(b)
	var circuitOut *linalg.Dense
	outs := map[string]*linalg.Dense{}
	b.measure(func() {
		for _, t := range circuitRound {
			if y := tm.forward(t, sims[t], x); y != nil {
				b.checkOutput(want, t, y)
				if t == "circuit" {
					circuitOut = y
				}
			}
		}
		for _, t := range fidelityTiers {
			if y := tm.forward(t, sims[t], x); y != nil {
				b.checkOutput(want, t, y)
				outs[t] = y
			}
		}
	})
	b.m.set("images_per_s", tm.throughput(circuitTiers, circuitImages), "images/s")
	b.m.set("p50_ms", median(msOf(tm.times["circuit"])), "ms")
	if err := b.setPeakRSS("self"); err != nil {
		return err
	}
	tm.report(circuitTiers, circuitImages)
	if circuitOut != nil {
		for _, t := range fidelityTiers {
			if y := outs[t]; y != nil {
				b.m.set(t+".logit_rrmse", rrmse(y.Data, circuitOut.Data), "ratio")
			}
		}
	}
	if !b.trace {
		return nil
	}
	// Each traced pass gets a freshly lowered network, so the warm-start
	// state fastcircuit carries between calls is the same for both
	// passes and their work counts can be compared exactly. That state
	// differs from the timed calls', so only circuit gauges the tracing
	// overhead.
	fresh := func(tier string) (*funcsim.Sim, error) { return d.lower(tier, 0, nil) }
	if err := b.traceTiers(tm, circuitTiers, []string{"circuit"}, x, fresh, want); err != nil {
		return err
	}
	// The workload's premise: solves take most of the host time (the
	// forward's wall time on every core) and the MVM pipeline under 1%.
	for _, t := range circuitTiers {
		host := b.m["funcsim.forward_ms."+t].Value * float64(runtime.GOMAXPROCS(0))
		logf("%s: xbar.batch.solve self time is %.1f%% of host time, funcsim.mvm self time %.3f%%", t,
			100*b.m["xbar.batch.solve.self_ms."+t].Value/host, 100*b.m["funcsim.mvm.self_ms."+t].Value/host)
	}
	return nil
}

// isCircuit reports whether tier runs the circuit solver.
func isCircuit(tier string) bool {
	spec, err := funcsim.ModelByName(tier)
	return err == nil && spec.Circuit
}

// checkOutput checks a tier's output against the references: within
// fidelityTol of the cold-start solve for the circuit tiers,
// bit-identical for the others.
func (b *bench) checkOutput(want golden, tier string, y *linalg.Dense) {
	if isCircuit(tier) {
		b.checkCold(tier, y, want.Circuit)
	} else {
		b.checkDigest(tier, y, want.Digests[tier])
	}
}

// checkDigest fails the run unless y is bit-identical to the golden
// output digest.
func (b *bench) checkDigest(tier string, y *linalg.Dense, want string) {
	if got := digest(y); got != want {
		b.fail("%s outputs differ from the golden outputs (digest %.12s, want %.12s)", tier, got, want)
	}
}

// checkCold fails the run unless y is within fidelityTol of the
// cold-start circuit reference.
func (b *bench) checkCold(tier string, y *linalg.Dense, ref []float64) {
	if len(ref) != len(y.Data) {
		b.fail("%s: %d outputs, cold reference has %d", tier, len(y.Data), len(ref))
		return
	}
	if e := rrmse(y.Data, ref); e > fidelityTol {
		b.fail("%s outputs are %.3g rRMSE from the cold-start reference, want <= %g", tier, e, fidelityTol)
	}
}

// workCounts are the per-call work counters of one traced call.
type workCounts struct {
	crossbarOps, adcConversions, freeHits, freeMisses   int64
	solves, newtonIters, cgIters, reuses, builds, retry int64
}

func countsOf(s obs.SnapshotData) workCounts {
	return workCounts{
		crossbarOps:    s.Counters["funcsim.mvm.crossbar_ops"],
		adcConversions: s.Counters["funcsim.mvm.adc_conversions"],
		freeHits:       s.Counters["funcsim.run.freelist_hits"],
		freeMisses:     s.Counters["funcsim.run.freelist_misses"],
		solves:         s.Counters["xbar.solver.solves"],
		newtonIters:    int64(s.Histograms["xbar.solver.newton_iters"].Sum),
		cgIters:        int64(s.Histograms["xbar.solver.cg_iters"].Sum),
		reuses:         s.Counters["xbar.solver.factor.reuses"],
		builds:         s.Counters["xbar.solver.factor.builds"],
		retry:          s.Counters["xbar.batch.retried"] + s.Counters["xbar.solver.failures"],
	}
}

// xbarActivity lists the nonzero xbar.* counters and histograms of a
// snapshot.
func xbarActivity(s obs.SnapshotData) []string {
	var out []string
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "xbar.") && v != 0 {
			out = append(out, name+"="+strconv.FormatInt(v, 10))
		}
	}
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "xbar.") && h.Count != 0 {
			out = append(out, name+".count="+strconv.FormatInt(h.Count, 10))
		}
	}
	return out
}

// tracedPasses is how many traced calls each tier gets; their work
// counts must repeat exactly.
const tracedPasses = 2

// traceTiers is the traced part of an in-process workload: per tier,
// tracedPasses traced calls on networks from sim, each drained from
// the obs ring right after the call, checked for a complete span tree
// whose layer spans add up, and reduced to per-layer self times and
// per-image work counts. The tracing overhead compares the traced and
// untraced median call times of the overhead tiers.
func (b *bench) traceTiers(tm *timer, tiers, overhead []string, x *linalg.Dense, sim func(string) (*funcsim.Sim, error), want golden) error {
	images := float64(x.Rows)
	var dropped int64
	var traced, untraced float64
	for _, t := range tiers {
		var bd breakdown
		var counts []workCounts
		var times []float64
		for pass := 0; pass < tracedPasses; pass++ {
			s, err := sim(t)
			if err != nil {
				return err
			}
			obs.SetEnabled(true)
			obs.Default().Reset()
			ctx, sp := obs.StartSpan(context.Background(), "bench.forward")
			t0 := time.Now()
			y, err := s.ForwardContext(ctx, x)
			times = append(times, time.Since(t0).Seconds())
			sp.End()
			snap := obs.Default().Reset()
			obs.SetEnabled(false)
			b.attempted++
			if err != nil {
				b.failed++
				logf("traced %s forward failed: %v", t, err)
				continue
			}
			b.checkOutput(want, t, y)
			dropped += snap.SpansDropped
			spans := spansOf(snap.Spans)
			if err := checkTree(spans, "bench.forward"); err != nil {
				b.fail("traced %s forward: %v", t, err)
			}
			if err := checkCoverage(spans); err != nil {
				b.fail("traced %s forward: %v", t, err)
			}
			bd.add(spans)
			counts = append(counts, countsOf(snap))
			if act := xbarActivity(snap); len(act) > 0 && !isCircuit(t) {
				b.fail("%s made xbar calls: %v", t, act)
			}
		}
		if len(counts) != tracedPasses {
			continue
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				b.fail("%s work counts differ between traced passes: %+v vs %+v", t, counts[0], c)
			}
		}
		c := counts[0]
		bd.layerMetrics(b.m, t, tracedPasses*images)
		b.m.set("funcsim.mvm.crossbar_ops_per_image."+t, float64(c.crossbarOps)/images, "count")
		b.m.set("funcsim.mvm.adc_conversions_per_image."+t, float64(c.adcConversions)/images, "count")
		b.m.set("funcsim.run.freelist_hit_ratio."+t, ratio(c.freeHits, c.freeHits+c.freeMisses), "ratio")
		if isCircuit(t) {
			b.m.set("xbar.batch.solve.self_ms."+t, bd.selfMS["xbar.batch.solve"]/(tracedPasses*images), "ms")
			b.m.set("xbar.solver.solves_per_image."+t, float64(c.solves)/images, "count")
			b.m.set("xbar.solver.newton_iters_per_image."+t, float64(c.newtonIters)/images, "count")
			b.m.set("xbar.solver.cg_iters_per_image."+t, float64(c.cgIters)/images, "count")
			b.m.set("xbar.factor.reuse_ratio."+t, ratio(c.reuses, c.reuses+c.builds), "ratio")
			b.m.set("xbar.solver.retry_share."+t, ratio(c.retry, c.solves), "ratio")
		}
		logf("%s traced counts per call: %+v", t, c)
		if slices.Contains(overhead, t) {
			traced += median(times)
			untraced += tm.medianS(t)
		}
	}
	b.m.set("obs.trace_overhead_pct", 100*(traced-untraced)/untraced, "%")
	b.m.set("obs.spans_dropped", float64(dropped), "count")
	if dropped > 0 {
		b.fail("%d spans dropped from the trace ring", dropped)
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// setPeakRSS records the process's peak RSS as peak_rss_mb.
func (b *bench) setPeakRSS(pid string) error {
	mb, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	b.m.set("peak_rss_mb", mb, "MB")
	return nil
}
