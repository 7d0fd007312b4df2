// Command e2ebench is the repository's end-to-end benchmark: host time
// per image for each GENIEx fidelity tier on one design point (the
// geniex-serve defaults), circuit-tier solve cost and fidelity, and
// served /v1/infer latency under open-loop load, with a traced
// per-layer breakdown. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds it first):
//
//	e2ebench -server <geniex-serve binary> --workload forward-surrogate \
//	    --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; with --trace 0 the
// metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
// per_layer list. Any failed output check prints correct=false and
// exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"geniex/internal/funcsim"
	"geniex/internal/obs"
)

// excluded names the registered tiers no workload times, with the
// reason. The tier-coverage guard fails the run when funcsim.ModelNames()
// lists a tier that is neither timed nor excluded, so a new tier cannot
// land unmeasured.
var excluded = map[string]string{
	"geniex-adaptive": "runs the same GENIEx kernel as geniex; it differs only while a calibrator runs, which no workload does",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is one benchmark run: its options, its metrics, and the output
// checks that failed.
type bench struct {
	seed   uint64
	window time.Duration // measured time, after set-up and references
	trace  bool
	server string // geniex-serve binary (serve-open)
	golden string // directory of golden files

	m         metrics
	attempted int
	failed    int
	errs      []string
}

// fail records a failed output check; the run reports correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.errs = append(b.errs, msg)
	fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", msg)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"forward-surrogate": forwardSurrogate,
	"forward-circuit":   forwardCircuit,
	"serve-open":        serveOpen,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: forward-surrogate, forward-circuit or serve-open")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		server   = flag.String("server", "", "geniex-serve binary (serve-open)")
		golden   = flag.String("golden", "e2ebench/golden", "golden output directory")
		write    = flag.Int("write-golden", 0, "compute reference outputs for seeds 0..n-1, write them to -golden and exit")
	)
	flag.Parse()

	if err := checkTierCoverage(); err != nil {
		return err
	}
	if *write > 0 {
		return writeGolden(*golden, *write)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	endToEnd, perLayer, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}

	// Untraced phases run with instrumentation off; traced phases turn
	// it on around each call.
	obs.SetEnabled(false)
	b := &bench{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		server: *server,
		golden: *golden,
		m:      metrics{},
	}
	if err := fn(b); err != nil {
		return err
	}
	return b.report(endToEnd, perLayer)
}

// checkTierCoverage is the tier-coverage guard.
func checkTierCoverage() error {
	known := map[string]bool{servedTier: true}
	for _, t := range slices.Concat(surrogateTiers, circuitTiers, fidelityTiers) {
		known[t] = true
	}
	for _, name := range funcsim.ModelNames() {
		if !known[name] && excluded[name] == "" {
			return fmt.Errorf("tier %q is registered but neither measured nor excluded with a reason", name)
		}
	}
	return nil
}

// loadSpec returns the spec's end-to-end and per-layer metrics, each
// as name -> unit.
func loadSpec(path string) (endToEnd, perLayer map[string]string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("read spec: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("parse spec: %w", err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer, nil
}

// report prints the result line: the end-to-end metrics, or with
// -trace 1 the per-layer ones. The run must produce every end-to-end
// metric; a per-layer metric of a tier or layer this workload does not
// exercise reads 0. A metric the spec does not declare, or a unit that
// disagrees with it, is a benchmark bug.
func (b *bench) report(endToEnd, perLayer map[string]string) error {
	names := endToEnd
	if b.trace {
		names = perLayer
	}
	out := metrics{}
	var missing []string
	for name, unit := range names {
		v, ok := b.m[name]
		switch {
		case ok && v.Unit != unit:
			return fmt.Errorf("metric %s measured in %s, spec says %s", name, v.Unit, unit)
		case ok:
			out[name] = v
		case b.trace:
			out.set(name, 0, unit)
		default:
			missing = append(missing, name)
		}
	}
	var extra []string
	for name := range b.m {
		if _, ok := endToEnd[name]; !ok && perLayer[name] == "" {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics do not match the spec: missing %v, undeclared %v", missing, extra)
	}
	res := result{
		Correct:   len(b.errs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   out,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed: %s", len(b.errs), strings.Join(b.errs, "; "))
	}
	return nil
}
