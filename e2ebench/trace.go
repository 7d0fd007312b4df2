package main

import (
	"fmt"
	"sort"
	"strings"

	"geniex/internal/obs"
)

// span is one completed span of a traced call, from the in-process
// obs ring or from a server's /trace export. Times are nanoseconds.
type span struct {
	ID, Parent int64
	Trace      int64
	Name       string
	Start, Dur int64
}

func (s span) end() int64 { return s.Start + s.Dur }

func spansOf(evs []obs.Event) []span {
	out := make([]span, len(evs))
	for i, e := range evs {
		out[i] = span{ID: e.Span, Parent: e.Parent, Trace: e.Trace, Name: e.Name, Start: e.Start, Dur: e.Duration}
	}
	return out
}

// selfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its children cover. Children
// that run in parallel (tile tasks on the worker pool) are merged as a
// union of intervals, so overlap is not subtracted twice.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.end(), p.end())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// checkTree verifies one traced call: exactly one span named root and
// no span whose parent is missing (a dropped or dangling span).
func checkTree(spans []span, root string) error {
	ids := make(map[int64]bool, len(spans))
	roots := 0
	for _, s := range spans {
		ids[s.ID] = true
		if s.Name == root && s.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("trace has %d %q roots, want 1", roots, root)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return fmt.Errorf("span %q has no parent %d in the trace", s.Name, s.Parent)
		}
	}
	return nil
}

// coverageTol is how much of a funcsim.forward span its layer spans
// may leave uncovered (loop overhead between layers) before the
// layer breakdown is rejected as not adding up.
const coverageTol = 0.05

// checkCoverage verifies that under every funcsim.forward span the
// layer spans are disjoint and add up to the forward's duration
// within coverageTol, i.e. the layer self times (plus their
// children) account for the whole forward.
func checkCoverage(spans []span) error {
	for _, f := range spans {
		if f.Name != "funcsim.forward" {
			continue
		}
		var layers []span
		var total int64
		for _, s := range spans {
			if s.Parent == f.ID && strings.HasPrefix(s.Name, "funcsim.layer.") {
				layers = append(layers, s)
				total += s.Dur
			}
		}
		if len(layers) == 0 {
			return fmt.Errorf("funcsim.forward span has no layer spans")
		}
		if cov := covered(f, layers); cov != total {
			return fmt.Errorf("layer spans overlap: %d ns summed, %d ns covered", total, cov)
		}
		if gap := float64(f.Dur-total) / float64(f.Dur); gap < 0 || gap > coverageTol {
			return fmt.Errorf("layer spans cover %.2f%% of funcsim.forward, want within %.0f%%",
				100*(1-gap), 100*coverageTol)
		}
	}
	return nil
}

// breakdown is the per-name self-time sum of traced calls, in ms.
type breakdown struct {
	forwardMS float64            // summed funcsim.forward durations
	selfMS    map[string]float64 // span name -> summed self time
}

func (b *breakdown) add(spans []span) {
	if b.selfMS == nil {
		b.selfMS = map[string]float64{}
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "funcsim.forward" {
			b.forwardMS += float64(s.Dur) / 1e6
		}
		b.selfMS[s.Name] += float64(self[s.ID]) / 1e6
	}
}

// layerMetrics renders a breakdown over images as the per-image funcsim
// and xbar span metrics for tier.
func (b *breakdown) layerMetrics(m metrics, tier string, images float64) {
	digital := 0.0
	for name, v := range b.selfMS {
		if strings.HasPrefix(name, "funcsim.layer.") && strings.HasSuffix(name, ".digital") {
			digital += v
		}
	}
	m.set("funcsim.forward_ms."+tier, b.forwardMS/images, "ms")
	for _, l := range []string{"funcsim.layer.00.conv", "funcsim.layer.03.conv", "funcsim.layer.06.linear"} {
		m.set(l+".self_ms."+tier, b.selfMS[l]/images, "ms")
	}
	m.set("funcsim.digital.self_ms."+tier, digital/images, "ms")
	m.set("funcsim.mvm.self_ms."+tier, b.selfMS["funcsim.mvm"]/images, "ms")
	m.set("funcsim.tile.self_ms."+tier, b.selfMS["funcsim.tile"]/images, "ms")
}
