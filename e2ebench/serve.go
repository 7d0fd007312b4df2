package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"geniex/internal/funcsim"
	"geniex/internal/linalg"
	"geniex/internal/obs"
)

const (
	// servedTiers is the ladder the served workload runs; every request
	// must be served by its top tier.
	servedTiers = "geniex,analytical,ideal"
	servedTier  = "geniex"
	// servePool is how many distinct images the requests cycle over.
	servePool = 16
	// serveSetupReps is how often a run starts the server; setup_s is
	// the median time from process start to ready.
	serveSetupReps = 3
	// conns bounds the client's concurrent requests, and so its
	// keep-alive connections, at the reference host's core count.
	conns   = 2
	tenants = 3
	// rateR1 and rateR2 are the open-loop rates in requests/s: about
	// 30% and 70% of the closed-loop capacity with conns connections
	// (images_per_s on this workload) on the 2-core reference host.
	// They are fixed so every commit sees the same offered load.
	rateR1 = 7.5
	rateR2 = 17.5
	// tracedRequests are sent one at a time in a traced run, twice over
	// the same images, each followed by a /trace read.
	tracedRequests = 4
)

// The measured window splits into two closed-loop phases, capacity over
// conns connections and requests one at a time, then the two open-loop
// rates.
const (
	capacityShare   = 0.15
	sequentialShare = 0.15
	r1Share         = 0.35
)

// forwardRows runs sim on each row of x as its own batch-1 call, as
// the server sees requests. Row i of the result is row i's output.
func forwardRows(sim *funcsim.Sim, x *linalg.Dense) (*linalg.Dense, error) {
	var out *linalg.Dense
	for i := 0; i < x.Rows; i++ {
		y, err := sim.ForwardContext(context.Background(), linalg.NewDenseFrom(1, x.Cols, x.Row(i)))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = linalg.NewDense(x.Rows, y.Cols)
		}
		copy(out.Row(i), y.Row(0))
	}
	return out, nil
}

// server is a running geniex-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  chan struct{}
}

// startServer starts geniex-serve on a free port and waits until it
// answers /healthz; it returns the server and the time that took.
func startServer(bin string) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-tiers", servedTiers)
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start geniex-serve: %w", err)
	}
	s := &server{cmd: cmd, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.out)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serve: listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case s.base = <-addr:
	case <-s.out:
		s.stop()
		return nil, 0, fmt.Errorf("geniex-serve exited before listening")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("geniex-serve did not listen within 60s")
	}
	var health struct {
		Status string `json:"status"`
		In     int    `json:"in"`
	}
	if err := s.getJSON("/healthz", &health); err != nil || health.Status != "ok" {
		s.stop()
		return nil, 0, fmt.Errorf("geniex-serve not healthy: %v %+v", err, health)
	}
	return s, time.Since(t0), nil
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.out
	_ = s.cmd.Wait()
}

func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// outcome is one /v1/infer request as the client saw it.
type outcome struct {
	due, sent, done time.Time
	status          int // 0 on a transport error
	elapsedMS       float64
}

// client sends /v1/infer requests over at most conns keep-alive
// connections and checks every 200 response.
type client struct {
	b      *bench
	s      *server
	hc     *http.Client
	bodies [][]byte      // by request index mod len
	golden *linalg.Dense // in-process outputs, row per pool image
	mu     sync.Mutex    // guards b's counters and checks
}

func newClient(b *bench, s *server, x, golden *linalg.Dense) (*client, error) {
	c := &client{
		b: b, s: s, golden: golden,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}
	// Request i carries pool image i mod servePool for tenant i mod
	// tenants; the two are coprime, so every pairing occurs.
	for i := 0; i < servePool*tenants; i++ {
		body, err := json.Marshal(map[string]any{
			"tenant": fmt.Sprintf("tenant-%d", i%tenants),
			"inputs": [][]float64{x.Row(i % servePool)},
		})
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
	}
	return c, nil
}

// do sends request i and checks its response.
func (c *client) do(i int, o *outcome) {
	o.sent = time.Now()
	resp, err := c.hc.Post(c.s.base+"/v1/infer", "application/json", bytes.NewReader(c.bodies[i%len(c.bodies)]))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.b.attempted++
	if err != nil {
		c.b.failed++
		logf("request %d: %v", i, err)
		return
	}
	o.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		c.b.failed++
		logf("request %d: %s: %s", i, resp.Status, bytes.TrimSpace(body))
		return
	}
	var r struct {
		Tier      string      `json:"tier"`
		Outputs   [][]float64 `json:"outputs"`
		ElapsedMS float64     `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		c.b.fail("request %d: undecodable 200 body: %v", i, err)
		return
	}
	o.elapsedMS = r.ElapsedMS
	if r.Tier != servedTier {
		c.b.fail("request %d served by tier %q, want %q", i, r.Tier, servedTier)
		return
	}
	want := c.golden.Row(i % servePool)
	if len(r.Outputs) != 1 || len(r.Outputs[0]) != len(want) {
		c.b.fail("request %d: outputs shaped %d rows, want 1x%d", i, len(r.Outputs), len(want))
		return
	}
	for j, v := range r.Outputs[0] {
		if math.Float64bits(v) != math.Float64bits(want[j]) {
			c.b.fail("request %d: output %d is %v, in-process golden %v", i, j, v, want[j])
			return
		}
	}
}

// closedLoop keeps n requests in flight for d, each connection sending
// its next request when the last one completes. It returns the 200
// responses per second and the median latency of one request.
func (c *client) closedLoop(n int, d time.Duration) (rate, p50 float64) {
	var wg sync.WaitGroup
	outs := make([][]outcome, n)
	start := time.Now()
	end := start.Add(d)
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(end); i += n {
				var o outcome
				c.do(i, &o)
				outs[w] = append(outs[w], o)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var lat []float64
	for _, o := range slices.Concat(outs...) {
		if o.status == http.StatusOK {
			lat = append(lat, ms(o.done.Sub(o.sent)))
		}
	}
	return float64(len(lat)) / elapsed, median(lat)
}

// openLoop sends requests on a fixed-rate schedule for d, regardless of
// completions, over at most conns connections; a request waits for a
// free connection when all are busy. It returns every outcome and how
// late the generator handed each request over.
func (c *client) openLoop(rate float64, d time.Duration) ([]outcome, []time.Duration) {
	n := int(rate * d.Seconds())
	due := dueTimes(time.Now().Add(10*time.Millisecond), rate, n)
	outs := make([]outcome, n)
	late := make([]time.Duration, n)
	jobs := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c.do(i, &outs[i])
			}
		}()
	}
	for i := range due {
		time.Sleep(time.Until(due[i]))
		outs[i].due = due[i]
		late[i] = lateness(due[i], time.Now())
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outs, late
}

// latencies returns each 200 outcome's latency from its due time and
// its wait for a connection (due to sent), in ms.
func latencies(outs []outcome) (fromDue, connWait []float64) {
	for _, o := range outs {
		if o.status == http.StatusOK {
			fromDue = append(fromDue, ms(sinceDue(o.due, o.done)))
			connWait = append(connWait, ms(o.sent.Sub(o.due)))
		}
	}
	return fromDue, connWait
}

// serveOpen: geniex-serve as a child process, loaded by batch-1
// requests from one process: a closed loop over conns connections and
// one over a single connection, then an open loop at two fixed rates.
func serveOpen(b *bench) error {
	if b.server == "" {
		return fmt.Errorf("serve-open needs -server")
	}
	t0 := time.Now()
	d, err := buildDesign()
	if err != nil {
		return err
	}
	b.m.set("setup.cnn_train_s", d.cnnTrainS, "s")
	b.m.set("setup.surrogate_generate_s", d.surGenerateS, "s")
	b.m.set("setup.surrogate_train_s", d.surTrainS, "s")
	t1 := time.Now()
	sim, err := d.lower(servedTier, 0, nil)
	if err != nil {
		return err
	}
	b.m.set("setup.lower_s", time.Since(t1).Seconds(), "s")
	x := inputs(b.seed, servePool)
	golden, err := forwardRows(sim, x)
	if err != nil {
		return err
	}
	want, err := b.expected("serve-open")
	if err != nil {
		return err
	}
	b.checkDigest("in-process "+servedTier, golden, want.Digests[servedTier])
	if b.trace {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, err := sim.ForwardContext(context.Background(), linalg.NewDenseFrom(1, x.Cols, x.Row(0))); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		b.m.set("runtime.alloc_kb_per_image."+servedTier, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, "KiB")
	}
	logf("in-process golden outputs ready after %.1f ms", ms(time.Since(t0)))

	var ready []float64
	var s *server
	for rep := 0; rep < serveSetupReps; rep++ {
		if s != nil {
			s.stop()
		}
		var took time.Duration
		if s, took, err = startServer(b.server); err != nil {
			return err
		}
		ready = append(ready, took.Seconds())
	}
	defer s.stop()
	b.m.set("setup_s", median(ready), "s")

	c, err := newClient(b, s, x, golden)
	if err != nil {
		return err
	}
	// The server's start-up fits the surrogate on circuit solves, so
	// its xbar counts are nonzero before the first request; serving
	// itself must not add to them.
	var start obs.SnapshotData
	if err := s.getJSON("/metrics", &start); err != nil {
		return err
	}
	end := time.Now().Add(b.window)
	phase := func(share float64) time.Duration { return time.Duration(share * float64(b.window)) }
	capacity, _ := c.closedLoop(conns, phase(capacityShare))
	b.m.set("images_per_s", capacity, "images/s")
	_, oneAtATime := c.closedLoop(1, phase(sequentialShare))
	b.m.set("p50_ms", oneAtATime, "ms")
	logf("closed-loop capacity %.1f requests/s over %d connections; one at a time %.1f ms", capacity, conns, oneAtATime)
	out1, late1 := c.openLoop(rateR1, phase(r1Share))
	out2, late2 := c.openLoop(rateR2, time.Until(end))

	lat1, _ := latencies(out1)
	lat2, wait2 := latencies(out2)
	b.m.set("serve.r1.p50_ms", median(lat1), "ms")
	b.m.set("serve.r1.p95_ms", percentile(lat1, 95), "ms")
	b.m.set("serve.r2.p50_ms", median(lat2), "ms")
	b.m.set("serve.r2.p95_ms", percentile(lat2, 95), "ms")
	b.m.set("serve.conn_wait_ms", percentile(wait2, 95), "ms")
	b.m.set("serve.gen_late_ms", percentile(msOf(append(late1, late2...)), 100), "ms")
	sent := len(out1) + len(out2)
	b.m.set("serve.error_share", float64(sent-len(lat1)-len(lat2))/float64(sent), "ratio")
	transport := make([]float64, 0, len(out1))
	for _, o := range out1 {
		if o.status == http.StatusOK {
			transport = append(transport, ms(o.done.Sub(o.sent))-o.elapsedMS)
		}
	}
	b.m.set("serve.transport_ms", median(transport), "ms")

	if b.trace {
		if err := c.traced(); err != nil {
			return err
		}
	}
	var last obs.SnapshotData
	if err := s.getJSON("/metrics", &last); err != nil {
		return err
	}
	if act := xbarActivity(delta(last, start)); len(act) > 0 {
		b.fail("geniex-serve made xbar calls while serving: %v", act)
	}
	return b.setPeakRSS(strconv.Itoa(s.cmd.Process.Pid))
}

// chromeTrace is the part of the server's /trace export the benchmark
// reads: complete spans ("ph":"X") with µs times and their tree IDs.
type chromeTrace struct {
	SpansDropped int64        `json:"spansDropped"`
	TraceEvents  []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Tid  int64     `json:"tid"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	SpanID   int64 `json:"span_id"`
	ParentID int64 `json:"parent_id"`
}

// ringTotal is how many spans the server's ring has ever recorded.
func (t chromeTrace) ringTotal() int64 {
	n := int64(0)
	for _, e := range t.TraceEvents {
		if e.Ph == "X" {
			n++
		}
	}
	return n + t.SpansDropped
}

// lastRequest returns the spans of the most recent serve.request trace.
func (t chromeTrace) lastRequest() []span {
	var root int64
	last := -1.0
	for _, e := range t.TraceEvents {
		if e.Ph == "X" && e.Name == "serve.request" && e.Ts > last {
			root, last = e.Tid, e.Ts
		}
	}
	var out []span
	for _, e := range t.TraceEvents {
		if e.Ph == "X" && e.Tid == root {
			out = append(out, span{
				ID: e.Args.SpanID, Parent: e.Args.ParentID, Trace: e.Tid, Name: e.Name,
				// The export divides whole ns by 1e3; rounding restores them.
				Start: int64(math.Round(e.Ts * 1e3)), Dur: int64(math.Round(e.Dur * 1e3)),
			})
		}
	}
	return out
}

// traced sends tracedRequests requests one at a time, untraced and
// then twice traced. A traced request is wrapped in the benchmark's
// own span and followed by a read of the server's span ring, from
// which it takes that request's span tree. The server's ring is never
// cleared, so a lost span is detected by count: the ring's total grows
// by exactly the spans the request recorded, all of which must be in
// the export.
func (c *client) traced() error {
	untraced := make([]float64, 0, tracedRequests)
	for i := 0; i < tracedRequests; i++ {
		var o outcome
		c.do(i, &o)
		untraced = append(untraced, ms(o.done.Sub(o.sent)))
	}
	reg := obs.NewRegistry()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	var prev chromeTrace
	if err := c.s.getJSON("/trace", &prev); err != nil {
		return err
	}
	var before obs.SnapshotData
	if err := c.s.getJSON("/metrics", &before); err != nil {
		return err
	}
	var bd breakdown
	var dropped int64
	var counts []workCounts
	for pass := 0; pass < tracedPasses; pass++ {
		for i := 0; i < tracedRequests; i++ {
			var o outcome
			_, sp := reg.StartSpan(context.Background(), "bench.request")
			c.do(i, &o)
			sp.End()
			var tr chromeTrace
			if err := c.s.getJSON("/trace", &tr); err != nil {
				return err
			}
			spans := tr.lastRequest()
			lost := tr.ringTotal() - prev.ringTotal() - int64(len(spans))
			prev = tr
			dropped += lost
			if err := checkTree(spans, "serve.request"); err != nil {
				c.b.fail("traced request %d: %v", i, err)
			}
			if err := checkCoverage(spans); err != nil {
				c.b.fail("traced request %d: %v", i, err)
			}
			bd.add(spans)
		}
		var after obs.SnapshotData
		if err := c.s.getJSON("/metrics", &after); err != nil {
			return err
		}
		counts = append(counts, countsOf(delta(after, before)))
		before = after
	}
	if counts[0] != counts[1] {
		c.b.fail("served work counts differ between traced passes: %+v vs %+v", counts[0], counts[1])
	}
	// The client-side latency of the traced requests is read back from
	// the benchmark's own spans.
	snap := reg.Reset()
	dropped += snap.SpansDropped
	var tracedMS []float64
	for _, e := range snap.Spans {
		tracedMS = append(tracedMS, float64(e.Duration)/1e6)
	}
	n := float64(tracedPasses * tracedRequests)
	bd.layerMetrics(c.b.m, servedTier, n)
	m := c.b.m
	m.set("serve.request.self_ms", bd.selfMS["serve.request"]/n, "ms")
	m.set("serve.forward_ms", bd.forwardMS/n, "ms")
	perImage := float64(tracedRequests)
	m.set("funcsim.mvm.crossbar_ops_per_image."+servedTier, float64(counts[0].crossbarOps)/perImage, "count")
	m.set("funcsim.mvm.adc_conversions_per_image."+servedTier, float64(counts[0].adcConversions)/perImage, "count")
	m.set("funcsim.run.freelist_hit_ratio."+servedTier, ratio(counts[0].freeHits, counts[0].freeHits+counts[0].freeMisses), "ratio")
	m.set("obs.trace_overhead_pct", 100*(median(tracedMS)-median(untraced))/median(untraced), "%")
	m.set("obs.spans_dropped", float64(dropped), "count")
	if dropped != 0 {
		c.b.fail("%d spans of traced requests missing from the server's trace export", dropped)
	}
	return nil
}

// delta is the counts snapshot a added over an earlier snapshot b.
func delta(a, b obs.SnapshotData) obs.SnapshotData {
	d := obs.SnapshotData{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for name, v := range a.Counters {
		d.Counters[name] = v - b.Counters[name]
	}
	for name, h := range a.Histograms {
		d.Histograms[name] = obs.HistogramSnapshot{Count: h.Count - b.Histograms[name].Count, Sum: h.Sum - b.Histograms[name].Sum}
	}
	return d
}
