package main

// The serving workload, serve-fleet: lbp-serve as a coordinator over
// two in-process dispatch workers on loopback, with the result cache on
// a fresh directory, driven over loopback HTTP as a closed loop of
// `clients` clients. Every job crosses the HTTP edge, the compiler or
// the image decoder, and the cache key; cache misses are dispatched
// over RPC to a worker's warm pool.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/dispatch"
	"repro/internal/lbp"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serverMaxCycles is the server's default budget, which a request
// without maxCycles runs under; the oracle runs the same budget.
const serverMaxCycles = 100_000_000

// warmupJobs is how many jobs from the head of the list the set-up
// sends before the timed phase: enough to fill the hot set's cache
// entries and warm pools, heap and connections. Their answers are
// checked like every other.
const warmupJobs = 200

// serveSetupRepeats is setupRepeats for the serve workloads, whose
// set-up includes the warm-up traffic.
const serveSetupRepeats = 3

// stack is one running serve workload.
type stack struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	coord   *dispatch.Coordinator
	workers []*dispatch.Worker
	addrs   []string
}

// close stops everything the stack started. Teardown errors are
// dropped: the run's results are already measured and checked.
func (s *stack) close() {
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.coord.Close()
	for _, w := range s.workers {
		w.Close()
	}
}

// startStack builds the workers, the coordinator, the cache and the
// server, and listens on loopback.
func startStack(cfg *runConfig, n int, tr *tracer) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w := dispatch.NewWorker(dispatch.WorkerConfig{})
		go w.Serve(ln)
		st.workers = append(st.workers, w)
		st.addrs = append(st.addrs, ln.Addr().String())
	}
	coord, err := dispatch.New(dispatch.Config{Backends: st.addrs})
	if err != nil {
		return nil, err
	}
	st.coord = coord
	store, err := cache.Open(filepath.Join(cfg.workDir, fmt.Sprintf("cache-%d", n)), 0)
	if err != nil {
		return nil, err
	}
	st.srv = serve.New(serve.Config{Dispatcher: coord, Cache: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go st.hs.Serve(ln)
	st.url = "http://" + ln.Addr().String()
	tr.add("serve.start", n, 0, t0, time.Now())
	return st, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
}

// post sends one job and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// response is one answered job of a pass.
type response struct {
	idx  int           // position in the mix list
	at   time.Duration // when it was sent, from the start of the pass
	code int
	lat  time.Duration
	res  answer
	err  error
}

// answer is what a pass keeps of one response: the host-side fields
// and a digest of the deterministic ones, so a run's memory does not
// grow with the size of its results.
type answer struct {
	Error          string
	Cached         bool
	QueueMs, RunMs float64
	Worker         string
	det            detSum
}

func decodeAnswer(b []byte) (answer, error) {
	var jr serve.JobResult
	if err := json.Unmarshal(b, &jr); err != nil {
		return answer{}, err
	}
	return answer{Error: jr.Error, Cached: jr.Cached, QueueMs: jr.QueueMs, RunMs: jr.RunMs,
		Worker: jr.Worker, det: detOf(&jr)}, nil
}

// httpPass runs the closed loop from list position *next until the time
// is up or, when limit > 0, until position limit. Each client sends its
// next job only after the previous answer.
func httpPass(st *stack, m *mix, next *atomic.Int64, limit int, seconds float64, tr *tracer) ([]response, time.Duration) {
	var (
		mu  sync.Mutex
		out []response
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			for seconds == 0 || time.Now().Before(deadline) {
				idx := int(next.Add(1) - 1)
				if limit > 0 && idx >= limit {
					return
				}
				_, body := m.request(idx)
				t0 := time.Now()
				code, b, err := post(client, st.url, body)
				t1 := time.Now()
				r := response{idx: idx, at: t0.Sub(start), code: code, lat: t1.Sub(t0), err: err}
				if err == nil {
					r.res, r.err = decodeAnswer(b)
				}
				if tr != nil {
					// The request span's children are the server's own
					// queue and run intervals, placed to end with the
					// response.
					id := tr.add("http.request", idx, 0, t0, t1)
					run := time.Duration(r.res.RunMs * float64(time.Millisecond))
					queue := time.Duration(r.res.QueueMs * float64(time.Millisecond))
					tr.add("serve.queue", idx, id, t1.Add(-run-queue), t1.Add(-run))
					tr.add("serve.run", idx, id, t1.Add(-run), t1)
				}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// detFields are the deterministic fields of a result, compared against
// the oracle through the SHA-256 of their JSON encoding.
type detFields struct {
	Status  string
	Halt    string
	Cycles  uint64
	Retired uint64
	IPC     float64
	Digest  uint64
	Events  uint64
	Mem     *mem.Stats
	Perf    *perf.Snapshot
}

// detSum identifies a result's deterministic fields: the SHA-256 of
// their JSON, with cycles and digest kept for the failure report.
type detSum struct {
	sum            [sha256.Size]byte
	cycles, digest uint64
}

func detOf(r *serve.JobResult) detSum {
	b, _ := json.Marshal( // plain data: cannot fail
		detFields{r.Status, r.Halt, r.Cycles, r.Retired, r.IPC, r.Digest, r.Events, r.Mem, r.Perf})
	return detSum{sha256.Sum256(b), r.Cycles, r.Digest}
}

// buildProgram compiles a request the way the server does.
func buildProgram(req *serve.JobRequest) (*asm.Program, error) {
	if len(req.Image) > 0 {
		return asm.ReadImage(bytes.NewReader(req.Image))
	}
	opt := cc.DefaultOptions()
	if req.Cores > 0 {
		opt.Cores = req.Cores
	}
	text, err := cc.BuildProgram(req.Source, opt)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(text, asm.Options{})
}

func specOf(req *serve.JobRequest, prog *asm.Program) sim.Spec {
	return sim.Spec{Program: prog, Cores: req.Cores, SharedBankBytes: req.BankBytes,
		MaxCycles: serverMaxCycles, Trace: sim.TraceSpec{Digest: req.Digest}, Profile: req.Profile}
}

// expected runs a request on a fresh local sim.Session: the oracle.
func expected(req *serve.JobRequest) (*serve.JobResult, error) {
	prog, err := buildProgram(req)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(specOf(req, prog))
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	jr := serve.JobResult{Status: serve.StatusOK, Halt: res.Halt, Cycles: res.Stats.Cycles,
		Retired: res.Stats.Retired, IPC: res.Stats.IPC(), Mem: &res.Mem, Perf: s.PerfSnapshot()}
	if rec := s.Recorder(); rec != nil {
		jr.Digest, jr.Events = rec.Digest(), rec.Count()
	}
	return &jr, nil
}

// oracle memoizes expected results by body index, computing the
// missing ones on `clients` goroutines.
type oracle struct {
	want    map[int]detSum
	corrupt bool
}

func (o *oracle) fill(m *mix, idx []int) error {
	var todo []int
	seen := map[int]bool{}
	for _, i := range idx {
		k := m.job(i).key
		if _, ok := o.want[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, i)
		}
	}
	got := make([]*serve.JobResult, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(todo); k = int(next.Add(1) - 1) {
				req, _ := m.request(todo[k])
				got[k], errs[k] = expected(&req)
			}
		}()
	}
	wg.Wait()
	for k, i := range todo {
		if errs[k] != nil {
			return fmt.Errorf("oracle: job %d: %w", i, errs[k])
		}
		if o.corrupt {
			got[k].Digest ^= 1
		}
		o.want[m.job(i).key] = detOf(got[k])
	}
	return nil
}

// check counts every response against the oracle and returns how many
// were correct 200s.
func (o *oracle) check(cfg *runConfig, m *mix, rs []response, out *outcome) (int, error) {
	idx := make([]int, len(rs))
	for i, r := range rs {
		idx[i] = r.idx
	}
	if err := o.fill(m, idx); err != nil {
		return 0, err
	}
	ok := 0
	for _, r := range rs {
		out.attempted++
		switch {
		case r.err != nil:
			out.fail(cfg, "job %d: %v", r.idx, r.err)
		case r.code != http.StatusOK:
			out.fail(cfg, "job %d: HTTP %d: %s", r.idx, r.code, r.res.Error)
		case r.res.det != o.want[m.job(r.idx).key]:
			want := o.want[m.job(r.idx).key]
			out.fail(cfg, "job %d: response differs from a direct sim.Session run (cycles %d digest %#x, want %d %#x)",
				r.idx, r.res.det.cycles, r.res.det.digest, want.cycles, want.digest)
		default:
			ok++
		}
	}
	return ok, nil
}

// latencySlices is how many equal time slices of a timed pass the
// latency percentiles are taken in. The run reports the median slice's
// p50 and p99, so a burst of host noise inside one slice moves neither.
// A slice of the 20 s traced pass of a 40 s run still holds over 1000
// jobs.
const latencySlices = 5

// serveEndToEnd turns one checked pass into the end-to-end metrics.
func serveEndToEnd(rs []response, wall time.Duration, correct int) map[string]float64 {
	slices := make([][]float64, latencySlices)
	var cycles float64
	for _, r := range rs {
		if r.err != nil || r.code != http.StatusOK {
			continue
		}
		k := min(int(int64(latencySlices)*int64(r.at)/int64(wall)), latencySlices-1)
		slices[k] = append(slices[k], ms(r.lat))
		if !r.res.Cached {
			cycles += float64(r.res.det.cycles)
		}
	}
	var p50, p99 []float64
	for _, lat := range slices {
		if len(lat) > 0 {
			p50 = append(p50, median(lat))
			p99 = append(p99, quantile(lat, 0.99))
		}
	}
	return map[string]float64{
		"sim_cycles_per_s": ratio(cycles, wall.Seconds()),
		"job_p50_ms":       median(p50),
		"job_p99_ms":       median(p99),
		"jobs_per_s":       ratio(float64(correct), wall.Seconds()),
	}
}

// latencySplit returns the round trips (ms) of a pass's 200 responses
// served from the result cache and of those that were simulated.
func latencySplit(rs []response) (hit, miss []float64) {
	for _, r := range rs {
		switch {
		case r.err != nil || r.code != http.StatusOK:
		case r.res.Cached:
			hit = append(hit, ms(r.lat))
		default:
			miss = append(miss, ms(r.lat))
		}
	}
	return hit, miss
}

// printSplit reports a pass's latency for cache hits and misses apart,
// so a claim on job_p50_ms can say which of the two it moved.
func printSplit(cfg *runConfig, rs []response) {
	hit, miss := latencySplit(rs)
	fmt.Fprintf(cfg.log, "  cache hits %d p50 %.3f p99 %.3f ms; simulated %d p50 %.3f p99 %.3f ms\n",
		len(hit), median(hit), quantile(hit, 0.99), len(miss), median(miss), quantile(miss, 0.99))
}

// runServe runs the serving workload. Untraced: set-up, one timed pass,
// then the oracle over the warm-up and timed responses. Traced: set-up
// with and without spans, an untraced and a traced half-length pass,
// the oracle, then a sequential replay of the traced pass's first jobs
// through each layer's public entry points.
func runServe(cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	m, err := newMix(cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "mix: hash %s of the first %d jobs\n", m.hash, hashJobs)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	orc := &oracle{want: map[int]detSum{}, corrupt: cfg.corrupt}
	warmup := warmupJobs
	if cfg.tiny {
		warmup = 20
	}
	var st *stack
	var setups, tracedSetups []float64
	var warmed []response // checked after the timed passes
	for i := 0; i < serveSetupRepeats+boolInt(cfg.trace); i++ {
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		if st != nil {
			st.close()
			st = nil
		}
		settle()
		t0 := time.Now()
		st, err = startStack(cfg, i, t)
		if err != nil {
			return nil, err
		}
		var wnext atomic.Int64
		t1 := time.Now()
		ws, _ := httpPass(st, m, &wnext, warmup, 0, t)
		d := time.Since(t0).Seconds()
		t.add("serve.warmup", i, 0, t1, time.Now())
		warmed = append(warmed, ws...)
		if t != nil {
			tracedSetups = append(tracedSetups, d)
		} else {
			setups = append(setups, d)
		}
	}
	defer st.close()
	fmt.Fprintf(cfg.log, "setup samples %v s\n", setups)

	var next atomic.Int64
	next.Store(int64(warmup))
	passSeconds := cfg.seconds
	if cfg.trace {
		passSeconds = cfg.seconds / 2
	}
	rs, wall := httpPass(st, m, &next, 0, passSeconds, nil)
	peak := peakRSSMiB() // before any oracle run: the peak is the workload's own
	m.describe(cfg.log, int(next.Load()))

	// The traced pass, also before the oracle runs.
	var (
		trs                []response
		twall              time.Duration
		tpeak              float64
		before, after      map[string]float64
		dh0, dm0, dh1, dm1 uint64
		ph0, pm0, ph1, pm1 float64
	)
	first := int(next.Load())
	if cfg.trace {
		if before, err = scrape(st.url); err != nil {
			return nil, err
		}
		dh0, dm0, _ = lbp.DecodeCacheStats()
		ph0, pm0 = workerPoolStats(st)
		trs, twall = httpPass(st, m, &next, 0, cfg.seconds/2, tr)
		tpeak = peakRSSMiB()
		dh1, dm1, _ = lbp.DecodeCacheStats()
		ph1, pm1 = workerPoolStats(st)
		if after, err = scrape(st.url); err != nil {
			return nil, err
		}
	}

	if _, err := orc.check(cfg, m, warmed, out); err != nil {
		return nil, err
	}
	correct, err := orc.check(cfg, m, rs, out)
	if err != nil {
		return nil, err
	}
	e2e := serveEndToEnd(rs, wall, correct)
	e2e["setup_s"] = median(setups)
	e2e["peak_rss_mb"] = peak
	fmt.Fprintf(cfg.log, "timed pass: %d jobs in %.3f s, %d correct\n", len(rs), wall.Seconds(), correct)
	printSplit(cfg, rs)
	if !cfg.trace {
		for k, v := range e2e {
			out.metrics[k] = v
		}
		return out, nil
	}

	tcorrect, err := orc.check(cfg, m, trs, out)
	if err != nil {
		return nil, err
	}
	traced := serveEndToEnd(trs, twall, tcorrect)
	traced["setup_s"] = median(tracedSetups)
	traced["peak_rss_mb"] = tpeak
	putOverhead(out, e2e, traced)
	fmt.Fprintf(cfg.log, "traced pass: %d jobs in %.3f s, %d correct\n", len(trs), twall.Seconds(), tcorrect)
	printSplit(cfg, trs)

	// Counters of the traced pass.
	delta := func(k string) float64 { return after[k] - before[k] }
	out.metrics["lbp.decode_cache_hit_ratio"] = ratio(float64(dh1-dh0), float64(dh1-dh0+dm1-dm0))
	out.metrics["sim.pool_hit_ratio"] = ratio(ph1-ph0, ph1-ph0+pm1-pm0)
	d := delta("lbp_serve_dispatch_jobs_total")
	out.metrics["dispatch.steal_ratio"] = ratio(delta("lbp_serve_dispatch_steals_total"), d)
	out.metrics["dispatch.retry_ratio"] = ratio(delta("lbp_serve_dispatch_retries_total"), d)
	out.metrics["dispatch.affine_ratio"] = affineRatio(m, rs, trs)
	ch, cm := delta("lbp_serve_cache_hits_total"), delta("lbp_serve_cache_misses_total")
	out.metrics["cache.hit_ratio"] = ratio(ch, ch+cm)

	// Server-side intervals reported by the responses themselves, and
	// the round trip split by whether the response came from the cache.
	var run, edge []float64
	for _, r := range trs {
		if r.err == nil && r.code == http.StatusOK && !r.res.Cached {
			run = append(run, r.res.RunMs)
			edge = append(edge, ms(r.lat)-r.res.RunMs)
		}
	}
	hit, miss := latencySplit(trs)
	out.metrics["serve.run_ms.p50"] = median(run)
	out.metrics["serve.run_ms.p99"] = quantile(run, 0.99)
	out.metrics["serve.edge_ms.p50"] = median(edge)
	out.metrics["serve.hit_ms.p50"] = median(hit)
	out.metrics["serve.hit_ms.p99"] = quantile(hit, 0.99)
	out.metrics["serve.miss_ms.p50"] = median(miss)
	out.metrics["serve.miss_ms.p99"] = quantile(miss, 0.99)

	if err := replay(cfg, st, m, orc, first, tr, out); err != nil {
		return nil, err
	}
	spans := tr.all()
	out.metrics["trace.spans"] = float64(len(spans))
	return out, writeSpans(cfg, spans)
}

// workerPoolStats sums the warm-pool counters of the fleet's workers.
func workerPoolStats(st *stack) (hits, misses float64) {
	for _, w := range st.workers {
		ps := w.PoolStats()
		hits += float64(ps.Hits)
		misses += float64(ps.Misses)
	}
	return hits, misses
}

// affineRatio is the share of repeated bodies in the traced pass that
// ran on the same worker as their previous occurrence.
func affineRatio(m *mix, earlier, traced []response) float64 {
	last := map[int]string{}
	for _, r := range earlier {
		last[m.job(r.idx).key] = r.res.Worker
	}
	var repeats, same float64
	for _, r := range traced {
		b := m.job(r.idx).key
		if w, ok := last[b]; ok && r.res.Worker != "" {
			repeats++
			if w == r.res.Worker {
				same++
			}
		}
		last[b] = r.res.Worker
	}
	return ratio(same, repeats)
}

// scrape reads the numeric series of /metrics.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// replayJobs bounds the sequential replay.
const replayJobs = 120

// replay sends the traced pass's first jobs, one at a time, through the
// public entry points of each layer: compile or image decode, image
// encode and decode, cache key and result store, HTTP against the
// in-memory handler, direct sim runs with the observers on and off, and
// Coordinator.Do; then it pings a worker over RPC.
func replay(cfg *runConfig, st *stack, m *mix, orc *oracle, first int, tr *tracer, out *outcome) error {
	smp := newSamples()
	store, err := cache.Open(filepath.Join(cfg.workDir, "replay-store"), 0)
	if err != nil {
		return err
	}
	client := newClient()
	budget := time.Now().Add(time.Duration(cfg.seconds * 0.3 * float64(time.Second)))
	warm := map[string]*sim.Session{}
	var onNs, offNs, profNs, events, directNs, cycles float64
	var rs []response
	for k := 0; k < replayJobs && time.Now().Before(budget); k++ {
		idx := first + k
		reqv, body := m.request(idx)
		req := &reqv

		// Front end: what the server does before any cycle runs.
		var prog *asm.Program
		t0 := time.Now()
		if len(req.Image) > 0 {
			p, err := asm.ReadImage(bytes.NewReader(req.Image))
			if err != nil {
				return err
			}
			prog = p
			t1 := time.Now()
			smp.add("asm.image_read_us", us(t1.Sub(t0)))
			tr.add("asm.ReadImage", idx, 0, t0, t1)
		} else {
			opt := cc.DefaultOptions()
			opt.Cores = req.Cores
			text, err := cc.BuildProgram(req.Source, opt)
			if err != nil {
				return err
			}
			t1 := time.Now()
			p, err := asm.Assemble(text, asm.Options{})
			if err != nil {
				return err
			}
			t2 := time.Now()
			prog = p
			smp.add("cc.build_ms", ms(t1.Sub(t0)))
			smp.add("asm.assemble_ms", ms(t2.Sub(t1)))
			tr.add("cc.BuildProgram", idx, 0, t0, t1)
			tr.add("asm.Assemble", idx, 0, t1, t2)
		}
		var img bytes.Buffer
		t0 = time.Now()
		if err := prog.WriteImage(&img); err != nil {
			return err
		}
		t1 := time.Now()
		smp.add("asm.image_write_us", us(t1.Sub(t0)))
		smp.add("asm.image_kb", float64(img.Len())/1024)
		tr.add("asm.WriteImage", idx, 0, t0, t1)
		// A worker decodes every dispatched job from its image.
		t0 = time.Now()
		if _, err := asm.ReadImage(bytes.NewReader(img.Bytes())); err != nil {
			return err
		}
		t1 = time.Now()
		smp.add("asm.image_read_us", us(t1.Sub(t0)))
		tr.add("asm.ReadImage", idx, 0, t0, t1)
		spec := specOf(req, prog)
		t0 = time.Now()
		key, err := sim.CacheKey(spec)
		if err != nil {
			return err
		}
		t1 = time.Now()
		smp.add("sim.cache_key_us", us(t1.Sub(t0)))
		tr.add("sim.CacheKey", idx, 0, t0, t1)

		// HTTP round trip against the same request on the in-memory
		// handler, both at the server's current (warm) state.
		t0 = time.Now()
		code, b, err := post(client, st.url, body)
		t1 = time.Now()
		r := response{idx: idx, code: code, lat: t1.Sub(t0), err: err}
		if err == nil {
			r.res, r.err = decodeAnswer(b)
		}
		rs = append(rs, r)
		tr.add("http.request", idx, 0, t0, t1)
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		t2 := time.Now()
		st.srv.Handler().ServeHTTP(rec, hreq)
		t3 := time.Now()
		tr.add("serve.Handler", idx, 0, t2, t3)
		smp.add("serve.http_ms", ms(t1.Sub(t0))-ms(t3.Sub(t2)))

		if code == http.StatusOK {
			t0 = time.Now()
			if err := store.Put(key, b); err != nil {
				return err
			}
			t1 = time.Now()
			if _, ok := store.Get(key); !ok {
				return errors.New("replay: cache store lost a fresh entry")
			}
			t2 := time.Now()
			smp.add("cache.put_us", us(t1.Sub(t0)))
			smp.add("cache.get_us", us(t2.Sub(t1)))
			tr.add("cache.Put", idx, 0, t0, t1)
			tr.add("cache.Get", idx, 0, t1, t2)
		}

		// Direct simulation: a warm Reset+Run on one session per request
		// shape, the baseline of the dispatch overhead.
		shape := fmt.Sprintf("%d/%t/%t", req.Cores, req.Digest, req.Profile)
		s, ok := warm[shape]
		if !ok {
			t0 = time.Now()
			if s, err = sim.New(spec); err != nil {
				return err
			}
			t1 = time.Now()
			smp.add("sim.new_ms.4c", ms(t1.Sub(t0)))
			tr.add("sim.New", idx, 0, t0, t1)
			warm[shape] = s
		}
		t0 = time.Now()
		if err := s.Reset(prog); err != nil {
			return err
		}
		t1 = time.Now()
		res, err := s.Run()
		if err != nil {
			return err
		}
		t2 = time.Now()
		smp.add("sim.reset_ms.4c", ms(t1.Sub(t0)))
		tr.add("sim.Reset", idx, 0, t0, t1)
		tr.add("lbp.Run", idx, 0, t1, t2)
		direct := t2.Sub(t0)
		directNs += float64(t2.Sub(t1))
		cycles += float64(res.Stats.Cycles)

		// Observer probes on fresh sessions, as sim-dense's: digest on
		// (the mix's setting), digest off, profile on.
		if req.Digest && !req.Profile {
			var runs [3]time.Duration
			for p, probe := range []struct {
				name         string
				digest, prof bool
			}{{"lbp.Run.digest", true, false}, {"lbp.Run.nodigest", false, false}, {"lbp.Run.profile", true, true}} {
				ps := spec
				ps.Trace = sim.TraceSpec{Digest: probe.digest}
				ps.Profile = probe.prof
				fs, _, newDur, run, err := freshRun(ps, tr, idx, probe.name)
				if err != nil {
					return err
				}
				smp.add("sim.new_ms.4c", ms(newDur))
				runs[p] = run
				if probe.digest && !probe.prof {
					events += float64(fs.Recorder().Count())
				}
			}
			onNs += float64(runs[0])
			offNs += float64(runs[1])
			profNs += float64(runs[2])
		}

		// The job as the server dispatches a cache miss: keyed by its
		// cache key, so it routes to the same affine worker.
		job := &dispatch.Job{ID: fmt.Sprintf("replay-%d", idx), Key: key, Image: img.Bytes(), Cores: req.Cores,
			BankBytes: req.BankBytes, MaxCycles: serverMaxCycles, Digest: req.Digest, Profile: req.Profile}
		t0 = time.Now()
		dres, err := st.coord.Do(context.Background(), job)
		t1 = time.Now()
		if err != nil {
			return err
		}
		if dres.Digest != r.res.det.digest || dres.Cycles != r.res.det.cycles {
			out.fail(cfg, "replay job %d: Coordinator.Do digest %#x cycles %d, HTTP %#x %d",
				idx, dres.Digest, dres.Cycles, r.res.det.digest, r.res.det.cycles)
		}
		tr.add("dispatch.Do", idx, 0, t0, t1)
		smp.add("dispatch.overhead_ms", ms(t1.Sub(t0))-ms(direct))
	}
	if _, err := orc.check(cfg, m, rs, out); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "replay: %d jobs\n", len(rs))

	conn, err := rpc.Dial(st.addrs[0], nil)
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		var ws dispatch.WorkerStats
		t0 := time.Now()
		if err := conn.Call(context.Background(), dispatch.MethodPing, nil, &ws); err != nil {
			conn.Close()
			return err
		}
		t1 := time.Now()
		smp.add("rpc.ping_us", us(t1.Sub(t0)))
		tr.add("rpc.ping", i, 0, t0, t1)
	}
	conn.Close()

	for _, name := range []string{"cc.build_ms", "asm.assemble_ms", "asm.image_write_us", "asm.image_read_us",
		"sim.cache_key_us", "serve.http_ms", "cache.get_us", "cache.put_us", "rpc.ping_us", "dispatch.overhead_ms"} {
		out.metrics[name+".p50"] = median(smp.get(name))
	}
	out.metrics["cc.build_ms.p99"] = quantile(smp.get("cc.build_ms"), 0.99)
	out.metrics["asm.image_kb.mean"] = mean(smp.get("asm.image_kb"))
	out.metrics["sim.new_ms.4c"] = median(smp.get("sim.new_ms.4c"))
	out.metrics["sim.reset_ms.4c"] = median(smp.get("sim.reset_ms.4c"))
	out.metrics["lbp.ns_per_cycle.mix"] = ratio(directNs, cycles)
	out.metrics["trace.digest_ns_per_event"] = ratio(onNs-offNs, events)
	out.metrics["perf.profile_overhead_ratio"] = ratio(profNs, onNs)
	return nil
}
