package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the -trace 0 metrics, printed by every workload. Their
// meaning per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_cycles_per_s", "cycles/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

// simRowNames are the rows of the simulator workload, in the order
// their per-row metrics are printed.
var simRowNames = []string{"fig20-base", "fig20-copy", "fig20-distributed", "fig20-dc", "fig20-tiled"}

// geometries are the machine sizes whose sim.New/Reset cost is printed:
// 4 cores (the serve mix) and 16 (Figure 20).
var geometries = []string{"4c", "16c"}

// perLayer is the -trace 1 catalog. Every workload prints all of it; a
// layer the workload never calls into reads 0 (README.md).
func perLayer() []metricDef {
	var defs []metricDef
	for _, kind := range []string{"ns_per_cycle", "ns_per_core_cycle", "ns_per_retired"} {
		for _, r := range simRowNames {
			defs = append(defs, metricDef{"lbp." + kind + "." + r, "ns"})
		}
	}
	defs = append(defs,
		metricDef{"lbp.ns_per_cycle.mix", "ns"},
		metricDef{"lbp.decode_cache_hit_ratio", "ratio"},
		metricDef{"trace.digest_ns_per_event", "ns"},
		metricDef{"trace.spans", "count"},
		metricDef{"perf.profile_overhead_ratio", "ratio"},
	)
	for _, g := range geometries {
		defs = append(defs, metricDef{"sim.new_ms." + g, "ms"}, metricDef{"sim.reset_ms." + g, "ms"})
	}
	defs = append(defs,
		metricDef{"sim.cache_key_us.p50", "us"},
		metricDef{"sim.pool_hit_ratio", "ratio"},
		metricDef{"serve.run_ms.p50", "ms"},
		metricDef{"serve.run_ms.p99", "ms"},
		metricDef{"serve.edge_ms.p50", "ms"},
		metricDef{"serve.hit_ms.p50", "ms"},
		metricDef{"serve.hit_ms.p99", "ms"},
		metricDef{"serve.miss_ms.p50", "ms"},
		metricDef{"serve.miss_ms.p99", "ms"},
		metricDef{"serve.http_ms.p50", "ms"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.get_us.p50", "us"},
		metricDef{"cache.put_us.p50", "us"},
		metricDef{"cc.build_ms.p50", "ms"},
		metricDef{"cc.build_ms.p99", "ms"},
		metricDef{"asm.assemble_ms.p50", "ms"},
		metricDef{"asm.image_write_us.p50", "us"},
		metricDef{"asm.image_read_us.p50", "us"},
		metricDef{"asm.image_kb.mean", "KiB"},
		metricDef{"rpc.ping_us.p50", "us"},
		metricDef{"dispatch.overhead_ms.p50", "ms"},
		metricDef{"dispatch.affine_ratio", "ratio"},
		metricDef{"dispatch.steal_ratio", "ratio"},
		metricDef{"dispatch.retry_ratio", "ratio"},
	)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"trace_overhead." + m.name, "ratio"})
	}
	return defs
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// putOverhead records how far each end-to-end metric moved in the
// traced pass against the untraced one: traced/untraced - 1.
func putOverhead(o *outcome, untraced, traced map[string]float64) {
	for _, m := range endToEnd {
		if u := untraced[m.name]; u != 0 {
			o.metrics["trace_overhead."+m.name] = traced[m.name]/u - 1
		}
	}
}

// span is one timed call into a layer, made from the benchmark's own
// code. Times are offsets from the start of the run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced passes run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span over [start, end) and returns its ID.
func (t *tracer) add(name string, job, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// samples collects per-layer timings by metric name.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[name]...)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
