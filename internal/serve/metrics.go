package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/dispatch"
	"repro/internal/lbp"
	"repro/internal/sim"
)

// metrics holds the server counters exported at /metrics. All fields
// are atomics: the hot paths (admission, workers) touch them without a
// lock, and the exposition reads a consistent-enough snapshot.
type metrics struct {
	accepted  atomic.Uint64 // jobs admitted to the queue
	rejected  atomic.Uint64 // jobs turned away with 429 (queue full)
	completed atomic.Uint64 // runs that finished (StatusOK)
	failed    atomic.Uint64 // fault/budget/deadline/cancel outcomes
	preempted atomic.Uint64 // jobs checkpointed by shutdown

	cacheHits   atomic.Uint64 // jobs answered from the result cache
	cacheMisses atomic.Uint64 // cache lookups that had to simulate

	poolDiscarded atomic.Uint64 // sessions not returned to the pool (preempted by shutdown)

	queueDepth atomic.Int64 // jobs admitted but not yet started
	inflight   atomic.Int64 // jobs currently running

	simCycles atomic.Uint64 // simulated cycles across all runs (partial included)
	runNanos  atomic.Uint64 // host wall nanoseconds inside the simulator

	// lastJobCPS is the simulated-cycles-per-second of the most recently
	// completed job (math.Float64bits encoded), the per-job throughput
	// gauge next to the lifetime aggregate.
	lastJobCPS atomic.Uint64
}

// recordJobThroughput publishes one completed job's cycles/s.
func (m *metrics) recordJobThroughput(cycles uint64, seconds float64) {
	if seconds > 0 {
		m.lastJobCPS.Store(math.Float64bits(float64(cycles) / seconds))
	}
}

// writePrometheus emits the Prometheus text exposition format
// (hand-rolled: the repo takes no dependencies).
func (m *metrics) writePrometheus(w io.Writer, pool sim.PoolStats, idle int, cs cache.Stats) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("lbp_serve_jobs_accepted_total", "Jobs admitted to the run queue.", m.accepted.Load())
	counter("lbp_serve_jobs_rejected_total", "Jobs rejected with 429 because the queue was full.", m.rejected.Load())
	counter("lbp_serve_jobs_completed_total", "Jobs whose simulation ran to completion.", m.completed.Load())
	counter("lbp_serve_jobs_failed_total", "Jobs that ended in a fault, budget, deadline or cancellation.", m.failed.Load())
	counter("lbp_serve_jobs_preempted_total", "Jobs checkpointed to disk by a shutdown.", m.preempted.Load())
	counter("lbp_serve_cache_hits_total", "Jobs answered from the content-addressed result cache.", m.cacheHits.Load())
	counter("lbp_serve_cache_misses_total", "Cache lookups that fell through to a simulation.", m.cacheMisses.Load())
	gauge("lbp_serve_cache_bytes", "Payload bytes in the result cache.", float64(cs.Bytes))
	gauge("lbp_serve_cache_entries", "Payloads in the result cache.", float64(cs.Entries))
	counter("lbp_serve_cache_evictions_total", "Result-cache entries evicted by the size bound.", cs.Evictions)
	gauge("lbp_serve_queue_depth", "Jobs admitted but not yet running.", float64(m.queueDepth.Load()))
	gauge("lbp_serve_jobs_inflight", "Jobs currently running.", float64(m.inflight.Load()))
	counter("lbp_serve_pool_hits_total", "Warm-machine pool hits.", pool.Hits)
	counter("lbp_serve_pool_misses_total", "Warm-machine pool misses (fresh builds).", pool.Misses)
	counter("lbp_serve_pool_evictions_total", "Idle sessions evicted by the pool capacity bounds.", pool.Evictions)
	counter("lbp_serve_pool_reset_failures_total", "Warm machines dropped because their checkout Reset failed.", pool.ResetFailures)
	counter("lbp_serve_pool_discarded_total", "Checked-out sessions not returned to the pool (preempted by shutdown).", m.poolDiscarded.Load())
	gauge("lbp_serve_pool_idle", "Idle warm machines in the pool.", float64(idle))
	counter("lbp_serve_sim_cycles_total", "Simulated cycles across all jobs.", m.simCycles.Load())
	cps := 0.0
	if ns := m.runNanos.Load(); ns > 0 {
		cps = float64(m.simCycles.Load()) / (float64(ns) / 1e9)
	}
	gauge("lbp_serve_sim_cycles_per_second", "Lifetime simulated cycles per host second of run time.", cps)
	gauge("lbp_serve_last_job_sim_cycles_per_second", "Simulated cycles per host second of the most recently completed job.",
		math.Float64frombits(m.lastJobCPS.Load()))
	dh, dm, de := lbp.DecodeCacheStats()
	counter("lbp_serve_decode_cache_hits_total", "Program loads served by an already-decoded shared image.", dh)
	counter("lbp_serve_decode_cache_misses_total", "Program loads that decoded a fresh image.", dm)
	gauge("lbp_serve_decode_cache_entries", "Decoded program images currently cached.", float64(de))
}

// writeDispatchMetrics appends the coordinator's fleet counters
// (coordinator mode only).
func writeDispatchMetrics(w io.Writer, dm dispatch.Metrics) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("lbp_serve_dispatch_jobs_total", "Jobs admitted to the dispatcher.", dm.Dispatched)
	counter("lbp_serve_dispatch_completed_total", "Dispatched jobs answered with a worker result.", dm.Completed)
	counter("lbp_serve_dispatch_failed_total", "Dispatched jobs that exhausted their attempts or were abandoned.", dm.Failed)
	counter("lbp_serve_dispatch_retries_total", "Re-dispatches after a backend transport death.", dm.Retries)
	counter("lbp_serve_dispatch_migrations_total", "Retries that resumed from a streamed checkpoint.", dm.Migrations)
	counter("lbp_serve_dispatch_steals_total", "Jobs run by a non-affine backend to balance load.", dm.Steals)
	counter("lbp_serve_dispatch_checkpoints_total", "Migration checkpoints streamed by workers.", dm.Checkpoints)
	counter("lbp_serve_dispatch_worker_panics_total", "Jobs a worker answered with an error after containing a panic.", dm.Panics)
	fmt.Fprintf(w, "# HELP lbp_serve_dispatch_backends_up Backends with a live connection.\n"+
		"# TYPE lbp_serve_dispatch_backends_up gauge\nlbp_serve_dispatch_backends_up %d\n", dm.BackendsUp)
}
