package main

// The simulator workload, sim-dense: the Figure 20 matmul variants (16
// cores, every core busy) run in-process through sim.Session, one warm
// session per row per client, Reset between repeats.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/lbp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// rowPin is the pinned deterministic outcome of one row. Local counts
// own-shared-bank plus local-bank accesses, as in EXPERIMENTS.md.
type rowPin struct{ cycles, retired, remote, local, digest, events uint64 }

// simRow is one fixed program of a simulator workload.
type simRow struct {
	name    string
	cores   int
	src     string
	opt     cc.Options
	spec    sim.Spec // Program is compiled at set-up
	pin     rowPin
	variant workloads.MatmulVariant
}

// fig20Pins are the Figure 20 rows of EXPERIMENTS.md (cycles, retired,
// remote, local) with the digest and event count of the same runs.
var fig20Pins = map[workloads.MatmulVariant]rowPin{
	workloads.Base:        {199830, 1119448, 249600, 19016, 6455412373626596165, 2239086},
	workloads.Copy:        {104281, 1144280, 128640, 144072, 13920920162109532165, 2288750},
	workloads.Distributed: {105878, 1466008, 122880, 295752, 8851688296526481603, 2932206},
	workloads.DistCopy:    {107456, 1492120, 122880, 300104, 17961571863021247698, 2984430},
	workloads.Tiled:       {195200, 3020504, 25600, 835400, 8915185943094689792, 6041198},
}

// The Figure 20 machine: 16 cores, 64 harts.
const (
	matmulHarts    = 64
	matmulGeometry = "16c"
)

func denseRows(tiny bool) ([]*simRow, error) {
	var rows []*simRow
	for _, v := range workloads.Variants {
		if tiny && v != workloads.Copy {
			continue
		}
		src, err := workloads.MatmulSource(v, matmulHarts)
		if err != nil {
			return nil, err
		}
		// The options and machine of workloads.BuildMatmul and
		// workloads.MatmulConfig, spelled out so compile and assemble
		// can be timed separately.
		opt := cc.DefaultOptions()
		opt.Cores = matmulHarts / lbp.HartsPerCore
		opt.SharedBankBytes = workloads.SharedBankBytes(matmulHarts)
		opt.BankReserveBytes = 4 * 128
		mc := workloads.MatmulConfig(matmulHarts)
		name := "fig20-" + string(v)
		if v == workloads.DistCopy {
			name = "fig20-dc"
		}
		rows = append(rows, &simRow{
			name:  name,
			cores: opt.Cores,
			src:   src,
			opt:   opt,
			spec: sim.Spec{Config: &mc, MaxCycles: workloads.MaxMatmulCycles(matmulHarts),
				Trace: sim.TraceSpec{Digest: true}},
			pin:     fig20Pins[v],
			variant: v,
		})
	}
	return rows, nil
}

func runSimDense(cfg *runConfig) (*outcome, error) {
	rows, err := denseRows(cfg.tiny)
	if err != nil {
		return nil, err
	}
	return runSim(cfg, rows)
}

// simSetup is the warm state of a simulator run: one session per row
// per client.
type simSetup struct {
	sess [clients][]*sim.Session
}

// buildSim compiles every row and builds the warm sessions. Compile,
// assemble and sim.New times go to smp.
func buildSim(rows []*simRow, smp *samples, tr *tracer) (*simSetup, error) {
	for i, r := range rows {
		t0 := time.Now()
		asmText, err := cc.BuildProgram(r.src, r.opt)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", r.name, err)
		}
		prog, err := asm.Assemble(asmText, asm.Options{})
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: assemble: %w", r.name, err)
		}
		smp.add("cc.build_ms", ms(t1.Sub(t0)))
		smp.add("asm.assemble_ms", ms(t2.Sub(t1)))
		tr.add("cc.BuildProgram", i, 0, t0, t1)
		tr.add("asm.Assemble", i, 0, t1, t2)
		r.spec.Program = prog
	}
	st := &simSetup{}
	for c := range st.sess {
		for i, r := range rows {
			t0 := time.Now()
			s, err := sim.New(r.spec)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
			smp.add("sim.new_ms."+matmulGeometry, ms(t1.Sub(t0)))
			tr.add("sim.New", i, 0, t0, t1)
			// Warm-up: a short slice touches the step path once; the
			// first timed operation resets the machine anyway.
			if _, err := s.Advance(1000); err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", r.name, err)
			}
			st.sess[c] = append(st.sess[c], s)
		}
	}
	return st, nil
}

// simOp is one timed simulation: Reset of the warm machine, then Run.
type simOp struct {
	row        int
	client     int
	reset, run time.Duration
	res        *lbp.Result
}

// checkRow compares one finished run against the row's pins and the
// program's own output check.
func checkRow(r *simRow, s *sim.Session, res *lbp.Result, corrupt bool) error {
	want := r.pin
	if corrupt {
		want.digest ^= 1
	}
	rec := s.Recorder()
	got := rowPin{res.Stats.Cycles, res.Stats.Retired, res.Mem.SharedRemote,
		res.Mem.SharedLocal + res.Mem.LocalAccesses, rec.Digest(), rec.Count()}
	if got != want {
		return fmt.Errorf("%s: got %+v, pinned %+v", r.name, got, want)
	}
	if res.Halt == "" {
		return fmt.Errorf("%s: no halt reason", r.name)
	}
	return workloads.VerifyMatmul(s.Machine(), r.spec.Program, r.variant, matmulHarts)
}

// simPass runs whole seeded passes over the rows until the time is up,
// checking every run outside its timed interval. The clients run in
// lockstep: all of them run the same row at the same time, each on its
// own warm session, so every row always shares the host with the same
// co-runner and its time does not depend on the seeded order.
func simPass(cfg *runConfig, rows []*simRow, st *simSetup, seconds float64, salt int64,
	tr *tracer, out *outcome) []simOp {
	var (
		mu  sync.Mutex
		ops []simOp
		job int
	)
	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + salt))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for _, i := range rng.Perm(len(rows)) {
			var wg sync.WaitGroup
			for c := range st.sess {
				job++
				wg.Add(1)
				go func(c, job int) {
					defer wg.Done()
					r, s := rows[i], st.sess[c][i]
					t0 := time.Now()
					err := s.Reset(r.spec.Program)
					t1 := time.Now()
					var res *lbp.Result
					if err == nil {
						res, err = s.Run()
					}
					t2 := time.Now()
					if tr != nil {
						id := tr.add("op", job, 0, t0, t2)
						tr.add("sim.Reset", job, id, t0, t1)
						tr.add("lbp.Run", job, id, t1, t2)
					}
					if err == nil {
						err = checkRow(r, s, res, cfg.corrupt)
					}
					mu.Lock()
					defer mu.Unlock()
					out.attempted++
					if err != nil {
						out.fail(cfg, "%v", err)
						return
					}
					ops = append(ops, simOp{row: i, client: c, reset: t1.Sub(t0), run: t2.Sub(t1), res: res})
				}(c, int(salt)*1_000_000+job)
			}
			wg.Wait()
		}
	}
	return ops
}

// simEndToEnd turns one pass into the end-to-end metrics. Every row is
// equally frequent and deterministic, so each row is represented by its
// median time, and one slow repeat (host noise) moves nothing:
// throughput is one pass over the rows at the per-row medians, and the
// latency percentiles are taken over the per-row median times.
func simEndToEnd(rows []*simRow, ops []simOp) map[string]float64 {
	run := make([][]float64, len(rows))
	op := make([][]float64, len(rows))
	for _, o := range ops {
		run[o.row] = append(run[o.row], o.run.Seconds())
		op[o.row] = append(op[o.row], (o.reset + o.run).Seconds())
	}
	var cycles, runSec, opSec float64
	var lat []float64
	for i, r := range rows {
		if len(run[i]) == 0 {
			continue
		}
		cycles += float64(r.pin.cycles)
		runSec += median(run[i])
		opSec += median(op[i])
		lat = append(lat, 1000*median(op[i]))
	}
	return map[string]float64{
		"sim_cycles_per_s": ratio(cycles, runSec),
		"job_p50_ms":       median(lat),
		"job_p99_ms":       quantile(lat, 0.99),
		"jobs_per_s":       ratio(float64(clients*len(lat)), opSec),
	}
}

// runSim runs one simulator workload. Untraced: set-up, then one timed
// pass. Traced: set-up with and without spans, an untraced and a traced
// half-length pass, then per-row probes with the digest off and with
// profiling on.
func runSim(cfg *runConfig, rows []*simRow) (*outcome, error) {
	out := newOutcome()
	smp := newSamples()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var st *simSetup
	var setups, tracedSetups []float64
	for i := 0; i < setupRepeats+boolInt(cfg.trace); i++ {
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		st = nil // the previous set-up is garbage before the next one starts
		settle()
		t0 := time.Now()
		s, err := buildSim(rows, smp, t)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		if t != nil {
			tracedSetups = append(tracedSetups, d)
		} else {
			setups = append(setups, d)
		}
		st = s
	}
	fmt.Fprintf(cfg.log, "rows %d, setup samples %v s\n", len(rows), setups)
	untracedSeconds := cfg.seconds
	if cfg.trace {
		untracedSeconds = cfg.seconds / 2
	}
	ops := simPass(cfg, rows, st, untracedSeconds, 0, nil, out)
	e2e := simEndToEnd(rows, ops)
	e2e["setup_s"] = median(setups)
	e2e["peak_rss_mb"] = peakRSSMiB()
	printSimOps(cfg, "timed", rows, ops)
	if !cfg.trace {
		for k, v := range e2e {
			out.metrics[k] = v
		}
		return out, nil
	}

	dh0, dm0, _ := lbp.DecodeCacheStats()
	tops := simPass(cfg, rows, st, cfg.seconds/2, 1, tr, out)
	dh1, dm1, _ := lbp.DecodeCacheStats()
	traced := simEndToEnd(rows, tops)
	traced["setup_s"] = median(tracedSetups)
	traced["peak_rss_mb"] = peakRSSMiB()
	printSimOps(cfg, "traced", rows, tops)
	putOverhead(out, e2e, traced)
	out.metrics["lbp.decode_cache_hit_ratio"] = ratio(float64(dh1-dh0), float64(dh1-dh0+dm1-dm0))

	// Per-row host cost from the traced pass.
	var allNs, allCycles float64
	for i, r := range rows {
		var ns, cyc, ret float64
		for _, op := range tops {
			if op.row == i {
				ns += float64(op.run)
				cyc += float64(op.res.Stats.Cycles)
				ret += float64(op.res.Stats.Retired)
				smp.add("sim.reset_ms."+matmulGeometry, ms(op.reset))
			}
		}
		allNs += ns
		allCycles += cyc
		out.metrics["lbp.ns_per_cycle."+r.name] = ratio(ns, cyc)
		out.metrics["lbp.ns_per_core_cycle."+r.name] = ratio(ns, cyc*float64(r.cores))
		out.metrics["lbp.ns_per_retired."+r.name] = ratio(ns, ret)
	}
	out.metrics["lbp.ns_per_cycle.mix"] = ratio(allNs, allCycles)

	// Observer probes, one sequential run of each row per setting:
	// digest on (the workload's own setting), digest off, profile on.
	var onNs, offNs, profNs, events float64
	for i, r := range rows {
		base, err := probeRun(r, r.spec, tr, i, "lbp.Run.digest")
		if err != nil {
			return nil, err
		}
		off := r.spec
		off.Trace = sim.TraceSpec{}
		noDigest, err := probeRun(r, off, tr, i, "lbp.Run.nodigest")
		if err != nil {
			return nil, err
		}
		prof := r.spec
		prof.Profile = true
		withProf, err := probeRun(r, prof, tr, i, "lbp.Run.profile")
		if err != nil {
			return nil, err
		}
		onNs += float64(base)
		offNs += float64(noDigest)
		profNs += float64(withProf)
		events += float64(r.pin.events)
	}
	out.metrics["trace.digest_ns_per_event"] = ratio(onNs-offNs, events)
	out.metrics["perf.profile_overhead_ratio"] = ratio(profNs, onNs)
	for _, g := range geometries {
		if v := smp.get("sim.new_ms." + g); len(v) > 0 {
			out.metrics["sim.new_ms."+g] = median(v)
		}
		if v := smp.get("sim.reset_ms." + g); len(v) > 0 {
			out.metrics["sim.reset_ms."+g] = median(v)
		}
	}
	out.metrics["cc.build_ms.p50"] = median(smp.get("cc.build_ms"))
	out.metrics["cc.build_ms.p99"] = quantile(smp.get("cc.build_ms"), 0.99)
	out.metrics["asm.assemble_ms.p50"] = median(smp.get("asm.assemble_ms"))
	spans := tr.all()
	out.metrics["trace.spans"] = float64(len(spans))
	return out, writeSpans(cfg, spans)
}

// freshRun builds a fresh session for spec and times one Run, each in
// its own span. Every observer probe of both workloads runs this way,
// so digest-on, digest-off and profile runs are timed alike.
func freshRun(spec sim.Spec, tr *tracer, job int, name string) (*sim.Session, *lbp.Result, time.Duration, time.Duration, error) {
	t0 := time.Now()
	s, err := sim.New(spec)
	t1 := time.Now()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	tr.add("sim.New", job, 0, t0, t1)
	res, err := s.Run()
	t2 := time.Now()
	tr.add(name, job, 0, t1, t2)
	return s, res, t1.Sub(t0), t2.Sub(t1), err
}

// probeRun times one fresh run of a row under spec and checks it
// against the row's pins (the digest when spec has one).
func probeRun(r *simRow, spec sim.Spec, tr *tracer, job int, name string) (time.Duration, error) {
	s, res, _, run, err := freshRun(spec, tr, job, name)
	if err != nil {
		return 0, fmt.Errorf("%s: %s: %w", r.name, name, err)
	}
	if res.Stats.Cycles != r.pin.cycles {
		return 0, fmt.Errorf("%s: %s: %d cycles, pinned %d", r.name, name, res.Stats.Cycles, r.pin.cycles)
	}
	if spec.Trace.Digest && s.Recorder().Digest() != r.pin.digest {
		return 0, fmt.Errorf("%s: %s: digest %#x, pinned %#x", r.name, name, s.Recorder().Digest(), r.pin.digest)
	}
	return run, nil
}

// printSimOps reports each row's sample count and run times.
func printSimOps(cfg *runConfig, label string, rows []*simRow, ops []simOp) {
	fmt.Fprintf(cfg.log, "%s pass: %d simulations\n", label, len(ops))
	for i, r := range rows {
		var run []float64
		for _, op := range ops {
			if op.row == i {
				run = append(run, ms(op.run))
			}
		}
		fmt.Fprintf(cfg.log, "  %-18s n %3d  run ms min %9.2f median %9.2f max %9.2f\n",
			r.name, len(run), quantile(run, 0), median(run), quantile(run, 1))
	}
}
