package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/lbp"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// WorkerConfig parameterizes a Worker; the zero value of every field
// selects a sensible default.
type WorkerConfig struct {
	// Slice is the Advance granularity between cancellation checks and
	// checkpoint streams, in simulated cycles (0 = 1M). Results never
	// depend on it.
	Slice uint64

	// PoolPerKey/PoolTotal bound the warm-machine pool
	// (0 = sim defaults).
	PoolPerKey int
	PoolTotal  int
}

func (c *WorkerConfig) normalize() {
	if c.Slice == 0 {
		c.Slice = 1 << 20
	}
}

// Sentinel errors classifying why a worker run stopped early.
var (
	errCanceled = errors.New("job canceled by the coordinator")
	errDeadline = errors.New("attempt deadline elapsed")
)

// WorkerMetrics is a snapshot of one worker's lifetime counters. The
// machine-accounting invariant every path must preserve:
//
//	checkedOut == poolReturned + poolDiscarded + machinesOut
//
// with machinesOut dropping to zero once no job is running — a warm
// machine is never leaked, whatever killed its job (cancel, deadline,
// fault, coordinator connection death mid-run).
type WorkerMetrics struct {
	Completed uint64 // StatusOK results
	Canceled  uint64
	Deadline  uint64
	Errored   uint64 // machine fault or budget exceeded
	Panics    uint64 // jobs that panicked inside the worker (answered StatusError)
	Resumed   uint64 // jobs that started from a migrated checkpoint

	CheckedOut    uint64 // machines obtained (pool checkout or checkpoint restore)
	PoolReturned  uint64 // machines handed back to the warm pool
	PoolDiscarded uint64 // machines that cannot be pooled (restored from a checkpoint, or held by a panicked job)
	MachinesOut   int64  // machines currently held by running jobs

	CheckpointsStreamed uint64
}

// Worker executes dispatched jobs on a local warm sim.Pool: the
// backend half of distributed lbp-serve. Start it with Serve on a TCP
// listener; the coordinator connects over internal/rpc.
type Worker struct {
	cfg  WorkerConfig
	pool sim.Pool
	srv  *rpc.Server

	mu      sync.Mutex
	running map[string]context.CancelFunc

	// beforeRun, when set (by tests, before Serve), is called with
	// every job once its machine is checked out.
	beforeRun func(*Job)

	completed  atomic.Uint64
	canceled   atomic.Uint64
	deadline   atomic.Uint64
	errored    atomic.Uint64
	panics     atomic.Uint64
	resumed    atomic.Uint64
	checkedOut atomic.Uint64
	returned   atomic.Uint64
	discarded  atomic.Uint64
	out        atomic.Int64
	streamed   atomic.Uint64
}

// NewWorker builds a worker; start it with Serve.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.normalize()
	w := &Worker{cfg: cfg, running: make(map[string]context.CancelFunc)}
	w.pool.SetCapacity(cfg.PoolPerKey, cfg.PoolTotal)
	w.srv = rpc.NewServer(w)
	return w
}

// Serve accepts coordinator connections on l until Close.
func (w *Worker) Serve(l net.Listener) error { return w.srv.Serve(l) }

// Close stops the worker: the listener closes, live connections sever,
// and every running job's context cancels (its machine flows back
// through the usual accounting).
func (w *Worker) Close() error { return w.srv.Close() }

// Metrics returns a snapshot of the worker counters.
func (w *Worker) Metrics() WorkerMetrics {
	return WorkerMetrics{
		Completed:           w.completed.Load(),
		Canceled:            w.canceled.Load(),
		Deadline:            w.deadline.Load(),
		Errored:             w.errored.Load(),
		Panics:              w.panics.Load(),
		Resumed:             w.resumed.Load(),
		CheckedOut:          w.checkedOut.Load(),
		PoolReturned:        w.returned.Load(),
		PoolDiscarded:       w.discarded.Load(),
		MachinesOut:         w.out.Load(),
		CheckpointsStreamed: w.streamed.Load(),
	}
}

// PoolStats exposes the warm-pool counters (tests and /metrics).
func (w *Worker) PoolStats() sim.PoolStats { return w.pool.Stats() }

// ServeRPC dispatches one protocol method. MethodRun runs in the
// per-request goroutine internal/rpc already provides, so a long job
// never blocks a ping on the same connection.
func (w *Worker) ServeRPC(ctx context.Context, conn *rpc.ServerConn, method string, params json.RawMessage) (any, error) {
	switch method {
	case MethodRun:
		var job Job
		if err := json.Unmarshal(params, &job); err != nil {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: err.Error()}
		}
		return w.run(ctx, conn, &job)
	case MethodCancel:
		var note CancelNote
		if err := json.Unmarshal(params, &note); err != nil {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: err.Error()}
		}
		w.cancel(note.ID)
		return nil, nil
	case MethodPing:
		return &WorkerStats{
			Inflight: func() int64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				return int64(len(w.running))
			}(),
			Completed: w.completed.Load() + w.canceled.Load() +
				w.deadline.Load() + w.errored.Load() + w.panics.Load(),
			MachinesOut: w.out.Load(),
		}, nil
	}
	return nil, &rpc.Error{Code: rpc.CodeMethodNotFound, Message: method}
}

// cancel stops the named job at its next slice boundary; canceling an
// unknown (already finished) job is a no-op.
func (w *Worker) cancel(id string) {
	w.mu.Lock()
	stop := w.running[id]
	w.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// register installs a job's cancel hook; the returned func removes it.
func (w *Worker) register(id string, stop context.CancelFunc) func() {
	w.mu.Lock()
	w.running[id] = stop
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		delete(w.running, id)
		w.mu.Unlock()
	}
}

// checkout obtains the machine for a job: a warm pool session for a
// fresh run, a restored one for a migrated checkpoint.
func (w *Worker) checkout(job *Job) (sess *sim.Session, warm, resumed bool, err error) {
	if len(job.Checkpoint) > 0 {
		sess, err = sim.Resume(job.Checkpoint, sim.ResumeSpec{MaxCycles: job.MaxCycles})
		if err != nil {
			return nil, false, false, &rpc.Error{Code: rpc.CodeInvalidParams,
				Message: fmt.Sprintf("restoring checkpoint: %v", err)}
		}
		w.resumed.Add(1)
		return sess, false, true, nil
	}
	prog, err := asm.ReadImage(bytes.NewReader(job.Image))
	if err != nil {
		return nil, false, false, &rpc.Error{Code: rpc.CodeInvalidParams,
			Message: fmt.Sprintf("decoding program image: %v", err)}
	}
	sess, warm, err = w.pool.GetWarm(sim.Spec{
		Program:         prog,
		Cores:           job.Cores,
		SharedBankBytes: job.BankBytes,
		MaxCycles:       job.MaxCycles,
		Trace:           sim.TraceSpec{Digest: job.Digest, Ring: job.Ring},
		Profile:         job.Profile,
	})
	if err != nil {
		return nil, false, false, &rpc.Error{Code: rpc.CodeInvalidParams, Message: err.Error()}
	}
	return sess, warm, false, nil
}

// release accounts one job's machine back in: pooled sessions return
// to the warm pool; checkpoint-restored ones cannot be pooled (their
// Spec has no program to reset to) and ones a panic left in an unknown
// state must not be, so both are discarded — but always through exactly
// one of the two counters, so machines never leak.
func (w *Worker) release(sess *sim.Session, discard bool) {
	if discard {
		w.discarded.Add(1)
	} else {
		w.pool.Put(sess)
		w.returned.Add(1)
	}
	w.out.Add(-1)
}

// run executes one job. Every exit path — clean finish, fault, budget,
// deadline, coordinator cancel, connection death, a panic — releases
// the machine through the same accounting. A panic is contained to its
// job: it answers StatusError instead of killing the worker process.
func (w *Worker) run(ctx context.Context, conn *rpc.ServerConn, job *Job) (out *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			w.panics.Add(1)
			out, err = &Result{Status: StatusError, Panicked: true,
				Error: fmt.Sprintf("internal error: job panicked: %v", p)}, nil
		}
	}()
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	unregister := w.register(job.ID, stop)
	defer unregister()

	sess, warm, resumed, err := w.checkout(job)
	if err != nil {
		return nil, err
	}
	w.checkedOut.Add(1)
	w.out.Add(1)
	finished := false
	defer func() { w.release(sess, resumed || !finished) }()
	if w.beforeRun != nil {
		w.beforeRun(job)
	}

	deadlineCtx := runCtx
	if job.DeadlineMs > 0 {
		var cancel context.CancelFunc
		deadlineCtx, cancel = context.WithTimeout(runCtx,
			time.Duration(job.DeadlineMs)*time.Millisecond)
		defer cancel()
	}

	lastStream := sess.Machine().Cycle()
	res, err := sess.RunSliced(w.cfg.Slice, func(cycle uint64) error {
		select {
		case <-deadlineCtx.Done():
			if runCtx.Err() == nil && errors.Is(deadlineCtx.Err(), context.DeadlineExceeded) {
				return errDeadline
			}
			return errCanceled
		default:
		}
		if job.CheckpointEvery > 0 && cycle-lastStream >= job.CheckpointEvery {
			lastStream = cycle
			// The machine is paused at a cycle boundary: serialization
			// is pure observation. A failed stream is only a lost
			// migration point, never a failed job.
			if cp, err := sess.Checkpoint(); err == nil {
				if conn.Notify(MethodCheckpoint, &CheckpointNote{ID: job.ID, Cycle: cycle, State: cp}) == nil {
					w.streamed.Add(1)
				}
			}
		}
		return nil
	})

	out = &Result{PoolWarm: warm, Resumed: resumed}
	switch {
	case err == nil:
		w.completed.Add(1)
		out.Status = StatusOK
		fillResult(out, sess, res, job.Ring)
	case errors.Is(err, errCanceled):
		w.canceled.Add(1)
		out.Status = StatusCanceled
		out.Error = fmt.Sprintf("canceled at cycle %d", sess.Machine().Cycle())
	case errors.Is(err, errDeadline):
		w.deadline.Add(1)
		out.Status = StatusDeadline
		out.Error = fmt.Sprintf("deadline %dms elapsed at cycle %d", job.DeadlineMs, sess.Machine().Cycle())
	default:
		// The machine itself stopped: a deterministic fault or the
		// simulated-cycle budget. The worker is healthy; the run is not.
		w.errored.Add(1)
		out.Status = StatusError
		out.Error = err.Error()
	}
	finished = true
	return out, nil
}

// fillResult copies the deterministic outcome of a finished run.
func fillResult(out *Result, sess *sim.Session, res *lbp.Result, ring int) {
	out.Halt = res.Halt
	out.Cycles = res.Stats.Cycles
	out.Retired = res.Stats.Retired
	out.IPC = res.Stats.IPC()
	memStats := res.Mem
	out.Mem = &memStats
	if rec := sess.Recorder(); rec != nil {
		out.Digest = rec.Digest()
		out.Events = rec.Count()
		for _, e := range rec.Last(ring) {
			out.Tail = append(out.Tail, e.String())
		}
	}
	out.Perf = sess.PerfSnapshot()
}
