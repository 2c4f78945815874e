//! A persistent, **multi-tenant** work-stealing worker pool: the one
//! multi-threaded executor.
//!
//! A long-lived service keeps one pool warm; a one-shot batch count
//! ([`super::parallel::count_parallel`]) builds a pool for its one job and
//! drops it. Spawning and joining an idle 2-worker pool costs 50–100 µs
//! (median of 2,000 cycles on a 2-vCPU Xeon guest: ~50 µs pinned to one
//! CPU, ~80–100 µs unpinned), and every spawn allocates the per-worker
//! search scratch, so at fine task granularity a warm pool is what keeps
//! both off the serving path. The pool (unlike its first incarnation, which
//! serialized every job on a submit lock) runs **several jobs
//! concurrently**:
//!
//! * **Workers are spawned once** and live as long as the pool, keeping
//!   their Chase–Lev deque and `SearchBuffers` alive across jobs, so the
//!   warm path performs zero thread spawns and zero steady-state
//!   allocation.
//! * **Jobs occupy slots.** The pool owns a fixed table of
//!   [`max_in_flight`](WorkerPool::max_in_flight) job slots. Each slot has
//!   its **own injector lane**, and every queued task is **tagged** with its
//!   slot index, so one worker can drain tasks from several active jobs
//!   without ever mixing their results: the per-task kernel
//!   (`parallel::run_one_task`, shared with the calling-thread executor
//!   `run_on_caller` — which is what keeps a job's result the same whichever
//!   threads ran its tasks) folds each task into the owning slot's job,
//!   whatever its kind. Counting is one job kind among four; every kind
//!   enters through the same submission routine (`WorkerPool::run_job`).
//! * **Completion is accounting, not thread handshakes.** Each slot counts
//!   its published-but-unfinished tasks (`pending`); a job is complete when
//!   its producer has finished streaming and `pending` returns to zero.
//!   Workers never "join" a job, so a worker that sleeps through a small
//!   job costs it nothing.
//! * **Backpressure**: submitting more than `max_in_flight` concurrent jobs
//!   blocks the extra submitters until a slot frees up, bounding queue
//!   memory and scheduling overhead instead of accepting unbounded fan-in.
//! * **Panic isolation per job.** Workers run every task under
//!   `catch_unwind`: a poisoned plan marks *its own* slot panicked (the
//!   submitter re-raises after the job completes) while tasks of
//!   concurrent jobs keep executing normally and the worker thread itself
//!   survives for the next job.
//!
//! Small queries do not reach the pool at all: `Session::run` keeps a plan
//! the §IV-C model prices below one hand-off ([`parallel::HANDOFF_COST`])
//! on the calling thread, with no slot, no queue and no wake. What arrives
//! here is at least a hand-off's worth of work, and two properties keep
//! the handshake from eating the *mid-size* jobs among it:
//!
//! * **Lazy wakeups** — posting a job wakes nobody by itself; the submitter
//!   issues one `notify_one` per pushed batch *once more than a full batch
//!   of backlog is sitting unclaimed in its lane*, so a job the submitter
//!   can chew alone pays zero context switches while a large job's
//!   backlog ramps up the pool batch by batch. A worker that finds no task
//!   anywhere parks on the wakeup condvar until backlog reappears. It does
//!   not nap and poll first: with tasks around a microsecond a job is over
//!   before a poller's patience is, and on a core shared with other
//!   runnable threads the pollers cost those threads more than they save
//!   the next job (perf ledger, one pinned CPU: `mixed_rw` write p50 −33 %,
//!   `serve_warm` and `plan_churn` −15–20 % without them; a job that does
//!   wake a parked worker pays ~10 µs for the futex instead).
//! * **Caller-runs master helping** — after streaming, the submitting
//!   thread drains its own job's lane itself (with the slot's persistent
//!   scratch). Mid-size jobs often complete entirely on the caller; job
//!   completion waits only for tasks some worker actually picked up.
//!
//! # Safety model
//!
//! A slot publishes **one** type-erased pointer: to a `JobRecord`
//! (`{plan, ctx, job}`) that lives on the submitter's stack frame and
//! borrows the plan, the graph / hub index and the job state from the
//! submitter's callers. Its validity is guaranteed by the accounting
//! protocol: a worker only dereferences it while it holds a popped,
//! not-yet-accounted task of that job, `pending` is incremented before a
//! task is published and decremented only after the worker is done touching
//! the job, and the submitter does not return (or unwind, see `JobGuard`)
//! past the record until `pending` reaches zero with streaming finished.
//! A slot cannot be reused for a new job before that point, so a task's tag
//! always resolves to the job that created it. The happens-before edges
//! come from the injector (mutex-backed in the vendored `crossbeam`), the
//! Chase–Lev release/acquire pair on sibling steals, and the acquire/release
//! discipline on `pending`.
//!
//! The lane's scheduling **priority is not read through the record**. It is
//! a plain slot field written at install, because `next_task` consults it
//! for every lane while holding no task of any of them — at which point a
//! lane's last job may have completed and its record may be gone. A stale
//! priority only misorders one scan; a stale record pointer would be a
//! dangling read.

use crate::config::{ExecutionPlan, MAX_LOOPS};
use crate::exec::interp::{self, ExecCtx, SearchBuffers};
use crate::exec::parallel::{self, ExecPath, ParallelOptions, PrefixTask};
use crate::exec::sink::Job;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work: a prefix task tagged with the slot index of the
/// job it belongs to. Tags are what let one worker serve several concurrent
/// jobs without mixing their counts.
#[derive(Clone, Copy)]
struct TaggedTask {
    slot: u32,
    task: PrefixTask,
}

/// Everything a worker needs to run a task of one job, built on the
/// submitter's stack and published through [`JobSlot::record`].
#[derive(Clone, Copy)]
struct JobRecord<'a> {
    plan: &'a ExecutionPlan,
    ctx: ExecCtx<'a>,
    job: &'a Job,
}

/// One job slot: a lane of the multi-tenant scheduler, owned by exactly one
/// submitter at a time (enforced by the free-list in [`State`]).
struct JobSlot {
    /// The current job's [`JobRecord`], a type-erased reference into the
    /// owning submitter's stack; see the module-level safety model for why
    /// reading it while holding an unaccounted task of this slot is sound.
    /// Atomic only to give the slot a safe `Sync` story — every access is
    /// `Relaxed`, ordered by the queue transfer that delivered the task.
    record: AtomicPtr<JobRecord<'static>>,
    /// Scheduling priority of the current job: `true` for interactive
    /// counts, `false` for the sink modes (paged enumeration, orbit
    /// profiles, samples), which workers only pull from once every
    /// high-priority lane is dry — the 2-level priority that keeps a huge
    /// enumeration from starving small counts. A slot field rather than
    /// part of the record: see the safety model.
    high_priority: AtomicBool,
    /// This job's task lane. Pool-owned (not on the submitter's stack), so
    /// workers may probe any slot's lane at any time; a free slot's lane is
    /// simply empty.
    injector: Injector<TaggedTask>,
    /// Tasks published but not yet fully processed. Incremented by the
    /// submitter *before* publishing, decremented by whoever finishes (or
    /// discards) a task. `producer_done && pending == 0` is job completion.
    pending: AtomicU64,
    /// No more tasks will be published to this job.
    producer_done: AtomicBool,
    /// Raw embedding total (pre-IEP-correction) of the current job.
    total: AtomicU64,
    /// A task of this job panicked; the submitter re-raises on completion.
    /// Concurrent jobs are unaffected.
    panicked: AtomicBool,
    /// Completion handshake: the submitter waits here for `pending == 0`;
    /// the worker that retires the last task notifies.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// The persistent master-side scratch of this lane, used by the
    /// slot-owning submitter for caller-runs helping: repeated queries
    /// allocate nothing, same as the workers.
    scratch: Mutex<MasterScratch>,
}

impl JobSlot {
    fn new() -> Self {
        Self {
            record: AtomicPtr::new(std::ptr::null_mut()),
            high_priority: AtomicBool::new(true),
            injector: Injector::new(),
            pending: AtomicU64::new(0),
            producer_done: AtomicBool::new(false),
            total: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            scratch: Mutex::new(MasterScratch {
                buffers: SearchBuffers::new(MAX_LOOPS),
                deque: Worker::new_lifo(),
            }),
        }
    }

    /// Locks this slot's master scratch, recovering from poisoning (the
    /// scratch buffers are (re)cleared at every use, so a previous query's
    /// panic must not brick the lane).
    fn lock_scratch(&self) -> std::sync::MutexGuard<'_, MasterScratch> {
        self.scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Accounts one finished/discarded task; wakes the submitter when this
    /// was the last one of a fully streamed job. The `Release` in the
    /// `fetch_sub` is what publishes the worker's reads of the job record
    /// (and its `total` contribution) to the submitter's `Acquire` load.
    fn account_task(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1
            && self.producer_done.load(Ordering::Acquire)
        {
            let _done = self
                .done_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.done_cv.notify_all();
        }
    }
}

/// The persistent scratch of one lane's master (submitting) side.
struct MasterScratch {
    buffers: SearchBuffers,
    /// The master's own deque for batched lane drains (one injector lock
    /// per [`crossbeam::deque::BATCH`] tasks instead of one per task). Not
    /// registered with the worker stealers: the master only ever holds one
    /// stolen batch at a time, so the imbalance is bounded by it.
    deque: Worker<TaggedTask>,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<State>,
    /// Signaled (one waiter per pushed batch with backlog) when job work
    /// may be available, and broadcast on shutdown.
    job_ready: Condvar,
    /// Signaled when a job slot frees up — the backpressure queue blocked
    /// submitters wait on.
    slot_free: Condvar,
    /// Set (then broadcast) when the pool is dropped.
    shutdown: AtomicBool,
    /// The fixed job-slot table (`max_in_flight` lanes).
    slots: Box<[JobSlot]>,
}

struct State {
    /// Indices of slots not currently owned by a job (jobs in flight =
    /// total slots minus this list's length).
    free_slots: Vec<u32>,
}

/// Locks the pool state, recovering from poisoning: every critical section
/// re-establishes the state invariants before unlocking, so a panic while
/// holding the lock leaves consistent data behind and the pool stays
/// usable after a failed query.
fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent pool of work-stealing workers serving multiple concurrent
/// jobs (see the module docs).
///
/// Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("max_in_flight", &self.shared.slots.len())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (0 = all available cores) and
    /// the automatic in-flight job limit (see
    /// [`WorkerPool::with_max_in_flight`]). The workers are created parked
    /// and consume no CPU until a job arrives.
    pub fn new(threads: usize) -> Self {
        Self::with_max_in_flight(threads, 0)
    }

    /// Spawns a pool with `threads` workers (0 = all available cores) and
    /// room for `max_in_flight` concurrent jobs (0 = automatic:
    /// `max(threads, 2)`). Submitters beyond the limit block until a slot
    /// frees up — that blocking *is* the pool's backpressure.
    pub fn with_max_in_flight(threads: usize, max_in_flight: usize) -> Self {
        let threads = parallel::resolve_threads(threads);
        let max_in_flight = if max_in_flight > 0 {
            max_in_flight
        } else {
            threads.max(2)
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                free_slots: (0..max_in_flight as u32).collect(),
            }),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            shutdown: AtomicBool::new(false),
            slots: (0..max_in_flight).map(|_| JobSlot::new()).collect(),
        });

        let deques: Vec<Worker<TaggedTask>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Arc<Vec<Stealer<TaggedTask>>> =
            Arc::new(deques.iter().map(Worker::stealer).collect());

        let mut handles = Vec::with_capacity(threads);
        for (me, deque) in deques.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let stealers = Arc::clone(&stealers);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("graphpi-pool-{me}"))
                    .spawn(move || worker_thread(&shared, me, &deque, &stealers))
                    .expect("spawn pool worker"),
            );
        }

        Self {
            shared,
            threads,
            handles,
        }
    }

    /// Number of persistent workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maximum number of jobs the pool keeps in flight simultaneously;
    /// extra submitters block until a slot frees.
    pub fn max_in_flight(&self) -> usize {
        self.shared.slots.len()
    }

    /// Number of jobs currently in flight (owned slots).
    pub fn in_flight(&self) -> usize {
        self.shared.slots.len() - lock_state(&self.shared).free_slots.len()
    }

    /// Number of pool worker threads still alive. Always equals
    /// [`WorkerPool::threads`] — workers survive panicking jobs — and is
    /// exposed so tests can prove exactly that.
    pub fn live_workers(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
    }

    /// Counts embeddings on the pool over a `&CsrGraph`, or a `(&CsrGraph,
    /// &HubGraph)` pair for hub-accelerated execution. `options.threads` is
    /// ignored — the pool size is fixed at construction.
    ///
    /// This is the warm serving path: no thread is spawned and no
    /// steady-state allocation is performed by the workers or the master.
    /// Safe to call from any number of threads concurrently — up to
    /// [`WorkerPool::max_in_flight`] jobs run simultaneously, later
    /// submitters block until a slot frees.
    pub fn count<'a>(
        &self,
        plan: &ExecutionPlan,
        ctx: impl Into<ExecCtx<'a>>,
        options: &ParallelOptions,
    ) -> u64 {
        self.run_job(plan, ctx.into(), options, &Job::count(plan, options.mode))
    }

    /// Runs one job of any kind on the pool — the single submission
    /// routine: install the slot, stream prefix tasks into its lane, help
    /// drain it (caller-runs), wait for worker-held tasks, re-raise a task
    /// panic. Every task folds into `job` through
    /// [`parallel::run_one_task`]; the return value is a count job's
    /// embedding count and zero for the sink modes, whose results are in
    /// `job`. Counts run at high scheduling priority, sink modes at low:
    /// workers only pull from their lanes when every count lane is dry.
    ///
    /// Sink-mode jobs need a plan compiled with IEP disabled
    /// ([`crate::engine::PlanOptions::enable_iep`] = false): sinks observe
    /// individual embeddings, which IEP never materialises.
    pub(crate) fn run_job(
        &self,
        plan: &ExecutionPlan,
        ctx: ExecCtx<'_>,
        options: &ParallelOptions,
        job: &Job,
    ) -> u64 {
        let (depth, batch_size) = match parallel::resolve_path(plan, options, job) {
            // Degenerate paths run entirely on the calling thread: no slot,
            // no queue, naturally concurrent.
            ExecPath::Empty => return 0,
            ExecPath::MasterOnly { depth } => {
                return parallel::run_on_caller(plan, ctx, depth, job)
            }
            ExecPath::Tasks { depth, batch_size } => (depth, batch_size),
        };

        let slot_idx = self.acquire_slot();
        let shared = &*self.shared;
        let slot = &shared.slots[slot_idx];

        // Install the job. We own the slot exclusively and the previous
        // job's completion protocol left the lane drained, so plain stores
        // are enough: the injector push below publishes everything.
        debug_assert_eq!(slot.pending.load(Ordering::Relaxed), 0);
        let record = JobRecord { plan, ctx, job };
        slot.total.store(0, Ordering::Relaxed);
        slot.producer_done.store(false, Ordering::Relaxed);
        slot.panicked.store(false, Ordering::Relaxed);
        slot.record.store(
            &record as *const JobRecord<'_> as *mut JobRecord<'static>,
            Ordering::Relaxed,
        );
        slot.high_priority
            .store(matches!(job, Job::Count { .. }), Ordering::Relaxed);

        // Completion guard *before* the scratch lock: on unwind the scratch
        // guard drops (and unlocks) first, so `JobGuard::drop` can relock it
        // to drain the master deque.
        let guard = JobGuard { shared, slot_idx };
        let mut scratch_guard = slot.lock_scratch();
        let scratch = &mut *scratch_guard;
        debug_assert!(scratch.deque.is_empty());

        // Stream depth-`depth` prefixes into the lane a batch at a time:
        // workers overlap with enumeration and the lane holds a window.
        let tag = slot_idx as u32;
        let mut batch = Vec::with_capacity(batch_size);
        let publish = |batch: &mut Vec<TaggedTask>| {
            // Once an enumeration's budget is fully claimed every further
            // task would early-return anyway; stop feeding the queue and
            // let the in-flight tail drain.
            if job.enumeration_full() {
                batch.clear();
                return;
            }
            // Account before publishing so `pending` can never be observed
            // at zero while tasks sit in the lane.
            slot.pending
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            slot.injector.push_batch(batch.drain(..));
            // Backlog-driven ramp-up: wake one dormant worker per pushed
            // batch, but only once more than a full batch is sitting
            // unclaimed — a job small enough for this thread alone never
            // pays a single context switch, while a large job's backlog
            // wakes the pool batch by batch. The empty critical section
            // closes the check-to-wait window of a worker about to park.
            if slot.injector.len() > batch_size {
                drop(lock_state(shared));
                shared.job_ready.notify_one();
            }
        };
        interp::for_each_prefix(plan, ctx, depth, |prefix| {
            batch.push(TaggedTask {
                slot: tag,
                task: PrefixTask::from_slice(prefix),
            });
            if batch.len() == batch_size {
                publish(&mut batch);
            }
        });
        if !batch.is_empty() {
            publish(&mut batch);
        }
        slot.producer_done.store(true, Ordering::Release);

        // Master helping (caller-runs): drain this job's own lane with the
        // lane's persistent scratch. Master-popped tasks are accounted at
        // pop — the record lives on this very stack frame, so only
        // *worker*-held tasks need the completion accounting — which makes
        // a panic below leave no unaccounted in-hand task behind.
        let mut local = 0u64;
        loop {
            let tagged = match scratch.deque.pop() {
                Some(task) => task,
                None => match slot.injector.steal_batch_and_pop(&scratch.deque) {
                    Steal::Success(task) => task,
                    Steal::Empty => break,
                    Steal::Retry => continue,
                },
            };
            slot.pending.fetch_sub(1, Ordering::Relaxed);
            if slot.panicked.load(Ordering::Relaxed) {
                // A worker already poisoned this job: discard instead of
                // burning time on a result that will be thrown away.
                continue;
            }
            local += parallel::run_one_task(
                plan,
                ctx,
                job,
                tagged.task.as_slice(),
                &mut scratch.buffers,
            );
        }
        slot.total.fetch_add(local, Ordering::Relaxed);

        drop(scratch_guard);
        let (raw, panicked) = guard.finish();
        if panicked {
            panic!("a pool worker panicked while executing this query");
        }
        parallel::finalize_count(raw, job, plan)
    }

    /// Claims a free job slot, blocking while `max_in_flight` jobs are
    /// already running (the pool's backpressure).
    fn acquire_slot(&self) -> usize {
        let mut state = lock_state(&self.shared);
        loop {
            if let Some(idx) = state.free_slots.pop() {
                return idx as usize;
            }
            state = self
                .shared
                .slot_free
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Empty critical section: a worker between its shutdown check and
        // its condvar wait holds the state lock, so acquiring it here
        // guarantees the broadcast below reaches every sleeper.
        drop(lock_state(&self.shared));
        self.shared.job_ready.notify_all();
        self.shared.slot_free.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Completes a job: finishes the accounting (discarding any tasks the
/// unwinding master left queued), blocks until every worker-held task of
/// the job retires, then frees the slot. Runs on drop so that even a
/// panicking master cannot unwind past stack data the workers still
/// reference; the normal path calls [`JobGuard::finish`] to also read the
/// job's results before the slot can be reused.
struct JobGuard<'a> {
    shared: &'a Shared,
    slot_idx: usize,
}

impl JobGuard<'_> {
    /// Normal-path completion: returns the raw total and the panic flag
    /// (read *before* the slot is released, after which another submitter
    /// may reset them).
    fn finish(self) -> (u64, bool) {
        let result = self.complete();
        std::mem::forget(self); // completion already ran; skip Drop
        result
    }

    fn complete(&self) -> (u64, bool) {
        let slot = &self.shared.slots[self.slot_idx];
        // Normal path: the master already set `producer_done` and drained
        // the lane, so everything below is a no-op until the wait. On
        // unwind neither holds: finish streaming bookkeeping and discard
        // the unprocessed backlog (the count is unwinding anyway) so the
        // retire condition can become true.
        slot.producer_done.store(true, Ordering::Release);
        {
            let scratch = slot.lock_scratch();
            loop {
                let popped = match scratch.deque.pop() {
                    Some(task) => Some(task),
                    None => loop {
                        match slot.injector.steal() {
                            Steal::Success(task) => break Some(task),
                            Steal::Empty => break None,
                            Steal::Retry => continue,
                        }
                    },
                };
                match popped {
                    // Any task still physically present in the deque or the
                    // lane is by definition unaccounted (accounting happens
                    // at pop), so account each as it is discarded.
                    Some(_) => slot.pending.fetch_sub(1, Ordering::Relaxed),
                    None => break,
                };
            }
        }
        // Wait for worker-held tasks to retire; their `Release` decrements
        // paired with this `Acquire` load make every worker access to the
        // submitter's stack happen-before the return.
        {
            let mut done = slot
                .done_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while slot.pending.load(Ordering::Acquire) > 0 {
                done = slot
                    .done_cv
                    .wait(done)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        let raw = slot.total.load(Ordering::Relaxed);
        let panicked = slot.panicked.load(Ordering::Relaxed);
        // Free the slot (and wake one blocked submitter).
        let mut state = lock_state(self.shared);
        state.free_slots.push(self.slot_idx as u32);
        drop(state);
        self.shared.slot_free.notify_one();
        (raw, panicked)
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        let _ = self.complete();
    }
}

/// The persistent worker body: scan the job lanes and sibling deques for
/// tagged tasks (any mix of concurrent jobs), execute each against its own
/// job's plan with scratch that survives across jobs, and sleep on the
/// wakeup condvar when there is none.
fn worker_thread(
    shared: &Shared,
    me: usize,
    deque: &Worker<TaggedTask>,
    stealers: &[Stealer<TaggedTask>],
) {
    // The scratch that makes the warm path allocation-free: created once
    // per worker and reused for every task of every job the pool ever runs.
    let mut buffers = SearchBuffers::new(MAX_LOOPS);
    let mut rotation = me; // fairness: stagger which lane each worker scans first

    loop {
        match next_task(deque, me, stealers, &shared.slots, &mut rotation) {
            Some(tagged) => {
                let slot = &shared.slots[tagged.slot as usize];
                run_task(slot, &tagged.task, &mut buffers);
            }
            None => {
                // Sleep until a submitter's backlog notify (or shutdown).
                // Re-check for backlog under the state lock: a batch pushed
                // before this point is visible here, and one pushed after
                // will re-notify while we wait. What siblings still hold in
                // their own deques (at most one stolen batch each) is theirs
                // to finish.
                let state = lock_state(shared);
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if shared.slots.iter().all(|s| s.injector.is_empty()) {
                    let woken = shared
                        .job_ready
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    drop(woken);
                }
            }
        }
    }
}

/// Executes one tagged task against its job slot, isolating panics to that
/// job, then accounts it. Tasks of a job already marked panicked are
/// discarded (accounted without execution).
fn run_task(slot: &JobSlot, task: &PrefixTask, buffers: &mut SearchBuffers) {
    if !slot.panicked.load(Ordering::Relaxed) {
        // SAFETY: we hold a popped, not-yet-accounted task of this slot's
        // job, so the submitter is still blocked from returning and the
        // record (and everything it borrows) is live (module-level safety
        // model). The queue hop that delivered the task orders this load
        // after the submitter's store.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            let JobRecord { plan, ctx, job } = *slot.record.load(Ordering::Relaxed);
            parallel::run_one_task(plan, ctx, job, task.as_slice(), buffers)
        }));
        match result {
            Ok(count) => {
                slot.total.fetch_add(count, Ordering::Relaxed);
            }
            // Poison only this job; the worker thread survives and the
            // scratch is safe to reuse (it is re-cleared at every use).
            Err(_) => slot.panicked.store(true, Ordering::Relaxed),
        }
    }
    slot.account_task();
}

/// Task acquisition order: own deque, then a batch from some job lane
/// (rotating the starting lane per call so workers spread across jobs),
/// then batches stolen from sibling deques. Tags keep concurrent jobs'
/// tasks apart wherever they travel.
fn next_task(
    deque: &Worker<TaggedTask>,
    me: usize,
    stealers: &[Stealer<TaggedTask>],
    slots: &[JobSlot],
    rotation: &mut usize,
) -> Option<TaggedTask> {
    if let Some(task) = deque.pop() {
        return Some(task);
    }
    let lanes = slots.len();
    *rotation = (*rotation + 1) % lanes;
    // Two-pass priority scan: high-priority lanes (interactive counts)
    // first, then low-priority lanes (paged enumeration and other mode
    // jobs). Within each pass the rotation still spreads workers across
    // lanes, so mode jobs make progress whenever count lanes are dry but
    // never starve them of workers.
    for pass in 0..2 {
        let want_high = pass == 0;
        for i in 0..lanes {
            let slot = &slots[(*rotation + i) % lanes];
            if slot.high_priority.load(Ordering::Relaxed) != want_high {
                continue;
            }
            loop {
                match slot.injector.steal_batch_and_pop(deque) {
                    Steal::Success(task) => return Some(task),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
    }
    for (i, stealer) in stealers.iter().enumerate() {
        if i == me {
            continue;
        }
        match stealer.steal_batch_and_pop(deque) {
            Steal::Success(task) => return Some(task),
            // On Empty move to the next victim; on Retry (lost a CAS race)
            // likewise — the worker's outer loop revisits every victim.
            Steal::Empty | Steal::Retry => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::exec::parallel::CountMode;
    use crate::exec::sink::{EmbedSink, OrbitSink, SampleAccum, SampleSink};
    use crate::exec::{interp, interp::match_embeddings_in};
    use crate::schedule::efficient_schedules;
    use graphpi_graph::csr::{CsrGraph, VertexId};
    use graphpi_graph::generators;
    use graphpi_graph::hub::{HubGraph, HubOptions};
    use graphpi_pattern::prefab;
    use graphpi_pattern::restriction::{generate_restriction_sets, GenerationOptions};

    fn configuration_for(pattern: graphpi_pattern::Pattern) -> Configuration {
        let sets = generate_restriction_sets(&pattern, GenerationOptions::default());
        let schedules = efficient_schedules(&pattern);
        Configuration::new(pattern, schedules[0].clone(), sets[0].clone())
    }

    fn plan_for(pattern: graphpi_pattern::Pattern) -> ExecutionPlan {
        configuration_for(pattern).compile()
    }

    /// The sequential oracle of the sink modes over one full-depth plan:
    /// the same prefix decomposition the pool uses, folded by the plain
    /// sinks on this thread.
    struct SinkOracle {
        plan: ExecutionPlan,
        orbit: Vec<u64>,
        sample: SampleAccum,
        /// Every embedding, schedule order, sorted.
        all: Vec<Vec<VertexId>>,
    }

    const SAMPLE_SEED: u64 = 7;
    const SAMPLE_RATE: f64 = 0.4;

    impl SinkOracle {
        fn new(pattern: graphpi_pattern::Pattern, g: &CsrGraph) -> Self {
            let plan = configuration_for(pattern).compile_with_iep(false);
            let ctx = ExecCtx::from(g);
            let depth = parallel::default_prefix_depth(&plan);
            let mut orbit = OrbitSink::new(g.num_vertices());
            match_embeddings_in(&plan, ctx, depth, &mut orbit);
            let mut sample = SampleSink::new(SAMPLE_SEED, SAMPLE_RATE);
            match_embeddings_in(&plan, ctx, depth, &mut sample);
            let mut embed = EmbedSink::new(plan.num_loops(), u64::MAX);
            match_embeddings_in(&plan, ctx, depth, &mut embed);
            let mut all: Vec<Vec<VertexId>> = embed
                .vertices()
                .chunks(plan.num_loops())
                .map(<[_]>::to_vec)
                .collect();
            all.sort();
            Self {
                plan,
                orbit: orbit.into_counts(),
                sample: sample.finish(),
                all,
            }
        }

        /// Runs sink job number `kind` (orbit, sample, bounded enumerate) on
        /// the pool and checks it against the oracle.
        fn check(&self, pool: &WorkerPool, g: &CsrGraph, kind: usize, options: &ParallelOptions) {
            let run = |job: &Job| pool.run_job(&self.plan, ExecCtx::from(g), options, job);
            match kind % 3 {
                0 => {
                    let job = Job::orbit(g.num_vertices());
                    assert_eq!(run(&job), 0, "sink jobs return no count");
                    let Job::Orbit { counts } = job else {
                        panic!("constructed as Orbit")
                    };
                    let counts: Vec<u64> = counts.into_iter().map(AtomicU64::into_inner).collect();
                    assert_eq!(counts, self.orbit, "orbit");
                }
                1 => {
                    let job = Job::sample(SAMPLE_SEED, SAMPLE_RATE);
                    run(&job);
                    let Job::Sample { accum, .. } = job else {
                        panic!("constructed as Sample")
                    };
                    assert_eq!(accum.into_inner().unwrap(), self.sample, "sample");
                }
                _ => {
                    let limit = self.all.len() / 2;
                    let job = Job::enumerate(limit as u64);
                    run(&job);
                    let Job::Enumerate { out, .. } = job else {
                        panic!("constructed as Enumerate")
                    };
                    let flat = out.into_inner().unwrap();
                    let page: Vec<&[VertexId]> = flat.chunks(self.plan.num_loops()).collect();
                    assert_eq!(page.len(), limit, "bounded enumerate fills its budget");
                    for embedding in page {
                        assert!(
                            self.all
                                .binary_search_by(|e| e.as_slice().cmp(embedding))
                                .is_ok(),
                            "bounded enumerate emitted a non-embedding: {embedding:?}"
                        );
                    }
                }
            }
        }
    }

    fn tagged(slot: u32) -> TaggedTask {
        TaggedTask {
            slot,
            task: PrefixTask::from_slice(&[slot]),
        }
    }

    #[test]
    fn next_task_prefers_high_priority_lanes() {
        // Enumeration never starves counts: with work queued in a
        // low-priority lane and a high-priority lane, every pull drains the
        // high-priority lane first, wherever the lane rotation starts.
        for start in 0..2 {
            let slots = [JobSlot::new(), JobSlot::new()];
            slots[0].high_priority.store(false, Ordering::Relaxed);
            slots[1].high_priority.store(true, Ordering::Relaxed);
            for slot in 0..2u32 {
                slots[slot as usize]
                    .injector
                    .push_batch((0..3).map(|_| tagged(slot)));
            }
            let deque = Worker::new_lifo();
            let stealers = [deque.stealer()];
            let mut rotation = start;
            let order: Vec<u32> = std::iter::from_fn(|| {
                next_task(&deque, 0, &stealers, &slots, &mut rotation).map(|t| t.slot)
            })
            .collect();
            assert_eq!(order, [1, 1, 1, 0, 0, 0], "rotation start {start}");
        }
    }

    /// A plan corrupted so task processing indexes out of bounds: loop 1
    /// claims a parent at position 3, but only one vertex is bound.
    fn poison_plan() -> ExecutionPlan {
        let mut bad = plan_for(graphpi_pattern::Pattern::new(2, &[(0, 1)]));
        bad.loops[1].parents = vec![3];
        bad
    }

    #[test]
    fn pool_matches_sequential_execution() {
        let g = generators::power_law(200, 5, 9);
        let pool = WorkerPool::new(3);
        for (name, pattern) in prefab::evaluation_patterns().into_iter().take(3) {
            let plan = plan_for(pattern);
            for mode in [CountMode::Enumerate, CountMode::Iep] {
                let options = ParallelOptions {
                    threads: 3,
                    mode,
                    ..Default::default()
                };
                let sequential = match mode {
                    CountMode::Enumerate => interp::count_embeddings(&plan, &g),
                    CountMode::Iep => crate::exec::iep::count_embeddings_iep(&plan, &g),
                };
                assert_eq!(
                    pool.count(&plan, &g, &options),
                    sequential,
                    "{name} ({mode:?})"
                );
            }
        }
    }

    #[test]
    fn pool_reuses_workers_across_many_jobs() {
        let g = generators::power_law(150, 5, 4);
        let pool = WorkerPool::new(2);
        let plan = plan_for(prefab::house());
        let expected = interp::count_embeddings(&plan, &g);
        for _ in 0..25 {
            assert_eq!(pool.count(&plan, &g, &ParallelOptions::default()), expected);
        }
    }

    #[test]
    fn pool_alternates_between_plans_and_graphs() {
        let g1 = generators::power_law(150, 5, 1);
        let g2 = generators::erdos_renyi(120, 700, 2);
        let house = plan_for(prefab::house());
        let tri = plan_for(prefab::triangle());
        let pool = WorkerPool::new(2);
        let options = ParallelOptions::default();
        for _ in 0..5 {
            assert_eq!(
                pool.count(&house, &g1, &options),
                interp::count_embeddings(&house, &g1)
            );
            assert_eq!(
                pool.count(&tri, &g2, &options),
                interp::count_embeddings(&tri, &g2)
            );
        }
    }

    #[test]
    fn single_worker_pool_works() {
        let g = generators::power_law(150, 5, 17);
        let pool = WorkerPool::new(1);
        let plan = plan_for(prefab::rectangle());
        assert_eq!(
            pool.count(&plan, &g, &ParallelOptions::default()),
            interp::count_embeddings(&plan, &g)
        );
    }

    #[test]
    fn pool_handles_degenerate_paths() {
        let pool = WorkerPool::new(2);
        // Empty graph.
        let g = graphpi_graph::GraphBuilder::new().num_vertices(40).build();
        let plan = plan_for(prefab::house());
        assert_eq!(pool.count(&plan, &g, &ParallelOptions::default()), 0);
        // Full-depth prefixes (master-only path).
        let g = generators::erdos_renyi(60, 250, 3);
        let edge_plan = plan_for(graphpi_pattern::Pattern::new(2, &[(0, 1)]));
        let options = ParallelOptions {
            prefix_depth: Some(2),
            ..Default::default()
        };
        assert_eq!(
            pool.count(&edge_plan, &g, &options),
            interp::count_embeddings(&edge_plan, &g)
        );
    }

    #[test]
    fn pool_with_prebuilt_hubs_matches_plain() {
        let g = generators::power_law(180, 6, 23);
        let hubs = HubGraph::build(&g, HubOptions::default());
        let pool = WorkerPool::new(2);
        let plan = plan_for(prefab::house());
        let options = ParallelOptions::default();
        assert_eq!(
            pool.count(&plan, (&g, &hubs), &options),
            pool.count(&plan, &g, &options)
        );
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.live_workers(), 4);
        drop(pool); // must not hang
    }

    #[test]
    fn max_in_flight_resolution() {
        let pool = WorkerPool::with_max_in_flight(3, 0);
        assert_eq!(pool.max_in_flight(), 3);
        assert_eq!(pool.in_flight(), 0);
        let pool = WorkerPool::with_max_in_flight(1, 0);
        assert_eq!(pool.max_in_flight(), 2, "floor of two lanes");
        let pool = WorkerPool::with_max_in_flight(2, 7);
        assert_eq!(pool.max_in_flight(), 7);
    }

    #[test]
    fn concurrent_submitters_compute_exact_counts() {
        let g = generators::power_law(150, 5, 31);
        let pool = WorkerPool::with_max_in_flight(2, 3);
        let plan = plan_for(prefab::house());
        let expected = interp::count_embeddings(&plan, &g);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let pool = &pool;
                let plan = &plan;
                let g = &g;
                scope.spawn(move || {
                    for _ in 0..5 {
                        assert_eq!(pool.count(plan, g, &ParallelOptions::default()), expected);
                    }
                });
            }
        });
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn concurrent_mixed_jobs_do_not_mix_counts() {
        // Different plans and different job kinds (count, orbit, sample,
        // bounded enumerate) in flight at once: every submitter must get
        // exactly its own job's result.
        let g = generators::power_law(160, 5, 13);
        let pool = WorkerPool::with_max_in_flight(2, 4);
        let oracle = SinkOracle::new(prefab::house(), &g);
        let plans: Vec<ExecutionPlan> = [prefab::triangle(), prefab::rectangle(), prefab::house()]
            .into_iter()
            .map(plan_for)
            .collect();
        let expected: Vec<u64> = plans
            .iter()
            .map(|p| interp::count_embeddings(p, &g))
            .collect();
        std::thread::scope(|scope| {
            for (i, (plan, &want)) in plans.iter().zip(&expected).enumerate() {
                let pool = &pool;
                let g = &g;
                scope.spawn(move || {
                    let mode = if i % 2 == 0 {
                        CountMode::Enumerate
                    } else {
                        CountMode::Iep
                    };
                    let options = ParallelOptions {
                        mode,
                        batch_size: 1 + i, // tiny batches force worker traffic
                        ..Default::default()
                    };
                    for _ in 0..6 {
                        assert_eq!(pool.count(plan, g, &options), want, "job {i}");
                    }
                });
                let oracle = &oracle;
                scope.spawn(move || {
                    let options = ParallelOptions {
                        batch_size: 1 + i,
                        ..Default::default()
                    };
                    for round in 0..6 {
                        oracle.check(pool, g, i + round, &options);
                    }
                });
            }
        });
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn backpressure_blocks_beyond_max_in_flight() {
        let g = generators::power_law(170, 5, 41);
        let pool = WorkerPool::with_max_in_flight(2, 2);
        let plan = plan_for(prefab::house());
        let expected = interp::count_embeddings(&plan, &g);
        let max_seen = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = {
                let pool = &pool;
                let max_seen = &max_seen;
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        max_seen.fetch_max(pool.in_flight() as u64, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                })
            };
            let submitters: Vec<_> = (0..5)
                .map(|_| {
                    let pool = &pool;
                    let plan = &plan;
                    let g = &g;
                    scope.spawn(move || {
                        for _ in 0..4 {
                            assert_eq!(pool.count(plan, g, &ParallelOptions::default()), expected);
                        }
                    })
                })
                .collect();
            for handle in submitters {
                handle.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            sampler.join().unwrap();
        });
        assert!(
            max_seen.load(Ordering::Relaxed) <= 2,
            "in_flight exceeded max_in_flight: {}",
            max_seen.load(Ordering::Relaxed)
        );
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn panicking_query_does_not_brick_the_pool() {
        let g = generators::power_law(120, 5, 3);
        let pool = WorkerPool::new(2);
        let good = plan_for(prefab::house());
        let expected = interp::count_embeddings(&good, &g);
        let bad = poison_plan();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.count(&bad, &g, &ParallelOptions::default())
        }));
        assert!(result.is_err(), "corrupted plan must panic");
        // The pool must remain fully usable afterwards — including the
        // worker threads, which survive the panicking job.
        assert_eq!(pool.live_workers(), 2, "workers must survive a bad job");
        for _ in 0..3 {
            assert_eq!(pool.count(&good, &g, &ParallelOptions::default()), expected);
        }
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn repeated_panics_leave_all_workers_alive() {
        // Regression for the original pool, whose workers unwound and died
        // with the first panicking task they executed: enough bad jobs
        // would silently strip the pool down to master-only execution.
        let g = generators::power_law(120, 5, 7);
        let pool = WorkerPool::new(2);
        let good = plan_for(prefab::house());
        let expected = interp::count_embeddings(&good, &g);
        let bad = poison_plan();
        for _ in 0..4 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Tiny batches maximise the chance workers (not just the
                // master) execute poisoned tasks.
                pool.count(
                    &bad,
                    &g,
                    &ParallelOptions {
                        batch_size: 1,
                        ..Default::default()
                    },
                )
            }));
            assert!(result.is_err());
            assert_eq!(pool.count(&good, &g, &ParallelOptions::default()), expected);
        }
        assert_eq!(pool.live_workers(), 2);
    }

    #[test]
    fn panicking_job_is_isolated_from_concurrent_jobs() {
        let g = generators::power_law(150, 5, 57);
        let pool = WorkerPool::with_max_in_flight(2, 3);
        let good = plan_for(prefab::house());
        let expected = interp::count_embeddings(&good, &g);
        let oracle = SinkOracle::new(prefab::house(), &g);
        let bad = poison_plan();
        std::thread::scope(|scope| {
            // One thread keeps submitting poisoned jobs...
            let poisoner = {
                let pool = &pool;
                let bad = &bad;
                let g = &g;
                scope.spawn(move || {
                    for _ in 0..6 {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            pool.count(
                                bad,
                                g,
                                &ParallelOptions {
                                    batch_size: 1,
                                    ..Default::default()
                                },
                            )
                        }));
                        assert!(result.is_err());
                    }
                })
            };
            // ...while two others demand exact results throughout: one
            // counting, one running sink-mode jobs.
            scope.spawn(|| {
                for _ in 0..8 {
                    assert_eq!(pool.count(&good, &g, &ParallelOptions::default()), expected);
                }
            });
            scope.spawn(|| {
                for kind in 0..8 {
                    oracle.check(&pool, &g, kind, &ParallelOptions::default());
                }
            });
            poisoner.join().unwrap();
        });
        assert_eq!(pool.live_workers(), 2);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn pool_enumerates_non_uniform_plans_like_the_sequential_path() {
        use crate::schedule::Schedule;
        use graphpi_pattern::restriction::RestrictionSet;
        let g = generators::erdos_renyi(100, 500, 5);
        let pattern = prefab::path_pattern(5);
        let schedule = Schedule::new(&pattern, vec![2, 1, 3, 0, 4]);
        let restrictions = RestrictionSet::from_pairs(&[(2, 1)]);
        let plan = Configuration::new(pattern, schedule, restrictions).compile();
        let pool = WorkerPool::new(2);
        let options = ParallelOptions {
            mode: CountMode::Iep,
            ..Default::default()
        };
        assert_eq!(
            pool.count(&plan, &g, &options),
            crate::exec::iep::count_embeddings_iep(&plan, &g)
        );
    }
}
