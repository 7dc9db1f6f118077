//! The job plane: the per-stage bookkeeping both executors share.
//!
//! MonoSpark runs exactly the same jobs as Spark and differs only in how it
//! orchestrates resources (§4). This module is the "same jobs" half of that
//! statement, kept once for both executors: stage readiness and the barrier
//! between stages, the pending-task queues with their locality preferences,
//! the lineage index, the bounded task-retry budget, loss of shuffle outputs,
//! and the partition gate clock with its timeout/backoff arithmetic.
//!
//! An executor keeps only its resource policy. Where the two policies truly
//! differ, the difference is an argument: the reachability predicate
//! ([`HostFn`]) the partition gate asks, and whether jobs are served
//! round-robin or in submission order. Nothing here branches on which
//! executor is calling.

use std::collections::HashSet;

use simcore::{EventQueue, InstantKind, RunInstant, SimDuration, SimStats, SimTime};

use crate::blocks::BlockMap;
use crate::error::RunError;
use crate::report::{JobReport, RecoveryStats, StageControlStats, StageReport};
use crate::stage::{InputSpec, JobSpec, OutputSpec};
use crate::types::{JobId, StageId, TaskId};

/// The partition gate's reachability predicate: whether machine `m` could
/// get the input data of task `(job, stage, task)` across the plane's
/// current cuts. The engines differ here — the monotasks executor judges
/// each task (a disk task needs its block reachable), the Spark-like one
/// judges a whole stage by its shuffle senders — so the caller passes it.
pub type HostFn<'a> = dyn Fn(&JobPlane, usize, usize, usize, usize) -> bool + 'a;

/// Recovery limits the job plane enforces, taken from the executor config.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Retries allowed per task beyond its original attempt.
    pub max_task_retries: u32,
    /// Simulated seconds a stalled fetch or gate-blocked stage waits before
    /// its first retry; `None` disables the timeout machinery.
    pub fetch_timeout_secs: Option<f64>,
    /// Retries allowed after the timeout before recovery re-plans.
    pub fetch_max_retries: u32,
    /// Retry `k` waits `base × 2^(k-1)` simulated seconds.
    pub fetch_backoff_base_secs: f64,
}

/// Execution state of one stage.
#[derive(Debug)]
pub struct StageRun {
    /// Every dependency is complete; pending tasks may be picked.
    pub ready: bool,
    /// Every task has completed (and no output has been lost since).
    pub done: bool,
    /// Number of tasks.
    pub total: usize,
    /// Tasks completed so far.
    pub completed: usize,
    /// Pending tasks preferring each machine; popped from the back.
    by_pref: Vec<Vec<u32>>,
    /// Pending tasks with no locality preference; popped from the back.
    nopref: Vec<u32>,
    /// First task launch.
    pub started: Option<SimTime>,
    /// Completion of the last task.
    pub ended: Option<SimTime>,
    /// Shuffle bytes produced on each machine by completed tasks.
    pub shuffle_by_machine: Vec<f64>,
    /// Whether this stage's shuffle output stays in memory.
    pub shuffle_in_memory: bool,
    /// Pending queues have been filled once; a stage re-opened after lost
    /// output resumes with its surviving queue contents.
    populated: bool,
    /// Completed task ids per machine (lineage runs only): exactly the tasks
    /// to re-run when that machine's outputs are lost.
    pub completed_on: Vec<Vec<u32>>,
    /// When the pending tasks first had no placement passing the gate.
    gate_blocked_since: Option<SimTime>,
    /// Next timeout expiry of the gate blockage.
    gate_deadline: Option<SimTime>,
    /// Retry decisions spent waiting out the gate blockage.
    gate_retries: u32,
}

impl StageRun {
    fn has_pending(&self) -> bool {
        !self.nopref.is_empty() || self.by_pref.iter().any(|q| !q.is_empty())
    }

    fn pending(&self) -> impl Iterator<Item = &u32> {
        self.nopref.iter().chain(self.by_pref.iter().flatten())
    }

    fn reset_gate(&mut self) {
        self.gate_blocked_since = None;
        self.gate_deadline = None;
        self.gate_retries = 0;
    }
}

/// Execution state of one job.
#[derive(Debug)]
pub struct JobRun {
    /// The job's id (its submission index).
    pub id: JobId,
    /// What the job computes.
    pub spec: JobSpec,
    /// Where its input blocks live.
    pub blocks: BlockMap,
    /// Per-stage state, indexed like `spec.stages`.
    pub stages: Vec<StageRun>,
    /// Every stage is done.
    pub done: bool,
    /// Completion time of the last stage.
    pub end: SimTime,
    /// Fault-recovery counters.
    pub recovery: RecoveryStats,
}

/// Which pending queue of a stage a task is taken from.
#[derive(Clone, Copy)]
enum Queue {
    NoPref,
    Pref(usize),
}

/// Stage bookkeeping, lineage recovery, and the partition gate for every
/// job of one run. See the module docs.
#[derive(Debug)]
pub struct JobPlane {
    /// Per-job state, in submission order.
    pub jobs: Vec<JobRun>,
    /// False once a machine crashed; crashed machines never come back.
    pub alive: Vec<bool>,
    /// Machines recovery re-planned around: they take no new work until a
    /// heal touches them, so lineage re-runs land where consumers can fetch.
    pub quarantined: Vec<bool>,
    /// Directed `(sender, receiver)` pairs currently cut.
    pub cut_pairs: HashSet<(usize, usize)>,
    /// Stall-timeout and backoff wake-ups (fetches and gate-blocked stages).
    pub fetch_timers: EventQueue<()>,
    policy: RecoveryPolicy,
    /// Keep the lineage index (`completed_on`) and recompute attribution:
    /// only fault runs can lose outputs.
    lineage: bool,
    /// Failed attempts per `[job][stage][task]`.
    attempts: Vec<Vec<Vec<u32>>>,
    /// Tasks whose next launch is a lineage recomputation (only ever
    /// membership-tested; iteration order never observed).
    recompute_pending: HashSet<(usize, usize, usize)>,
    /// Entries across every pending queue; exact, so zero means no pick can
    /// succeed.
    pending: usize,
    /// Job the next round-robin pick starts from.
    rr_job: usize,
    trace_on: bool,
    instants: Vec<RunInstant>,
}

impl JobPlane {
    /// The plane for `jobs` on `n_machines` machines, with root stages
    /// ready. `lineage` keeps the lineage index (fault runs); `trace`
    /// collects [`RunInstant`]s.
    pub fn new(
        jobs: &[(JobSpec, BlockMap)],
        n_machines: usize,
        policy: RecoveryPolicy,
        lineage: bool,
        trace: bool,
    ) -> JobPlane {
        let runs: Vec<JobRun> = jobs
            .iter()
            .enumerate()
            .map(|(ji, (spec, blocks))| JobRun {
                id: JobId(ji as u32),
                spec: spec.clone(),
                blocks: blocks.clone(),
                stages: spec
                    .stages
                    .iter()
                    .map(|st| StageRun {
                        ready: false,
                        done: false,
                        total: st.tasks.len(),
                        completed: 0,
                        by_pref: vec![Vec::new(); n_machines],
                        nopref: Vec::new(),
                        started: None,
                        ended: None,
                        shuffle_by_machine: vec![0.0; n_machines],
                        shuffle_in_memory: st.tasks.iter().any(|t| {
                            matches!(
                                t.output,
                                OutputSpec::ShuffleWrite {
                                    in_memory: true,
                                    ..
                                }
                            )
                        }),
                        populated: false,
                        completed_on: vec![Vec::new(); n_machines],
                        gate_blocked_since: None,
                        gate_deadline: None,
                        gate_retries: 0,
                    })
                    .collect(),
                done: false,
                end: SimTime::ZERO,
                recovery: RecoveryStats::default(),
            })
            .collect();
        let attempts = runs
            .iter()
            .map(|j| j.stages.iter().map(|s| vec![0; s.total]).collect())
            .collect();
        let mut plane = JobPlane {
            jobs: runs,
            alive: vec![true; n_machines],
            quarantined: vec![false; n_machines],
            cut_pairs: HashSet::new(),
            fetch_timers: EventQueue::new(),
            policy,
            lineage,
            attempts,
            recompute_pending: HashSet::new(),
            pending: 0,
            rr_job: 0,
            trace_on: trace,
            instants: Vec::new(),
        };
        for ji in 0..plane.jobs.len() {
            for si in 0..plane.jobs[ji].spec.stages.len() {
                if plane.jobs[ji].spec.stages[si].deps.is_empty() {
                    plane.make_stage_ready(ji, si);
                }
            }
        }
        plane
    }

    fn n_machines(&self) -> usize {
        self.alive.len()
    }

    /// Alive and not quarantined: may take new work.
    pub fn usable(&self, m: usize) -> bool {
        self.alive[m] && !self.quarantined[m]
    }

    /// Whether every job has completed.
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.done)
    }

    /// Whether any task waits in a pending queue (ready stage or not).
    pub fn has_pending(&self) -> bool {
        self.pending > 0
    }

    /// Failed attempts of task `(ji, si, ti)` so far (0 = first attempt).
    pub fn attempts(&self, ji: usize, si: usize, ti: usize) -> u32 {
        self.attempts[ji][si][ti]
    }

    /// Whether the next launch of `(ji, si, ti)` recomputes lost output;
    /// clears the mark.
    pub fn take_recompute(&mut self, ji: usize, si: usize, ti: usize) -> bool {
        self.recompute_pending.remove(&(ji, si, ti))
    }

    /// Records a trace instant at `now` when collection is armed. Pushes to
    /// a side vector only, so traced runs stay bit-identical to untraced.
    pub fn emit(&mut self, now: SimTime, kind: InstantKind) {
        if self.trace_on {
            self.instants.push(RunInstant { time: now, kind });
        }
    }

    fn make_stage_ready(&mut self, ji: usize, si: usize) {
        let n_machines = self.n_machines();
        let job = &mut self.jobs[ji];
        let stage_spec = &job.spec.stages[si];
        let run = &mut job.stages[si];
        debug_assert!(!run.ready);
        run.ready = true;
        if run.populated {
            // Re-opened after lost output un-did an upstream stage: the
            // pending queues already hold exactly the unfinished tasks
            // (survivors of the first fill plus re-queues).
            return;
        }
        run.populated = true;
        self.pending += stage_spec.tasks.len();
        for (ti, task) in stage_spec.tasks.iter().enumerate() {
            match task.input {
                InputSpec::DiskBlock { block, .. } => {
                    run.by_pref[job.blocks.machine_of(block)].push(ti as u32)
                }
                InputSpec::Memory { .. } => run.by_pref[ti % n_machines].push(ti as u32),
                InputSpec::None | InputSpec::ShuffleFetch { .. } => run.nopref.push(ti as u32),
            }
        }
        // Queues are popped from the back; reverse so low task ids go first.
        for q in &mut run.by_pref {
            q.reverse();
        }
        run.nopref.reverse();
    }

    /// Readies stages whose dependencies are now all complete.
    fn unlock_dependents(&mut self, ji: usize, completed: usize) {
        for si in 0..self.jobs[ji].spec.stages.len() {
            let deps = &self.jobs[ji].spec.stages[si].deps;
            if self.jobs[ji].stages[si].ready || !deps.iter().any(|d| d.0 as usize == completed) {
                continue;
            }
            if deps.iter().all(|d| self.jobs[ji].stages[d.0 as usize].done) {
                self.make_stage_ready(ji, si);
            }
        }
    }

    /// The next task for machine `m`, removed from its queue: a task local
    /// to `m` from any ready stage, else a no-preference task, else one
    /// stolen from another machine's queue. Jobs are scanned from the last
    /// job served when `fair`, from the first otherwise. With a `gate`, each
    /// queue is searched back to front for the first task `m` can host;
    /// gated tasks stay queued. Marks the stage started at `now`: the picked
    /// task launches immediately.
    pub fn pick_task(
        &mut self,
        m: usize,
        now: SimTime,
        fair: bool,
        gate: Option<&HostFn>,
    ) -> Option<(usize, usize, usize)> {
        if self.pending == 0 {
            return None;
        }
        let n_jobs = self.jobs.len();
        let offset = if fair { self.rr_job } else { 0 };
        // Pass 1: locality.
        for jo in 0..n_jobs {
            let ji = (offset + jo) % n_jobs;
            for si in 0..self.jobs[ji].stages.len() {
                let run = &self.jobs[ji].stages[si];
                if !run.ready || run.done {
                    continue;
                }
                if let Some(k) = self.find(&run.by_pref[m], m, ji, si, gate) {
                    return Some((ji, si, self.take(ji, si, Queue::Pref(m), k, now)));
                }
            }
        }
        // Pass 2: anything pending (no-pref first, then steal remote-local).
        for jo in 0..n_jobs {
            let ji = (offset + jo) % n_jobs;
            for si in 0..self.jobs[ji].stages.len() {
                let run = &self.jobs[ji].stages[si];
                if !run.ready || run.done {
                    continue;
                }
                if let Some(k) = self.find(&run.nopref, m, ji, si, gate) {
                    return Some((ji, si, self.take(ji, si, Queue::NoPref, k, now)));
                }
                for (q, queue) in run.by_pref.iter().enumerate() {
                    if let Some(k) = self.find(queue, m, ji, si, gate) {
                        return Some((ji, si, self.take(ji, si, Queue::Pref(q), k, now)));
                    }
                }
            }
        }
        None
    }

    /// Position in `queue` of the task the next pick takes for `m`: the back
    /// entry, or with a `gate` the back-most entry `m` can host.
    fn find(
        &self,
        queue: &[u32],
        m: usize,
        ji: usize,
        si: usize,
        gate: Option<&HostFn>,
    ) -> Option<usize> {
        match gate {
            None => queue.len().checked_sub(1),
            Some(host) => (0..queue.len())
                .rev()
                .find(|&k| host(self, m, ji, si, queue[k] as usize)),
        }
    }

    /// Removes entry `k` of a stage's queue for launch at `now`.
    fn take(&mut self, ji: usize, si: usize, which: Queue, k: usize, now: SimTime) -> usize {
        let run = &mut self.jobs[ji].stages[si];
        let ti = match which {
            Queue::NoPref => run.nopref.remove(k),
            Queue::Pref(p) => run.by_pref[p].remove(k),
        };
        if run.started.is_none() {
            run.started = Some(now);
        }
        self.pending -= 1;
        self.rr_job = ji + 1;
        ti as usize
    }

    /// Completes task `(ji, si, ti)`, run on `machine` since `start`:
    /// lineage index, shuffle placement, stage barrier, dependent stages,
    /// and job completion.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_task(
        &mut self,
        ji: usize,
        si: usize,
        ti: usize,
        machine: usize,
        start: SimTime,
        recompute: bool,
        now: SimTime,
    ) {
        if self.lineage {
            if recompute {
                self.jobs[ji].recovery.recompute_seconds += now.since(start).as_secs_f64();
            }
            // Lineage index: which completed tasks' outputs live on `machine`.
            self.jobs[ji].stages[si].completed_on[machine].push(ti as u32);
        }
        let output = self.jobs[ji].spec.stages[si].tasks[ti].output;
        let run = &mut self.jobs[ji].stages[si];
        if let OutputSpec::ShuffleWrite { bytes, .. } = output {
            run.shuffle_by_machine[machine] += bytes;
        }
        run.completed += 1;
        if run.completed == run.total {
            run.done = true;
            run.ended = Some(now);
        }
        if self.jobs[ji].stages[si].done {
            self.unlock_dependents(ji, si);
            if self.jobs[ji].stages.iter().all(|s| s.done) {
                self.jobs[ji].done = true;
                self.jobs[ji].end = now;
            }
        }
    }

    /// Bounded-retry re-queue of one task: counts the failed attempt and
    /// fails the run with [`RunError::RetriesExhausted`] once the budget is
    /// spent. A `recompute` re-queue re-runs output lost after completion.
    pub fn requeue_task(
        &mut self,
        ji: usize,
        si: usize,
        ti: usize,
        recompute: bool,
        now: SimTime,
    ) -> Result<(), RunError> {
        let a = &mut self.attempts[ji][si][ti];
        *a += 1;
        if *a > self.policy.max_task_retries {
            return Err(RunError::RetriesExhausted {
                job: JobId(ji as u32),
                stage: StageId(si as u32),
                task: TaskId(ti as u32),
                attempts: *a,
            });
        }
        self.jobs[ji].recovery.tasks_retried += 1;
        self.emit(
            now,
            InstantKind::TaskRetry {
                job: ji as u32,
                stage: si as u32,
                task: ti as u32,
                recompute,
            },
        );
        if recompute {
            self.recompute_pending.insert((ji, si, ti));
        }
        self.jobs[ji].stages[si].nopref.push(ti as u32);
        self.pending += 1;
        Ok(())
    }

    /// Spark-style stage resubmission after machine `m`'s shuffle outputs
    /// are lost: for every stage with output on `m` that an unfinished stage
    /// still needs, re-open it, re-queue exactly the tasks that produced
    /// those bytes (the lineage index), and close its ready consumers until
    /// the data exists again. `on_lost` sees each stage's lost task ids
    /// before they are re-queued, for the caller's own per-stage state.
    pub fn lose_shuffle_outputs(
        &mut self,
        m: usize,
        now: SimTime,
        mut on_lost: impl FnMut(&mut JobPlane, usize, usize, &[u32]),
    ) -> Result<(), RunError> {
        for ji in 0..self.jobs.len() {
            let n_stages = self.jobs[ji].stages.len();
            let consumes = |plane: &JobPlane, sj: usize, si: usize| {
                plane.jobs[ji].spec.stages[sj]
                    .deps
                    .iter()
                    .any(|d| d.0 as usize == si)
            };
            for si in 0..n_stages {
                if self.jobs[ji].stages[si].shuffle_by_machine[m] <= 0.0 {
                    continue;
                }
                let needed = (0..n_stages)
                    .any(|sj| !self.jobs[ji].stages[sj].done && consumes(self, sj, si));
                if !needed {
                    // Every consumer already finished; the lost bytes will
                    // never be fetched again.
                    continue;
                }
                let lost = std::mem::take(&mut self.jobs[ji].stages[si].completed_on[m]);
                if lost.is_empty() {
                    continue;
                }
                let was_done = {
                    let run = &mut self.jobs[ji].stages[si];
                    run.shuffle_by_machine[m] = 0.0;
                    run.completed -= lost.len();
                    let was_done = run.done;
                    run.done = false;
                    run.ended = None;
                    was_done
                };
                on_lost(self, ji, si, &lost);
                for ti in lost {
                    self.requeue_task(ji, si, ti as usize, true, now)?;
                }
                if was_done {
                    for sj in 0..n_stages {
                        let run = &self.jobs[ji].stages[sj];
                        if consumes(self, sj, si) && run.ready && !run.done {
                            // Pending consumers wait for the recomputation;
                            // in-flight consumers fetching from `m` were
                            // already aborted by the caller.
                            self.jobs[ji].stages[sj].ready = false;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Arms a stall timeout at `now` when timeouts are configured, returning
    /// its deadline.
    pub fn arm_timeout(&mut self, now: SimTime) -> Option<SimTime> {
        let at = now + SimDuration::from_secs_f64(self.policy.fetch_timeout_secs?);
        self.fetch_timers.schedule(at, ());
        Some(at)
    }

    /// Drops the stall wake-ups due by `now`; returns whether timeouts are
    /// configured at all (if not, nothing is ever due).
    pub fn drain_fetch_timers(&mut self, now: SimTime) -> bool {
        while self.fetch_timers.peek_time().is_some_and(|t| t <= now) {
            self.fetch_timers.pop();
        }
        self.policy.fetch_timeout_secs.is_some()
    }

    /// One retry decision of a stalled fetch (or gate-blocked stage) of
    /// `(ji, si)`: counts retry number `retries` and, while the budget lasts,
    /// schedules the backoff wake-up and returns its deadline. `None` means
    /// the budget is spent and the caller must re-plan.
    pub fn fetch_retry(
        &mut self,
        ji: usize,
        si: usize,
        retries: u32,
        now: SimTime,
    ) -> Option<SimTime> {
        self.jobs[ji].recovery.fetch_retries += 1;
        self.emit(
            now,
            InstantKind::FetchRetry {
                job: ji as u32,
                stage: si as u32,
                attempt: retries,
            },
        );
        if retries > self.policy.fetch_max_retries {
            return None;
        }
        let backoff = self.policy.fetch_backoff_base_secs * 2f64.powi(retries as i32 - 1);
        self.jobs[ji].recovery.fetch_backoff_seconds += backoff;
        // A zero backoff still moves the clock: the retry fires 1 ns later.
        let mut at = now + SimDuration::from_secs_f64(backoff);
        if at <= now {
            at = SimTime(now.0 + 1);
        }
        self.fetch_timers.schedule(at, ());
        Some(at)
    }

    /// Charges `count` fetches of `(ji, si)` given up on after `stalled`
    /// seconds of stall time in total.
    pub fn note_replanned(&mut self, ji: usize, si: usize, stalled: f64, count: u64, now: SimTime) {
        self.jobs[ji].recovery.stalled_fetch_seconds += stalled;
        self.jobs[ji].recovery.fetches_replanned += count;
        for _ in 0..count {
            self.emit(
                now,
                InstantKind::FetchReplan {
                    job: ji as u32,
                    stage: si as u32,
                },
            );
        }
    }

    /// Whether some usable machine can host task `(ji, si, ti)`.
    pub fn hostable(&self, ji: usize, si: usize, ti: usize, host: &HostFn) -> bool {
        (0..self.n_machines()).any(|m| self.usable(m) && host(self, m, ji, si, ti))
    }

    /// A ready stage with pending tasks is gate-blocked when no usable
    /// machine can host any of them.
    pub fn stage_gate_blocked(&self, ji: usize, si: usize, host: &HostFn) -> bool {
        let run = &self.jobs[ji].stages[si];
        if !run.ready || run.done || !run.has_pending() {
            return false;
        }
        !(0..self.n_machines())
            .any(|m| self.usable(m) && run.pending().any(|&ti| host(self, m, ji, si, ti as usize)))
    }

    /// The pending task of a stage the next pick would take, if any.
    pub fn first_pending_task(&self, ji: usize, si: usize) -> Option<usize> {
        let run = &self.jobs[ji].stages[si];
        if let Some(&ti) = run.nopref.last() {
            return Some(ti as usize);
        }
        run.by_pref
            .iter()
            .find_map(|q| q.last().map(|&ti| ti as usize))
    }

    /// Once per event: start (or clear) the gate clocks of ready stages no
    /// machine can host. Without a timeout the clock still starts — the
    /// starvation error names the stage — but no wake-up is scheduled.
    pub fn arm_gate_timers(&mut self, now: SimTime, host: &HostFn) {
        for ji in 0..self.jobs.len() {
            if self.jobs[ji].done {
                continue;
            }
            for si in 0..self.jobs[ji].stages.len() {
                let blocked = self.stage_gate_blocked(ji, si, host);
                let since = self.jobs[ji].stages[si].gate_blocked_since;
                if !blocked {
                    if since.is_some() {
                        self.jobs[ji].stages[si].reset_gate();
                    }
                } else if since.is_none() {
                    self.jobs[ji].stages[si].gate_blocked_since = Some(now);
                    self.jobs[ji].stages[si].gate_deadline = self.arm_timeout(now);
                }
            }
        }
    }

    /// The gate half of partition recovery. Walks stages from `cursor`
    /// whose gate deadline is due: a stage no longer blocked is cleared, a
    /// blocked one burns a retry with backoff. Returns the first stage whose
    /// budget is spent, as `(job, stage, exemplar task, retries)`, with its
    /// gate clock reset so a later blockage gets a full budget again; the
    /// caller re-plans it and calls again with the same cursor.
    pub fn next_exhausted_gate(
        &mut self,
        cursor: &mut (usize, usize),
        now: SimTime,
        host: &HostFn,
    ) -> Option<(usize, usize, usize, u32)> {
        while cursor.0 < self.jobs.len() {
            let (ji, si) = *cursor;
            if si >= self.jobs[ji].stages.len() {
                *cursor = (ji + 1, 0);
                continue;
            }
            cursor.1 += 1;
            if self.jobs[ji].stages[si]
                .gate_deadline
                .is_none_or(|d| d > now)
            {
                continue;
            }
            if !self.stage_gate_blocked(ji, si, host) {
                self.jobs[ji].stages[si].reset_gate();
                continue;
            }
            self.jobs[ji].stages[si].gate_retries += 1;
            let retries = self.jobs[ji].stages[si].gate_retries;
            if let Some(at) = self.fetch_retry(ji, si, retries, now) {
                self.jobs[ji].stages[si].gate_deadline = Some(at);
                continue;
            }
            self.jobs[ji].stages[si].reset_gate();
            if let Some(ti) = self.first_pending_task(ji, si) {
                return Some((ji, si, ti, retries));
            }
        }
        None
    }

    /// Sender-level re-planning for task `(ji, si, ti)`, which no usable
    /// machine can host: picks the receiver `m*` (the usable machine
    /// reaching the most shuffle senders, lowest index on ties) and returns
    /// the senders `m*` cannot reach, in machine order. Their producers must
    /// re-run elsewhere; that is feasible only if every producer has a
    /// usable machine `m*` reaches that can host it — checked for every
    /// sender before any is acted on, else [`RunError::Unreachable`] names
    /// the first infeasible sender.
    pub fn unreachable_senders(
        &self,
        ji: usize,
        si: usize,
        ti: usize,
        retries: u32,
        now: SimTime,
        host: &HostFn,
    ) -> Result<Vec<usize>, RunError> {
        let n = self.n_machines();
        let job = &self.jobs[ji];
        let deps: Vec<usize> = job.spec.stages[si]
            .deps
            .iter()
            .map(|d| d.0 as usize)
            .collect();
        let sends = |d: usize, s: usize| job.stages[d].shuffle_by_machine[s] > 0.0;
        let senders: Vec<usize> = (0..n)
            .filter(|&s| deps.iter().any(|&d| sends(d, s)))
            .collect();
        let unreachable = |machine: usize| RunError::Unreachable {
            job: JobId(ji as u32),
            stage: StageId(si as u32),
            task: TaskId(ti as u32),
            machine,
            retries,
        };
        if senders.is_empty() {
            // No shuffle lineage to resubmit: the input itself sits on the
            // wrong side of the partition.
            return Err(unreachable(self.first_unreachable_source(ji, si, ti)));
        }
        let mut best: Option<(usize, usize)> = None;
        for m in (0..n).filter(|&m| self.usable(m)) {
            let reach = senders
                .iter()
                .filter(|&&s| s == m || !self.cut_pairs.contains(&(s, m)))
                .count();
            if best.is_none_or(|(_, r)| reach > r) {
                best = Some((m, reach));
            }
        }
        let Some((mstar, _)) = best else {
            return Err(RunError::all_machines_crashed(now));
        };
        let offending: Vec<usize> = senders
            .into_iter()
            .filter(|&s| s != mstar && self.cut_pairs.contains(&(s, mstar)))
            .collect();
        for &s in &offending {
            for &d in deps.iter().filter(|&&d| sends(d, s)) {
                for &p in &job.stages[d].completed_on[s] {
                    let feasible = (0..n).any(|m| {
                        m != s
                            && self.usable(m)
                            && !self.cut_pairs.contains(&(m, mstar))
                            && host(self, m, ji, d, p as usize)
                    });
                    if !feasible {
                        return Err(unreachable(s));
                    }
                }
            }
        }
        Ok(offending)
    }

    /// First data source of `(ji, si, ti)` some live machine cannot reach:
    /// a disk task's block home, or the first shuffle sender cut from a live
    /// machine. Best-effort attribution for starvation errors.
    pub fn first_unreachable_source(&self, ji: usize, si: usize, ti: usize) -> usize {
        let job = &self.jobs[ji];
        match job.spec.stages[si].tasks[ti].input {
            InputSpec::DiskBlock { block, .. } => job.blocks.machine_of(block),
            InputSpec::ShuffleFetch { .. } => {
                for d in &job.spec.stages[si].deps {
                    let dep = &job.stages[d.0 as usize];
                    for (s, &b) in dep.shuffle_by_machine.iter().enumerate() {
                        if b > 0.0
                            && (0..self.n_machines())
                                .any(|m| self.alive[m] && self.cut_pairs.contains(&(s, m)))
                        {
                            return s;
                        }
                    }
                }
                0
            }
            _ => 0,
        }
    }

    /// When nothing can ever fire again but jobs remain: the first
    /// gate-blocked stage, as a structured [`RunError::Unreachable`].
    pub fn gate_starvation_error(&self) -> Option<RunError> {
        for (ji, job) in self.jobs.iter().enumerate() {
            if job.done {
                continue;
            }
            for (si, run) in job.stages.iter().enumerate() {
                if run.gate_blocked_since.is_none() {
                    continue;
                }
                let Some(ti) = self.first_pending_task(ji, si) else {
                    continue;
                };
                return Some(RunError::Unreachable {
                    job: job.id,
                    stage: StageId(si as u32),
                    task: TaskId(ti as u32),
                    machine: self.first_unreachable_source(ji, si, ti),
                    retries: run.gate_retries,
                });
            }
        }
        None
    }

    /// Ends the run: copies the summed recovery counters into `stats` and
    /// returns the per-job reports (with each stage's `control` cost) and
    /// the collected instants.
    pub fn finish(
        self,
        stats: &mut SimStats,
        control: impl Fn(usize, usize) -> StageControlStats,
    ) -> (Vec<JobReport>, Vec<RunInstant>) {
        let mut total = RecoveryStats::default();
        for j in &self.jobs {
            total.merge(&j.recovery);
        }
        stats.tasks_retried = total.tasks_retried;
        stats.tasks_speculated = total.tasks_speculated;
        stats.wasted_work_nanos = (total.wasted_work_seconds * 1e9).round() as u64;
        stats.recompute_nanos = (total.recompute_seconds * 1e9).round() as u64;
        stats.mono_copies = total.mono_copies_total();
        stats.mono_copy_wins = total.mono_copy_wins_total();
        stats.wasted_bytes = total.wasted_bytes.round() as u64;
        stats.fetch_retries = total.fetch_retries;
        stats.stalled_fetch_nanos = (total.stalled_fetch_seconds * 1e9).round() as u64;
        stats.fetch_backoff_nanos = (total.fetch_backoff_seconds * 1e9).round() as u64;
        stats.fetches_replanned = total.fetches_replanned;
        let jobs = self
            .jobs
            .into_iter()
            .enumerate()
            .map(|(ji, j)| JobReport {
                job: j.id,
                name: j.spec.name,
                start: SimTime::ZERO,
                end: j.end,
                stages: j
                    .stages
                    .iter()
                    .enumerate()
                    .map(|(si, s)| StageReport {
                        stage: StageId(si as u32),
                        start: s.started.expect("stage never started"),
                        end: s.ended.expect("stage never ended"),
                        control: control(ji, si),
                    })
                    .collect(),
                recovery: j.recovery,
            })
            .collect();
        (jobs, self.instants)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::stage::{CpuWork, StageSpec, TaskSpec};
    use crate::types::BlockId;

    fn task(input: InputSpec, output: OutputSpec) -> TaskSpec {
        TaskSpec {
            input,
            cpu: CpuWork::default(),
            output,
        }
    }

    fn disk(block: u32) -> InputSpec {
        InputSpec::DiskBlock {
            block: BlockId(block),
            bytes: 1.0,
        }
    }

    fn job(stages: Vec<(Vec<u32>, Vec<TaskSpec>)>) -> JobSpec {
        JobSpec {
            name: "test".into(),
            stages: stages
                .into_iter()
                .enumerate()
                .map(|(i, (deps, tasks))| StageSpec {
                    id: StageId(i as u32),
                    deps: deps.into_iter().map(StageId).collect(),
                    name: format!("s{i}"),
                    tasks,
                })
                .collect(),
        }
    }

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            max_task_retries: 2,
            fetch_timeout_secs: Some(1.0),
            fetch_max_retries: 3,
            fetch_backoff_base_secs: 0.5,
        }
    }

    fn plane(jobs: Vec<JobSpec>, machines: usize) -> JobPlane {
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|j| (j, BlockMap::round_robin(2, 2, 1)))
            .collect();
        JobPlane::new(&jobs, machines, policy(), true, true)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn picks_local_then_no_preference_then_steals() {
        // Block 0 lives on machine 0, block 1 on machine 1.
        let none = || task(InputSpec::None, OutputSpec::None);
        let tasks = vec![
            task(disk(0), OutputSpec::None),
            task(disk(1), OutputSpec::None),
            none(),
        ];
        let mut p = plane(vec![job(vec![(vec![], tasks)])], 2);
        assert_eq!(p.pick_task(0, T0, true, None), Some((0, 0, 0)), "local");
        assert_eq!(p.pick_task(0, T0, true, None), Some((0, 0, 2)), "no-pref");
        assert_eq!(p.pick_task(0, T0, true, None), Some((0, 0, 1)), "stolen");
        assert!(!p.has_pending());
        assert_eq!(p.pick_task(0, T0, true, None), None);
        assert_eq!(p.jobs[0].stages[0].started, Some(T0));
    }

    #[test]
    fn fair_order_rotates_jobs_fifo_serves_the_first() {
        let two = || {
            job(vec![(
                vec![],
                vec![
                    task(InputSpec::None, OutputSpec::None),
                    task(InputSpec::None, OutputSpec::None),
                ],
            )])
        };
        let mut fair = plane(vec![two(), two()], 1);
        let picks: Vec<_> = (0..4).map(|_| fair.pick_task(0, T0, true, None)).collect();
        let jobs: Vec<_> = picks.iter().map(|p| p.unwrap().0).collect();
        assert_eq!(jobs, [0, 1, 0, 1]);
        let mut fifo = plane(vec![two(), two()], 1);
        let picks: Vec<_> = (0..4).map(|_| fifo.pick_task(0, T0, false, None)).collect();
        let order: Vec<_> = picks.iter().map(|p| p.map(|(j, _, t)| (j, t))).collect();
        assert_eq!(
            order,
            [Some((0, 0)), Some((0, 1)), Some((1, 0)), Some((1, 1))]
        );
    }

    #[test]
    fn gate_keeps_unhostable_tasks_queued() {
        let tasks = vec![
            task(InputSpec::None, OutputSpec::None),
            task(InputSpec::None, OutputSpec::None),
        ];
        let mut p = plane(vec![job(vec![(vec![], tasks)])], 1);
        // Only task 1 may run anywhere: the gate skips past task 0.
        let only_one = |_: &JobPlane, _m: usize, _j: usize, _s: usize, t: usize| t == 1;
        assert_eq!(p.pick_task(0, T0, true, Some(&only_one)), Some((0, 0, 1)));
        assert_eq!(p.pick_task(0, T0, true, Some(&only_one)), None);
        assert!(p.stage_gate_blocked(0, 0, &only_one));
        assert_eq!(p.first_pending_task(0, 0), Some(0));
    }

    #[test]
    fn requeue_budget_ends_in_retries_exhausted() {
        let mut p = plane(
            vec![job(vec![(
                vec![],
                vec![task(InputSpec::None, OutputSpec::None)],
            )])],
            1,
        );
        assert_eq!(p.pick_task(0, T0, true, None), Some((0, 0, 0)));
        p.requeue_task(0, 0, 0, false, T0).unwrap();
        p.requeue_task(0, 0, 0, false, T0).unwrap();
        assert_eq!(p.attempts(0, 0, 0), 2);
        assert_eq!(p.jobs[0].recovery.tasks_retried, 2);
        assert_eq!(
            p.requeue_task(0, 0, 0, false, T0),
            Err(RunError::RetriesExhausted {
                job: JobId(0),
                stage: StageId(0),
                task: TaskId(0),
                attempts: 3,
            })
        );
        assert_eq!(p.jobs[0].recovery.tasks_retried, 2);
    }

    #[test]
    fn lost_outputs_reopen_producers_and_close_consumers() {
        let map = |b| {
            task(
                disk(b),
                OutputSpec::ShuffleWrite {
                    bytes: 1.0,
                    in_memory: false,
                },
            )
        };
        let reduce = task(InputSpec::ShuffleFetch { bytes: 2.0 }, OutputSpec::None);
        let spec = job(vec![
            (vec![], vec![map(0), map(1)]),
            (vec![0], vec![reduce]),
        ]);
        let mut p = plane(vec![spec], 2);
        for m in 0..2 {
            let (ji, si, ti) = p.pick_task(m, T0, true, None).unwrap();
            p.complete_task(ji, si, ti, m, T0, false, SimTime::from_secs(1));
        }
        assert!(p.jobs[0].stages[0].done && p.jobs[0].stages[1].ready);
        let mut lost = Vec::new();
        p.lose_shuffle_outputs(1, SimTime::from_secs(2), |_, ji, si, ids| {
            lost.push((ji, si, ids.to_vec()))
        })
        .unwrap();
        assert_eq!(lost, [(0, 0, vec![1])]);
        let (map_run, reduce_run) = (&p.jobs[0].stages[0], &p.jobs[0].stages[1]);
        assert!(!map_run.done && map_run.completed == 1 && map_run.ended.is_none());
        assert_eq!(map_run.shuffle_by_machine, [1.0, 0.0]);
        assert!(!reduce_run.ready, "consumer closed until the data exists");
        assert!(p.take_recompute(0, 0, 1));
        // The producer re-runs before its consumer can be picked again.
        assert_eq!(p.pick_task(0, T0, true, None), Some((0, 0, 1)));
        assert_eq!(p.pick_task(0, T0, true, None), None);
    }

    #[test]
    fn retry_backoff_doubles_until_the_budget_is_spent() {
        let mut p = plane(
            vec![job(vec![(
                vec![],
                vec![task(InputSpec::None, OutputSpec::None)],
            )])],
            1,
        );
        let now = SimTime::from_secs(10);
        let waits: Vec<_> = (1..=3)
            .map(|k| {
                p.fetch_retry(0, 0, k, now)
                    .unwrap()
                    .since(now)
                    .as_secs_f64()
            })
            .collect();
        assert_eq!(waits, [0.5, 1.0, 2.0]);
        assert_eq!(p.fetch_retry(0, 0, 4, now), None);
        let rec = &p.jobs[0].recovery;
        assert_eq!((rec.fetch_retries, rec.fetch_backoff_seconds), (4, 3.5));
    }

    #[test]
    fn zero_backoff_still_advances_one_nanosecond() {
        let jobs = [(
            job(vec![(
                vec![],
                vec![task(InputSpec::None, OutputSpec::None)],
            )]),
            BlockMap::round_robin(1, 1, 1),
        )];
        let policy = RecoveryPolicy {
            fetch_backoff_base_secs: 0.0,
            ..policy()
        };
        let mut p = JobPlane::new(&jobs, 1, policy, true, false);
        let now = SimTime::from_secs(3);
        assert_eq!(p.fetch_retry(0, 0, 1, now), Some(SimTime(now.0 + 1)));
    }

    #[test]
    fn a_second_gate_blockage_gets_a_full_retry_budget() {
        let mut p = plane(
            vec![job(vec![(
                vec![],
                vec![task(InputSpec::None, OutputSpec::None)],
            )])],
            1,
        );
        let reachable = Cell::new(false);
        let host = |_: &JobPlane, _m: usize, _j: usize, _s: usize, _t: usize| reachable.get();
        let exhaust = |p: &mut JobPlane, from: SimTime| {
            p.arm_gate_timers(from, &host);
            let mut retries = 0;
            loop {
                let now = p.fetch_timers.peek_time().expect("gate wake-up armed");
                p.drain_fetch_timers(now);
                if let Some(hit) = p.next_exhausted_gate(&mut (0, 0), now, &host) {
                    return (hit, now);
                }
                retries += 1;
                assert!(retries <= 3, "budget never ran out");
            }
        };
        let ((_, _, _, first), t) = exhaust(&mut p, T0);
        assert_eq!(first, 4, "fetch_max_retries = 3, exhausted on the 4th");
        // The stage gets hostable, then blocked again much later.
        reachable.set(true);
        p.arm_gate_timers(t, &host);
        reachable.set(false);
        let ((_, _, _, second), _) = exhaust(&mut p, SimTime::from_secs(100));
        assert_eq!(second, 4, "the second blockage re-spends the whole budget");
        assert_eq!(p.jobs[0].recovery.fetch_retries, 8);
    }
}
