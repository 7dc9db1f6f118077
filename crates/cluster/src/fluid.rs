//! Coupled fluid allocation of machine resources among task streams.
//!
//! A **stream** is one phase of one task: a bundle of resource demands that
//! drain *in lockstep*. A fine-grained-pipelined Spark task phase that reads
//! 128 MB from disk while spending 2 CPU-seconds deserializing is a stream
//! with demand `{disk: 128 MB, cpu: 2 s}`: at every instant it consumes disk
//! bandwidth and CPU in the ratio 64 MB : 1 s, and its progress rate is set by
//! whichever resource is more contended. A monotask is simply a stream with a
//! single non-zero demand — so one allocator faithfully runs both the baseline
//! and the monotasks executor, and any modelling bias cancels out of the
//! comparison.
//!
//! Rates are assigned by progressive filling: repeatedly give every unfrozen
//! stream the fair share of each resource it uses, freeze the slowest stream
//! at its resulting rate, release what it does not use, and repeat. Each
//! stream therefore gets at least the equal share of its bottleneck resource,
//! and surplus from bottlenecked streams is redistributed — the fluid analogue
//! of OS round-robin plus work conservation.
//!
//! HDD aggregate throughput *falls* with the number of concurrent streams
//! (seeks) and SSD throughput *rises* up to the device queue depth, via
//! [`crate::hw::DiskSpec::throughput_at`]. This is how the allocator reproduces §5.4:
//! eight pipelined Spark tasks interleaving on two HDDs lose ~2× aggregate
//! disk bandwidth, while the monotasks disk scheduler (one stream per disk)
//! keeps sequential speed.
//!
//! # Incremental implementation
//!
//! Executors touch every machine at every simulation step, so the per-step
//! cost of one machine must not scale with its stream count:
//!
//! * **Sparse demands and resource counts.** Each stream keeps a sparse
//!   `(resource, demand)` list, and the allocator maintains per-disk
//!   reader/writer counts, so reallocation rounds and the concurrency-aware
//!   capacity vector cost O(non-zero demands), not O(streams × resources).
//! * **Dense, allocation-free fill.** Streams live in one id-ordered `Vec`;
//!   each reallocation flattens their sparse demands into scratch buffers the
//!   machine owns and reuses, so a warm machine reallocates without touching
//!   the heap allocator or doing a keyed lookup inside a filling round.
//! * **Deferred (virtual-time) drain.** [`FluidMachine::advance`] only moves
//!   the clock; progress fractions are materialised lazily at the next
//!   mutation. Between reallocations rates are constant, so the drain is
//!   exact, and a quiescent machine costs O(1) per step.
//! * **A cached earliest deadline.** Every reallocation already visits every
//!   stream, so it also records the machine's earliest completion instant:
//!   [`FluidMachine::next_completion`] is O(1), and
//!   [`FluidMachine::take_completed`] is O(1) when nothing is due and one
//!   pass over the streams when something is.
//! * **Batched mutations** ([`FluidMachine::begin_update`] /
//!   [`FluidMachine::commit`]) collapse a wave of stream changes at one
//!   instant into a single reallocation.
//! * **Per-resource used-rate accumulators** make [`FluidMachine::cpu_busy`],
//!   [`FluidMachine::disk_busy`] and [`FluidMachine::rx_busy`] O(1) reads.
//!
//! The original quadratic algorithm is kept verbatim as
//! [`FluidMachine::reference_reallocate`]; with the `slowcheck` cargo feature
//! every reallocation is `debug_assert!`-checked against it.

use std::collections::BTreeMap;
use std::time::Instant;

use simcore::stats::SimStats;
use simcore::time::{SimDuration, SimTime};

use crate::hw::MachineSpec;

/// Remaining progress below this fraction counts as complete.
const PROGRESS_EPSILON: f64 = 1e-9;

/// Deadline of a stream not yet priced by a reallocation (inserted inside an
/// open batch), and of an idle machine.
const NEVER: SimTime = SimTime(u64::MAX);

/// Identifies a machine in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub usize);

/// Identifies a disk within one machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DiskId(pub usize);

/// Identifies a stream within one machine's allocator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u64);

/// Resource demands of one stream, drained proportionally.
///
/// Work units: CPU in core-seconds, disk and network in bytes. Disk demand
/// distinguishes reads from writes because HDD contention does (see
/// [`crate::hw::DiskSpec`]): parallel sequential readers degrade mildly,
/// interleaved writers harshly.
#[derive(Clone, Debug, Default)]
pub struct StreamDemand {
    /// CPU work in core-seconds. A stream is single-threaded: it can use at
    /// most one core regardless of contention (Spark tasks have one thread;
    /// a compute monotask runs on one core).
    pub cpu: f64,
    /// Bytes read from each local disk, indexed by [`DiskId`].
    pub disk_read: Vec<f64>,
    /// Bytes written to each local disk, indexed by [`DiskId`].
    pub disk_write: Vec<f64>,
    /// Bytes received over the NIC.
    pub rx: f64,
}

impl StreamDemand {
    /// An all-zero demand for a machine with `n_disks` disks.
    pub fn zero(n_disks: usize) -> StreamDemand {
        StreamDemand {
            cpu: 0.0,
            disk_read: vec![0.0; n_disks],
            disk_write: vec![0.0; n_disks],
            rx: 0.0,
        }
    }

    /// A pure-CPU demand (a compute monotask).
    pub fn cpu_only(work: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.cpu = work;
        d
    }

    /// A pure-disk-read demand (a disk read monotask).
    pub fn disk_read_only(disk: DiskId, bytes: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.disk_read[disk.0] = bytes;
        d
    }

    /// A pure-disk-write demand (a disk write monotask or a cache flush).
    pub fn disk_write_only(disk: DiskId, bytes: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.disk_write[disk.0] = bytes;
        d
    }

    /// A pure-network-receive demand (a network monotask).
    pub fn rx_only(bytes: f64, n_disks: usize) -> StreamDemand {
        let mut d = StreamDemand::zero(n_disks);
        d.rx = bytes;
        d
    }

    /// Bytes moved through disk `i` in either direction.
    pub fn disk_total(&self, i: usize) -> f64 {
        self.disk_read[i] + self.disk_write[i]
    }

    /// Total demand across all resources (used to reject empty streams).
    fn total(&self) -> f64 {
        self.cpu
            + self.disk_read.iter().sum::<f64>()
            + self.disk_write.iter().sum::<f64>()
            + self.rx
    }

    /// Sparse `(resource column, demand)` pairs in ascending column order.
    fn sparse(&self) -> Vec<(usize, f64)> {
        let nd = self.disk_read.len();
        let mut v = Vec::with_capacity(2);
        if self.cpu > 0.0 {
            v.push((0, self.cpu));
        }
        for i in 0..nd {
            let d = self.disk_total(i);
            if d > 0.0 {
                v.push((1 + i, d));
            }
        }
        if self.rx > 0.0 {
            v.push((1 + nd, self.rx));
        }
        v
    }
}

#[derive(Clone, Debug)]
struct Stream {
    id: StreamId,
    demand: StreamDemand,
    /// Non-zero `(resource column, demand)` pairs of `demand`.
    sparse: Vec<(usize, f64)>,
    /// Fraction of the phase still to run as of the machine's `synced`
    /// instant, in `[0, 1]` (drain is materialised lazily).
    remaining: f64,
    /// Progress rate in fractions per second (set by `reallocate`).
    rate: f64,
    /// Completion instant at the current rate ([`NEVER`] until priced).
    deadline: SimTime,
}

impl Stream {
    /// `remaining` after draining `dt` seconds at the current rate.
    fn remaining_after(&self, dt: f64) -> f64 {
        (self.remaining - self.rate * dt).max(0.0)
    }
}

/// Scratch buffers of the progressive fill, owned by the machine and reused
/// by every reallocation. Per-stream vectors are indexed by position in the
/// machine's id-ordered stream list; per-resource vectors by column.
#[derive(Debug, Default)]
struct FillScratch {
    /// Every stream's sparse demands back to back: stream `i` owns
    /// `entries[start[i]..start[i + 1]]`.
    entries: Vec<(usize, f64)>,
    start: Vec<usize>,
    /// `1 / cpu` of streams with CPU work: the single-thread rate cap.
    cpu_cap: Vec<Option<f64>>,
    /// Tentative rate of an unfrozen stream; the final rate once frozen.
    rate: Vec<f64>,
    /// Streams selected for freezing in the current round.
    freeze: Vec<bool>,
    /// Positions of the streams still unfrozen, ascending.
    unfrozen: Vec<usize>,
    /// Capacity not yet assigned to frozen streams.
    cap_left: Vec<f64>,
    /// Unfrozen streams using each resource.
    counts: Vec<usize>,
    /// This round's fair share of each resource.
    share: Vec<f64>,
    /// What the round's tentative rates would consume.
    usage: Vec<f64>,
    saturated: Vec<bool>,
}

/// One machine's fluid resource allocator. See the module docs for the model.
#[derive(Debug)]
pub struct FluidMachine {
    spec: MachineSpec,
    /// Active streams in ascending id order.
    streams: Vec<Stream>,
    /// Streams currently reading / writing each disk (drives the
    /// concurrency-dependent capacity without scanning streams).
    disk_readers: Vec<usize>,
    disk_writers: Vec<usize>,
    /// Fault-injection service-rate multiplier per resource column (1.0 =
    /// healthy). Multiplying by exactly 1.0 is a bit-exact no-op, so a run
    /// without degradations is unchanged.
    scale: Vec<f64>,
    /// Capacity vector as of the last reallocation.
    caps: Vec<f64>,
    /// Delivered rate per resource column as of the last reallocation.
    res_used: Vec<f64>,
    fill: FillScratch,
    /// Earliest stream deadline ([`NEVER`] when idle).
    next_deadline: SimTime,
    /// Clock position; progress fractions are accurate as of `synced` only.
    last_advance: SimTime,
    synced: SimTime,
    epoch: u64,
    /// Open `begin_update` scopes; mutations defer reallocation while > 0.
    batch_depth: u32,
    /// A mutation happened inside the open batch.
    dirty: bool,
    reallocs: u64,
    alloc_nanos: u64,
    drain_nanos: u64,
    completion_nanos: u64,
}

impl FluidMachine {
    /// Creates an idle machine with the given hardware.
    pub fn new(spec: MachineSpec) -> FluidMachine {
        let nd = spec.disks.len();
        let nr = 2 + nd;
        let mut m = FluidMachine {
            spec,
            streams: Vec::new(),
            disk_readers: vec![0; nd],
            disk_writers: vec![0; nd],
            scale: vec![1.0; nr],
            caps: vec![0.0; nr],
            res_used: vec![0.0; nr],
            fill: FillScratch::default(),
            next_deadline: NEVER,
            last_advance: SimTime::ZERO,
            synced: SimTime::ZERO,
            epoch: 0,
            batch_depth: 0,
            dirty: false,
            reallocs: 0,
            alloc_nanos: 0,
            drain_nanos: 0,
            completion_nanos: 0,
        };
        m.refresh_caps();
        m
    }

    /// The machine's hardware spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Stale-event guard; bumped on every stream-set mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of active streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Position of stream `id` in the id-ordered list, if active.
    fn position(&self, id: StreamId) -> Option<usize> {
        self.streams.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Whether `id` is currently active.
    pub fn contains(&self, id: StreamId) -> bool {
        self.position(id).is_some()
    }

    /// Control-plane cost counters for this machine.
    pub fn stats(&self) -> SimStats {
        SimStats {
            reallocs: self.reallocs,
            alloc_nanos: self.alloc_nanos,
            drain_nanos: self.drain_nanos,
            completion_nanos: self.completion_nanos,
            ..SimStats::default()
        }
    }

    /// Moves the clock to `now`. Stream progress is drained lazily: rates are
    /// constant between reallocations, so the exact drain can be (and is)
    /// applied at the next mutation instead of on every call. O(1).
    pub fn advance(&mut self, now: SimTime) {
        // `since` panics if time runs backwards, preserving the old contract.
        let dt = now.since(self.last_advance);
        self.last_advance = now;
        debug_assert!(
            !(dt > SimDuration::ZERO && self.batch_depth > 0 && self.dirty),
            "time advanced inside an open batch with pending mutations"
        );
    }

    /// Applies the pending lazy drain, making every `remaining` accurate as
    /// of `last_advance`.
    fn materialize(&mut self) {
        let dt = self.lag();
        self.synced = self.last_advance;
        if dt == 0.0 {
            return;
        }
        for s in &mut self.streams {
            s.remaining = s.remaining_after(dt);
        }
    }

    /// Seconds of drain not yet materialised into `remaining`.
    fn lag(&self) -> f64 {
        self.last_advance.since(self.synced).as_secs_f64()
    }

    /// Opens a batched-update scope: mutations (insert / remove /
    /// take_completed) made before the matching [`FluidMachine::commit`]
    /// defer their reallocation, so a wave of changes at one instant costs a
    /// single recomputation. Scopes nest; only the outermost commit
    /// reallocates. All mutations inside a batch must happen at the same
    /// instant (time must not advance until commit).
    pub fn begin_update(&mut self) {
        self.batch_depth += 1;
    }

    /// Closes a [`FluidMachine::begin_update`] scope, reallocating once if
    /// any mutation happened inside it. Returns the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit(&mut self, now: SimTime) -> u64 {
        assert!(self.batch_depth > 0, "commit without begin_update");
        self.batch_depth -= 1;
        if self.batch_depth == 0 && self.dirty {
            self.advance(now);
            self.dirty = false;
            self.reallocate();
        }
        self.epoch
    }

    /// Reallocates now, or defers to the enclosing batch's commit.
    fn after_mutation(&mut self) {
        if self.batch_depth > 0 {
            self.dirty = true;
        } else {
            self.reallocate();
        }
        self.epoch += 1;
    }

    /// Adds a stream; returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics on duplicate id, wrong disk-vector length, or a demand that is
    /// empty or non-finite.
    pub fn insert(&mut self, now: SimTime, id: StreamId, demand: StreamDemand) -> u64 {
        assert!(
            demand.disk_read.len() == self.spec.disks.len()
                && demand.disk_write.len() == self.spec.disks.len(),
            "disk demand vector length mismatch"
        );
        let total = demand.total();
        assert!(
            total.is_finite() && total > 0.0,
            "stream demand must be positive: {demand:?}"
        );
        assert!(
            demand.cpu >= 0.0
                && demand.rx >= 0.0
                && demand.disk_read.iter().all(|b| *b >= 0.0)
                && demand.disk_write.iter().all(|b| *b >= 0.0),
            "negative demand component: {demand:?}"
        );
        self.advance(now);
        let Err(pos) = self.streams.binary_search_by_key(&id, |s| s.id) else {
            panic!("stream {id:?} inserted twice");
        };
        for i in 0..self.spec.disks.len() {
            if demand.disk_read[i] > 0.0 {
                self.disk_readers[i] += 1;
            }
            if demand.disk_write[i] > 0.0 {
                self.disk_writers[i] += 1;
            }
        }
        let sparse = demand.sparse();
        self.streams.insert(
            pos,
            Stream {
                id,
                demand,
                sparse,
                remaining: 1.0,
                rate: 0.0,
                deadline: NEVER,
            },
        );
        self.after_mutation();
        self.epoch
    }

    /// Drops a (just removed) stream's contribution to the per-disk
    /// reader/writer counts.
    fn detach(readers: &mut [usize], writers: &mut [usize], s: &Stream) {
        for (i, (r, w)) in readers.iter_mut().zip(writers.iter_mut()).enumerate() {
            if s.demand.disk_read[i] > 0.0 {
                *r -= 1;
            }
            if s.demand.disk_write[i] > 0.0 {
                *w -= 1;
            }
        }
    }

    /// Removes a stream regardless of progress; returns the remaining
    /// fraction if it was active.
    ///
    /// Only the removed stream's lazy drain is materialized (O(1)); the
    /// survivors are drained by the reallocation this removal triggers, at
    /// the same instant and the same rates, so the result is identical to an
    /// eager full drain.
    pub fn remove(&mut self, now: SimTime, id: StreamId) -> Option<f64> {
        self.advance(now);
        let pos = self.position(id)?;
        let remaining = self.streams[pos].remaining_after(self.lag());
        let s = self.streams.remove(pos);
        Self::detach(&mut self.disk_readers, &mut self.disk_writers, &s);
        self.after_mutation();
        Some(remaining)
    }

    /// Removes and returns all streams whose phase has fully drained, in
    /// ascending id order. Equivalent to
    /// [`FluidMachine::take_completed_into`] with a fresh buffer.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<StreamId> {
        let mut done = Vec::new();
        self.take_completed_into(now, &mut done);
        done
    }

    /// Removes all streams whose phase has fully drained, appending their
    /// ids to `done` (cleared first) in ascending id order. O(1) when
    /// nothing is due — the speculative-polling fast path allocates nothing.
    ///
    /// Completed streams are dropped without a full drain pass: survivors
    /// are materialized by the reallocation the wave triggers, at the same
    /// instant and rates, so the outcome matches the eager version exactly.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<StreamId>) {
        self.advance(now);
        done.clear();
        if self.next_deadline > now {
            return;
        }
        let timer = Instant::now();
        let dt = self.lag();
        let (readers, writers) = (&mut self.disk_readers, &mut self.disk_writers);
        let mut next = NEVER;
        self.streams.retain_mut(|s| {
            if s.deadline <= now {
                let remaining = s.remaining_after(dt);
                if remaining <= PROGRESS_EPSILON {
                    done.push(s.id);
                    Self::detach(readers, writers, s);
                    return false;
                }
                // Floating-point drift: the deadline undershot the true
                // completion by a whisker. Reschedule from current progress.
                s.deadline =
                    now + SimDuration::from_secs_f64(remaining / s.rate).max(SimDuration::NANO);
            }
            next = next.min(s.deadline);
            true
        });
        self.next_deadline = next;
        self.completion_nanos += timer.elapsed().as_nanos() as u64;
        if !done.is_empty() {
            self.after_mutation();
        }
    }

    /// Instant of the next stream completion if the set does not change.
    ///
    /// # Contract
    ///
    /// `now` may be at or after the last observed time: the machine first
    /// self-advances to `now`, then reads the cached earliest deadline.
    /// Passing a `now` earlier than a previously observed instant panics with
    /// "time ran backwards". Must not be called inside an open
    /// [`FluidMachine::begin_update`] batch, where rates are stale by
    /// construction.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        debug_assert!(
            self.batch_depth == 0,
            "next_completion inside an open batch"
        );
        self.advance(now);
        (self.next_deadline != NEVER).then(|| self.next_deadline.max(now))
    }

    /// Current progress rate of `id` in fractions/second, if active.
    pub fn rate(&self, id: StreamId) -> Option<f64> {
        self.position(id).map(|pos| self.streams[pos].rate)
    }

    /// Number of resource "columns": CPU, each disk, NIC receive.
    fn n_resources(&self) -> usize {
        2 + self.spec.disks.len()
    }

    /// Writes the capacity vector given the current stream population
    /// (HDD/SSD efficiency depends on how many readers and writers touch each
    /// disk) into `caps`, reusing its storage. O(disks) via the maintained
    /// reader/writer counts.
    fn capacities_into(&self, caps: &mut Vec<f64>) {
        let nd = self.spec.disks.len();
        caps.clear();
        caps.push(self.spec.cores as f64);
        for (i, d) in self.spec.disks.iter().enumerate() {
            let (k_r, k_w) = (self.disk_readers[i], self.disk_writers[i]);
            let healthy = if k_r + k_w == 0 {
                d.throughput
            } else {
                d.throughput_at_rw(k_r, k_w)
            };
            caps.push(healthy * self.scale[1 + i]);
        }
        caps.push(self.spec.nic * self.scale[1 + nd]);
        debug_assert_eq!(caps.len(), 2 + nd);
    }

    /// Recomputes `caps` in place.
    fn refresh_caps(&mut self) {
        let mut caps = std::mem::take(&mut self.caps);
        self.capacities_into(&mut caps);
        self.caps = caps;
    }

    /// Sets the fault-injection service-rate scale of disk `disk` (`1.0`
    /// restores the healthy rate exactly). In-flight streams are drained at
    /// their old rates up to `now`, then rates recompute under the new
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics on a nonexistent disk or a non-positive/non-finite factor.
    pub fn set_disk_scale(&mut self, now: SimTime, disk: usize, factor: f64) {
        assert!(
            disk < self.spec.disks.len(),
            "set_disk_scale: no disk {disk}"
        );
        assert!(
            factor.is_finite() && factor > 0.0,
            "set_disk_scale: bad factor {factor}"
        );
        self.advance(now);
        self.scale[1 + disk] = factor;
        self.after_mutation();
    }

    /// Sets the fault-injection bandwidth scale of the NIC (`1.0` restores
    /// the healthy rate exactly). Same drain semantics as
    /// [`FluidMachine::set_disk_scale`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive/non-finite factor.
    pub fn set_nic_scale(&mut self, now: SimTime, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "set_nic_scale: bad factor {factor}"
        );
        self.advance(now);
        let nic = self.scale.len() - 1;
        self.scale[nic] = factor;
        self.after_mutation();
    }

    /// Demand of `s` on resource column `r` (dense; used by the reference).
    fn demand_at(s: &Stream, r: usize, nd: usize) -> f64 {
        if r == 0 {
            s.demand.cpu
        } else if r <= nd {
            s.demand.disk_total(r - 1)
        } else {
            s.demand.rx
        }
    }

    /// Recomputes stream rates, capacities, used-rate accumulators, and
    /// completion deadlines. Called on every effective mutation.
    fn reallocate(&mut self) {
        let drain_timer = Instant::now();
        self.reallocs += 1;
        self.materialize();
        let drained = drain_timer.elapsed().as_nanos() as u64;
        self.drain_nanos += drained;
        let timer = Instant::now();
        self.refresh_caps();
        self.res_used.fill(0.0);
        if !self.streams.is_empty() {
            self.fill_rates();
            #[cfg(feature = "slowcheck")]
            self.assert_matches_reference();
        }
        self.refresh_deadlines();
        self.alloc_nanos += timer.elapsed().as_nanos() as u64;
    }

    /// Progressive filling proper (module docs). Each round computes every
    /// unfrozen stream's tentative rate from the fair shares of the capacity
    /// still unassigned, then freezes:
    ///
    /// 1. streams running at their own single-thread cap (they cannot go
    ///    faster, and freezing them releases their unused shares), else
    /// 2. streams whose rate is set by a *saturated* resource (one whose
    ///    remaining capacity the tentative rates fully consume), else
    /// 3. the single slowest stream (a deterministic fallback that guarantees
    ///    termination; its rate is already max-min feasible).
    ///
    /// Identical round structure to [`FluidMachine::reference_reallocate`],
    /// but over sparse demands flattened into the machine's reusable
    /// [`FillScratch`], with claimant counts maintained across rounds instead
    /// of rescanning every stream × resource. Every accumulation runs over
    /// streams in ascending id order, so rounding does not depend on storage
    /// (the rates are pinned to the bit by a unit test). Every round freezes
    /// at least one stream, so at most `streams` rounds run. Also accumulates
    /// the delivered rate per resource.
    fn fill_rates(&mut self) {
        let FillScratch {
            entries,
            start,
            cpu_cap,
            rate,
            freeze,
            unfrozen,
            cap_left,
            counts,
            share,
            usage,
            saturated,
        } = &mut self.fill;
        let n = self.streams.len();
        let nr = self.caps.len();
        entries.clear();
        start.clear();
        cpu_cap.clear();
        counts.clear();
        counts.resize(nr, 0);
        for s in &self.streams {
            start.push(entries.len());
            entries.extend_from_slice(&s.sparse);
            for &(r, _) in &s.sparse {
                counts[r] += 1;
            }
            cpu_cap.push((s.demand.cpu > 0.0).then(|| 1.0 / s.demand.cpu));
        }
        start.push(entries.len());
        rate.clear();
        rate.resize(n, 0.0);
        freeze.clear();
        freeze.resize(n, false);
        unfrozen.clear();
        unfrozen.extend(0..n);
        cap_left.clone_from(&self.caps);
        share.resize(nr, 0.0);
        usage.resize(nr, 0.0);
        saturated.resize(nr, false);
        while !unfrozen.is_empty() {
            for r in 0..nr {
                share[r] = (cap_left[r] / counts[r] as f64).max(0.0);
            }
            // Tentative rate for each unfrozen stream from fair shares; a
            // stream held to its single-thread cap (one core) freezes.
            for &i in unfrozen.iter() {
                let mut tentative = f64::INFINITY;
                for &(r, d) in &entries[start[i]..start[i + 1]] {
                    tentative = tentative.min(share[r] / d);
                }
                freeze[i] = false;
                if let Some(cap) = cpu_cap[i] {
                    if cap <= tentative {
                        tentative = cap;
                        freeze[i] = true;
                    }
                }
                debug_assert!(tentative.is_finite());
                rate[i] = tentative;
            }
            // Which resources would the tentative rates saturate?
            usage.fill(0.0);
            for &i in unfrozen.iter() {
                for &(r, d) in &entries[start[i]..start[i + 1]] {
                    usage[r] += rate[i] * d;
                }
            }
            for r in 0..nr {
                saturated[r] = counts[r] > 0 && usage[r] >= cap_left[r] * (1.0 - 1e-9);
            }
            // Select the streams to freeze this round (decided against the
            // round's snapshot of shares, applied afterwards).
            let mut any = false;
            for &i in unfrozen.iter() {
                freeze[i] = freeze[i]
                    || entries[start[i]..start[i + 1]]
                        .iter()
                        .any(|&(r, d)| saturated[r] && rate[i] >= share[r] / d * (1.0 - 1e-9));
                any |= freeze[i];
            }
            if !any {
                // Fallback: freeze the single slowest stream (lowest id on a
                // tie).
                let mut slowest = unfrozen[0];
                for &i in &unfrozen[1..] {
                    if rate[i] < rate[slowest] {
                        slowest = i;
                    }
                }
                freeze[slowest] = true;
            }
            for &i in unfrozen.iter().filter(|&&i| freeze[i]) {
                for &(r, d) in &entries[start[i]..start[i + 1]] {
                    cap_left[r] = (cap_left[r] - rate[i] * d).max(0.0);
                    counts[r] -= 1;
                }
            }
            unfrozen.retain(|&i| !freeze[i]);
        }
        for (i, s) in self.streams.iter_mut().enumerate() {
            s.rate = rate[i];
            for &(r, d) in &entries[start[i]..start[i + 1]] {
                self.res_used[r] += s.rate * d;
            }
        }
    }

    /// Recomputes every stream's completion deadline after a rate change,
    /// and the machine's earliest one.
    fn refresh_deadlines(&mut self) {
        let now = self.last_advance;
        let mut next = NEVER;
        for s in &mut self.streams {
            s.deadline = if s.remaining <= PROGRESS_EPSILON {
                now
            } else {
                debug_assert!(s.rate > 0.0, "active stream with zero rate");
                now + SimDuration::from_secs_f64(s.remaining / s.rate).max(SimDuration::NANO)
            };
            next = next.min(s.deadline);
        }
        self.next_deadline = next;
    }

    /// The original quadratic progressive-filling algorithm, kept verbatim as
    /// the executable specification. Returns the rate for every active stream
    /// without touching machine state. With the `slowcheck` feature, every
    /// reallocation is checked against this.
    pub fn reference_reallocate(&self) -> BTreeMap<StreamId, f64> {
        let nd = self.spec.disks.len();
        let nr = self.n_resources();
        let mut rates: BTreeMap<StreamId, f64> = BTreeMap::new();
        let mut cap_left = Vec::new();
        self.capacities_into(&mut cap_left);
        let by_id = |id: &StreamId| &self.streams[self.position(*id).expect("stream present")];
        let mut unfrozen: Vec<StreamId> = self.streams.iter().map(|s| s.id).collect();
        while !unfrozen.is_empty() {
            let mut counts = vec![0usize; nr];
            for id in &unfrozen {
                let s = by_id(id);
                for (r, c) in counts.iter_mut().enumerate() {
                    if Self::demand_at(s, r, nd) > 0.0 {
                        *c += 1;
                    }
                }
            }
            let share = |r: usize, counts: &[usize], cap_left: &[f64]| -> f64 {
                (cap_left[r] / counts[r] as f64).max(0.0)
            };
            let mut tentative: Vec<(StreamId, f64, bool)> = Vec::with_capacity(unfrozen.len());
            for id in &unfrozen {
                let s = by_id(id);
                let mut rate = f64::INFINITY;
                for r in 0..nr {
                    let d = Self::demand_at(s, r, nd);
                    if d > 0.0 {
                        rate = rate.min(share(r, &counts, &cap_left) / d);
                    }
                }
                let mut cap_bound = false;
                if s.demand.cpu > 0.0 {
                    let cap = 1.0 / s.demand.cpu;
                    if cap <= rate {
                        rate = cap;
                        cap_bound = true;
                    }
                }
                debug_assert!(rate.is_finite());
                tentative.push((*id, rate, cap_bound));
            }
            let mut usage = vec![0.0f64; nr];
            for (id, rate, _) in &tentative {
                let s = by_id(id);
                for (r, u) in usage.iter_mut().enumerate() {
                    *u += rate * Self::demand_at(s, r, nd);
                }
            }
            let saturated: Vec<bool> = (0..nr)
                .map(|r| counts[r] > 0 && usage[r] >= cap_left[r] * (1.0 - 1e-9))
                .collect();
            let mut to_freeze: Vec<(StreamId, f64)> = tentative
                .iter()
                .filter(|(id, rate, cap_bound)| {
                    if *cap_bound {
                        return true;
                    }
                    let s = by_id(id);
                    (0..nr).any(|r| {
                        saturated[r] && {
                            let d = Self::demand_at(s, r, nd);
                            d > 0.0 && *rate >= share(r, &counts, &cap_left) / d * (1.0 - 1e-9)
                        }
                    })
                })
                .map(|(id, rate, _)| (*id, *rate))
                .collect();
            if to_freeze.is_empty() {
                let slowest = tentative
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN rate").then(a.0.cmp(&b.0)))
                    .expect("unfrozen set non-empty");
                to_freeze.push((slowest.0, slowest.1));
            }
            for (id, rate) in to_freeze {
                let s = by_id(&id);
                rates.insert(id, rate);
                for (r, cap) in cap_left.iter_mut().enumerate() {
                    *cap = (*cap - rate * Self::demand_at(s, r, nd)).max(0.0);
                }
                unfrozen.retain(|u| *u != id);
            }
        }
        rates
    }

    /// Asserts the incremental rates match the reference fixpoint.
    #[cfg(feature = "slowcheck")]
    fn assert_matches_reference(&self) {
        let reference = self.reference_reallocate();
        for s in &self.streams {
            let (id, want) = (s.id, reference[&s.id]);
            let tol = want.abs() * 1e-9 + 1e-12;
            debug_assert!(
                (s.rate - want).abs() <= tol,
                "rate mismatch for {id:?}: incremental {} vs reference {want}",
                s.rate
            );
        }
    }

    /// CPU busy fraction: delivered core-seconds per second over cores. O(1).
    pub fn cpu_busy(&self) -> f64 {
        (self.res_used[0] / self.spec.cores as f64).min(1.0)
    }

    /// Disk busy fraction: delivered bytes/s over what the device can deliver
    /// at its current concurrency (a fully seek-bound disk reports 1.0). O(1).
    pub fn disk_busy(&self, disk: DiskId) -> f64 {
        (self.res_used[1 + disk.0] / self.caps[1 + disk.0]).min(1.0)
    }

    /// NIC receive busy fraction. O(1).
    pub fn rx_busy(&self) -> f64 {
        (self.res_used[1 + self.spec.disks.len()] / self.spec.nic).min(1.0)
    }
}

/// Every machine's [`FluidMachine`] plus a per-machine next-completion
/// cache keyed on the allocator epoch.
///
/// Most events touch a handful of machines. A machine whose epoch did not
/// move since its deadline was cached keeps that deadline, so the completion
/// sweep and the next-event scan cost scales with the machines that changed,
/// not with the cluster size. Bit-identical to querying every allocator: the
/// cache only skips recomputing a value the allocator would return unchanged.
#[derive(Debug)]
pub struct FluidCluster {
    machines: Vec<FluidMachine>,
    next: Vec<Option<SimTime>>,
    epoch: Vec<u64>,
}

impl FluidCluster {
    /// `n` idle machines of the same hardware.
    pub fn new(n: usize, spec: &MachineSpec) -> FluidCluster {
        FluidCluster {
            machines: (0..n).map(|_| FluidMachine::new(spec.clone())).collect(),
            next: vec![None; n],
            epoch: vec![u64::MAX; n],
        }
    }

    /// Every allocator, in machine order.
    pub fn iter(&self) -> std::slice::Iter<'_, FluidMachine> {
        self.machines.iter()
    }

    /// Opens a [`FluidMachine::begin_update`] batch on every machine.
    pub fn begin_update_all(&mut self) {
        for m in &mut self.machines {
            m.begin_update();
        }
    }

    /// Commits every machine's batch, reallocating the dirty ones once.
    pub fn commit_all(&mut self, now: SimTime) {
        for m in &mut self.machines {
            m.commit(now);
        }
    }

    /// Drains machine `m`'s completions due at `now` into `done` and returns
    /// true, or returns false without touching `done` when the cached
    /// deadline (still valid: same epoch) lies in the future.
    pub fn poll_completed(&mut self, m: usize, now: SimTime, done: &mut Vec<StreamId>) -> bool {
        let fluid = &mut self.machines[m];
        if self.epoch[m] == fluid.epoch() && self.next[m].is_none_or(|t| t > now) {
            return false;
        }
        fluid.advance(now);
        fluid.take_completed_into(now, done);
        true
    }

    /// Earliest next completion over the machines `live` admits. Only
    /// machines whose epoch moved since the last call re-derive their
    /// deadline.
    pub fn next_completion(
        &mut self,
        now: SimTime,
        live: impl Fn(usize) -> bool,
    ) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for (m, fluid) in self.machines.iter_mut().enumerate() {
            if !live(m) {
                continue;
            }
            let epoch = fluid.epoch();
            if self.epoch[m] != epoch {
                self.next[m] = fluid.next_completion(now);
                self.epoch[m] = epoch;
            }
            if let Some(t) = self.next[m] {
                next = Some(next.map_or(t, |b| b.min(t)));
            }
        }
        next
    }
}

impl std::ops::Index<usize> for FluidCluster {
    type Output = FluidMachine;
    fn index(&self, m: usize) -> &FluidMachine {
        &self.machines[m]
    }
}

impl std::ops::IndexMut<usize> for FluidCluster {
    fn index_mut(&mut self, m: usize) -> &mut FluidMachine {
        &mut self.machines[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::{DiskSpec, MIB};

    fn machine(cores: u32, disks: usize) -> FluidMachine {
        FluidMachine::new(MachineSpec {
            cores,
            memory: 4.0 * 1024.0 * MIB,
            disks: vec![DiskSpec::hdd(); disks],
            nic: 125.0 * MIB,
        })
    }

    fn t(secs: f64) -> SimTime {
        SimTime(SimDuration::from_secs_f64(secs).0)
    }

    #[test]
    fn single_cpu_stream_runs_on_one_core() {
        let mut m = machine(8, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(4.0, 1));
        // 4 core-seconds on one thread: 4 seconds, not 0.5.
        assert_eq!(m.next_completion(SimTime::ZERO), Some(t(4.0)));
        assert!((m.cpu_busy() - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_stream_bound_by_slowest_resource() {
        let mut m = machine(8, 1);
        let hdd = DiskSpec::hdd().throughput;
        // Read one disk-second of bytes while using 0.1 CPU-seconds:
        // disk-bound, finishes in ~1 s with disk fully busy.
        let mut d = StreamDemand::disk_read_only(DiskId(0), hdd, 1);
        d.cpu = 0.1;
        m.insert(SimTime::ZERO, StreamId(1), d);
        let done = m.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((m.disk_busy(DiskId(0)) - 1.0).abs() < 1e-9);
        // CPU used in proportion: 0.1 cores.
        assert!((m.cpu_busy() - 0.1 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn hdd_interleaving_slows_aggregate() {
        let mut m = machine(8, 1);
        let hdd = DiskSpec::hdd();
        // Two streams each reading 1 sequential-second of bytes.
        for i in 0..2 {
            m.insert(
                SimTime::ZERO,
                StreamId(i),
                StreamDemand::disk_read_only(DiskId(0), hdd.throughput, 1),
            );
        }
        // Two readers → aggregate = 1/(1+read_factor) of sequential; both
        // finish at 2·(1+read_factor) seconds.
        let factor = DiskSpec::hdd().read_seek_factor;
        let done = m.next_completion(SimTime::ZERO).unwrap();
        assert!(
            (done.as_secs_f64() - 2.0 * (1.0 + factor)).abs() < 1e-6,
            "{done:?}"
        );
        // The device is flat-out (seek-bound): busy fraction 1.
        assert!((m.disk_busy(DiskId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn surplus_from_bottlenecked_stream_is_redistributed() {
        let mut m = machine(1, 1);
        let hdd = DiskSpec::hdd();
        // Stream A: CPU-bound (1 core-second + tiny disk).
        let mut a = StreamDemand::cpu_only(1.0, 1);
        a.disk_read[0] = 0.01 * hdd.throughput_at(2);
        // Stream B: disk-only.
        let b = StreamDemand::disk_read_only(DiskId(0), hdd.throughput_at(2), 1);
        m.insert(SimTime::ZERO, StreamId(1), a);
        m.insert(SimTime::ZERO, StreamId(2), b);
        // A is frozen first (CPU cap), using 1% of disk; B should get the
        // remaining 99%, not just the 50% equal share.
        let rb = m.rate(StreamId(2)).unwrap();
        assert!(rb > 0.95, "B rate {rb} — surplus not redistributed");
    }

    #[test]
    fn cpu_shared_fairly_beyond_cores() {
        let mut m = machine(2, 1);
        for i in 0..4 {
            m.insert(SimTime::ZERO, StreamId(i), StreamDemand::cpu_only(1.0, 1));
        }
        // 4 single-threaded streams on 2 cores: each at 0.5 cores.
        for i in 0..4 {
            assert!((m.rate(StreamId(i)).unwrap() - 0.5).abs() < 1e-9);
        }
        assert!((m.cpu_busy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completion_frees_capacity() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
        m.insert(SimTime::ZERO, StreamId(2), StreamDemand::cpu_only(2.0, 1));
        // Equal shares: stream 1 done at t=2.
        let c1 = m.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c1, t(2.0));
        m.advance(c1);
        assert_eq!(m.take_completed(c1), vec![StreamId(1)]);
        // Stream 2 has 1 core-second left at full speed: done at t=3.
        assert_eq!(m.next_completion(c1), Some(t(3.0)));
    }

    #[test]
    fn rx_is_a_first_class_resource() {
        let mut m = machine(8, 1);
        let nic = 125.0 * MIB;
        m.insert(
            SimTime::ZERO,
            StreamId(1),
            StreamDemand::rx_only(nic * 2.0, 1),
        );
        assert_eq!(m.next_completion(SimTime::ZERO), Some(t(2.0)));
        assert!((m.rx_busy() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn empty_demand_rejected() {
        let mut m = machine(1, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(0.0, 1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_disk_vector_rejected() {
        let mut m = machine(1, 2);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(1.0, 1));
    }

    #[test]
    fn rates_match_reference_fixpoint() {
        let mut m = machine(4, 2);
        let hdd = DiskSpec::hdd();
        for i in 0..12u64 {
            let mut d = StreamDemand::zero(2);
            match i % 4 {
                0 => d.cpu = 0.5 + i as f64 * 0.1,
                1 => d.disk_read[(i % 2) as usize] = 0.3 * hdd.throughput,
                2 => {
                    d.disk_write[(i % 2) as usize] = 0.2 * hdd.throughput;
                    d.cpu = 0.05;
                }
                _ => d.rx = 30.0 * MIB,
            }
            m.insert(SimTime::ZERO, StreamId(i), d);
        }
        let reference = m.reference_reallocate();
        for (id, want) in reference {
            let got = m.rate(id).unwrap();
            assert!(
                (got - want).abs() <= want.abs() * 1e-9 + 1e-12,
                "{id:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn batched_insert_matches_unbatched_and_reallocates_once() {
        let mut plain = machine(4, 2);
        let mut batched = machine(4, 2);
        batched.begin_update();
        for i in 0..16u64 {
            let d = StreamDemand::cpu_only(1.0 + i as f64 * 0.25, 2);
            plain.insert(SimTime::ZERO, StreamId(i), d.clone());
            batched.insert(SimTime::ZERO, StreamId(i), d);
        }
        let epoch = batched.commit(SimTime::ZERO);
        assert_eq!(epoch, plain.epoch());
        for i in 0..16u64 {
            assert_eq!(batched.rate(StreamId(i)), plain.rate(StreamId(i)));
        }
        assert_eq!(batched.stats().reallocs, 1);
        assert_eq!(plain.stats().reallocs, 16);
        assert_eq!(
            batched.next_completion(SimTime::ZERO),
            plain.next_completion(SimTime::ZERO)
        );
    }

    #[test]
    fn lazy_drain_matches_eager_observation() {
        let mut m = machine(2, 1);
        m.insert(SimTime::ZERO, StreamId(1), StreamDemand::cpu_only(2.0, 1));
        m.insert(SimTime::ZERO, StreamId(2), StreamDemand::cpu_only(4.0, 1));
        // Advance in many small steps (as executors do); nothing completes,
        // so each step is O(1) and progress stays virtual.
        for k in 1..=10 {
            m.advance(t(k as f64 * 0.1));
            assert!(m.take_completed(t(k as f64 * 0.1)).is_empty());
        }
        // Removing stream 2 at t=1 must see exactly 1 of its 4 core-seconds
        // done: remaining 3/4.
        let rem = m.remove(t(1.0), StreamId(2)).unwrap();
        assert!((rem - 0.75).abs() < 1e-12, "rem={rem}");
        // Stream 1 then finishes its remaining 1 core-second at t=2.
        assert_eq!(m.next_completion(t(1.0)), Some(t(2.0)));
    }

    /// Each stream's rate as `f64` bits, in ascending id order, and the next
    /// completion instant in ns.
    fn pin(m: &mut FluidMachine, ids: std::ops::Range<u64>, now: SimTime) -> (Vec<u64>, u64) {
        let rates = ids
            .filter_map(|i| m.rate(StreamId(i)))
            .map(f64::to_bits)
            .collect();
        (rates, m.next_completion(now).expect("streams active").0)
    }

    /// Sparklike-shaped pipelined tasks: read disk `i % 2` while computing,
    /// write the other disk.
    fn pipelined(m: &mut FluidMachine, ids: std::ops::Range<u64>) {
        for i in ids {
            let mut d = StreamDemand::zero(2);
            d.disk_read[(i % 2) as usize] = (40.0 + 7.0 * i as f64) * MIB;
            d.cpu = 0.15 + 0.11 * i as f64;
            d.disk_write[((i + 1) % 2) as usize] = (3.0 + i as f64) * MIB;
            m.insert(SimTime::ZERO, StreamId(i), d);
        }
    }

    /// Rates and deadlines of fixed stream mixes, to the last bit: any change
    /// to the fill's floating-point operations or their order shows here
    /// (`slowcheck` allows 1e-9 relative error, which would not catch a
    /// last-bit drift that moves a pinned makespan).
    #[test]
    fn rates_and_deadlines_pinned_to_the_bit() {
        // 10 single-threaded CPU streams share 8 cores.
        let mut m = machine(8, 1);
        for i in 0..10u64 {
            let work = 1.0 + 0.37 * i as f64;
            m.insert(SimTime::ZERO, StreamId(i), StreamDemand::cpu_only(work, 1));
        }
        let shared = pin(&mut m, 0..10, SimTime::ZERO);

        // 5 CPU streams on 8 cores: each capped at one core.
        let mut m = machine(8, 1);
        for i in 0..5u64 {
            let work = 0.5 + 0.9 * i as f64;
            m.insert(SimTime::ZERO, StreamId(i), StreamDemand::cpu_only(work, 1));
        }
        let capped = pin(&mut m, 0..5, SimTime::ZERO);

        // 3 readers + 2 writers on one HDD, plus NIC-only streams.
        let mut m = machine(8, 2);
        for i in 0..3u64 {
            let d = StreamDemand::disk_read_only(DiskId(0), (20.0 + 5.0 * i as f64) * MIB, 2);
            m.insert(SimTime::ZERO, StreamId(i), d);
        }
        for i in 3..5u64 {
            let d = StreamDemand::disk_write_only(DiskId(0), (8.0 + 3.0 * i as f64) * MIB, 2);
            m.insert(SimTime::ZERO, StreamId(i), d);
        }
        for i in 5..9u64 {
            m.insert(
                SimTime::ZERO,
                StreamId(i),
                StreamDemand::rx_only((11.0 + i as f64) * MIB, 2),
            );
        }
        let hdd_rx = pin(&mut m, 0..9, SimTime::ZERO);

        // Pipelined read+CPU+write streams with a CPU-bound one that frees
        // disk bandwidth: the disk-bound stream only gets the surplus in a
        // later filling round.
        let mut m = machine(8, 2);
        pipelined(&mut m, 0..6);
        let mut a = StreamDemand::cpu_only(1.0, 2);
        a.disk_read[0] = MIB;
        let b = StreamDemand::disk_read_only(DiskId(1), 100.0 * MIB, 2);
        m.insert(SimTime::ZERO, StreamId(6), a);
        m.insert(SimTime::ZERO, StreamId(7), b);
        let multi_round = pin(&mut m, 0..8, SimTime::ZERO);

        // Fault-degraded devices: disk 1 at 0.3x, NIC at 0.5x.
        let mut m = machine(8, 2);
        pipelined(&mut m, 0..4);
        for i in 4..7u64 {
            m.insert(
                SimTime::ZERO,
                StreamId(i),
                StreamDemand::rx_only((9.0 + 2.0 * i as f64) * MIB, 2),
            );
        }
        m.set_disk_scale(SimTime::ZERO, 1, 0.3);
        m.set_nic_scale(SimTime::ZERO, 0.5);
        let degraded = pin(&mut m, 0..7, SimTime::ZERO);

        // The same kind of mix after a partial drain and one removal.
        let mut m = machine(8, 2);
        pipelined(&mut m, 0..6);
        for i in 6..9u64 {
            m.insert(
                SimTime::ZERO,
                StreamId(i),
                StreamDemand::rx_only((30.0 + i as f64) * MIB, 2),
            );
        }
        let later = t(0.7);
        assert!(m.take_completed(later).is_empty());
        assert!(m.remove(later, StreamId(2)).is_some());
        let drained = pin(&mut m, 0..9, later);

        let got = [shared, capped, hdd_rx, multi_round, degraded, drained];
        let want: [(&[u64], u64); 6] = [
            (
                &[
                    0x3fe999999999999a,
                    0x3fe2afa64e7b5416,
                    0x3fdd6cdfa1d6cdfb,
                    0x3fd843f170d5891a,
                    0x3fd4a5294a5294a6,
                    0x3fd1f7047dc11f70,
                    0x3fcfcd1e360fe690,
                    0x3fcc860fb0223a7a,
                    0x3fc9dbcc48676f32,
                    0x3fc7a6224a7e859e,
                ],
                1_250_000_000,
            ),
            (
                &[
                    0x4000000000000000,
                    0x3fe6db6db6db6db7,
                    0x3fdbd37a6f4de9be,
                    0x3fd4000000000000,
                    0x3fcf3831f3831f39,
                ],
                500_000_000,
            ),
            (
                &[
                    0x3fddd49c34115b1e,
                    0x3fd7dd49c34115b2,
                    0x3fd3e312cd60e76a,
                    0x3fe18c1fa62853b8,
                    0x3fddd49c34115b1e,
                    0x3fff400000000000,
                    0x3ffd696969696969,
                    0x3ffbc71c71c71c72,
                    0x3ffa50d79435e50d,
                ],
                512_000_000,
            ),
            (
                &[
                    0x3fd326210186248d,
                    0x3fbdf51b3bea3678,
                    0x3fcc5e69c95e6f09,
                    0x3fb714fbcda3ac11,
                    0x3fc68735e3acdfb5,
                    0x3fb2c5f92c5f92c6,
                    0x3ff0000000000000,
                    0x3fac28f5c28f5c29,
                ],
                1_000_000_000,
            ),
            (
                &[
                    0x3fe3085f1b5ccca6,
                    0x3fb3b576f8428226,
                    0x3fdc3254029c718d,
                    0x3fae5efa7a5e184c,
                    0x3ff39b9b9b9b9b9b,
                    0x3ff18b3a62ce98b3,
                    0x3fefbefbefbefbef,
                ],
                816_000_000,
            ),
            (
                &[
                    0x3fe5fb3a4f580424,
                    0x3fcf31e58c8dc0fd,
                    0x3fc8091163e6ecd5,
                    0x3fbcfcfcfcfcfcfd,
                    0x3fc38c7ec8b867e0,
                    0x3ff284bda12f684c,
                    0x3ff2049cd42e204a,
                    0x3ff18b3a62ce98b3,
                ],
                864_000_001,
            ),
        ];
        for (k, ((rates, next), (want_rates, want_next))) in got.iter().zip(want).enumerate() {
            assert_eq!(rates.as_slice(), want_rates, "mix {k} rates");
            assert_eq!(*next, want_next, "mix {k} next completion");
        }
    }

    #[test]
    fn take_completed_returns_ascending_ids() {
        let mut m = machine(8, 1);
        for id in (0..4u64).rev() {
            m.insert(SimTime::ZERO, StreamId(id), StreamDemand::cpu_only(1.0, 1));
        }
        let c = m.next_completion(SimTime::ZERO).unwrap();
        let done = m.take_completed(c);
        assert_eq!(
            done,
            vec![StreamId(0), StreamId(1), StreamId(2), StreamId(3)]
        );
    }
}
