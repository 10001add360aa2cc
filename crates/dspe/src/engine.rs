//! The micro-batch stream-processing engine (Spark Streaming equivalent).
//!
//! Section III-B of the paper deploys the detection pipeline on Spark
//! Streaming: the input stream is divided into micro-batches; each
//! micro-batch flows through map / filter / aggregate / reduce
//! transformations executed as parallel tasks over data partitions
//! (Figure 2); local models are merged on the driver and the global model
//! is broadcast for the next batch.
//!
//! This engine executes the same dataflow with real threads and real,
//! per-task measured durations, then *replays* those durations onto the
//! configured [`Topology`] with the [`CostModel`]'s scheduling, dispatch,
//! and broadcast overheads — producing the simulated execution time that
//! Figures 15–16 report for `SparkSingle`, `SparkLocal`, and
//! `SparkCluster`. (See DESIGN.md: the paper's cluster hardware is
//! substituted by this calibrated simulation.)

use crate::executor::{available_threads, partition, partition_seeded, run_selected};
use crate::fault::{
    call_guarded, FaultPlan, FaultStats, FlightTrigger, InjectedFault, RetryPolicy,
};
use crate::obs::EngineMetrics;
use crate::pool::{run_selected_stealing, TaskSpan};
use crate::schedule::{list_schedule_into, CostModel, SimClock, Topology};
use redhanded_obs::{
    obs_report_json, prometheus_text, push_task_event, EventKind, ObsServer, SpanClock, SpanKind,
    SpanRef, Tracer, WorkerStats,
};
use redhanded_types::{Error, Result};
use std::time::{Duration, Instant};

/// Default seed for the scatter partitioner (see
/// [`crate::executor::partition_seeded`]): an arbitrary odd constant, mixed
/// with the global batch index so each micro-batch scatters differently but
/// reproducibly.
pub const DEFAULT_PARTITION_SEED: u64 = 0x52ED_4A4D_ED05_EED5;

/// Which backend executes micro-batches.
///
/// `Simulated` (the default) measures tasks on real threads but charges all
/// reported time to the deterministic [`SimClock`] replay over the
/// configured [`Topology`] — bit-identical run to run, the backend every
/// chaos/digest test pins. `Real` runs batches end-to-end on a
/// work-stealing pool of `real_threads` OS threads with the wall clock
/// authoritative for all reported times (routed through the run-global
/// [`SpanClock`]), and ingest of batch B+1 overlapping compute of batch B
/// through a bounded channel. Both backends execute the identical dataflow
/// — same partitioning, retry-wave composition, and fault decisions keyed
/// on `(batch, stage, partition, attempt)` — so detector state, alerts,
/// and deterministic digests are bit-identical across modes (timestamps
/// are excluded from digests by construction). See DESIGN.md §14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Deterministic simulated-clock replay (the chaos-digest twin).
    #[default]
    Simulated,
    /// Real multi-core execution under the wall clock.
    Real,
}

/// How many ingested-but-unprocessed micro-batches the real backend's
/// bounded ingest channel may hold — enough that ingest of batch B+1 fully
/// overlaps compute of batch B, small enough to bound memory and exert
/// backpressure on the source.
const INGEST_QUEUE_BATCHES: usize = 2;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated cluster shape.
    pub topology: Topology,
    /// Overhead model.
    pub cost_model: CostModel,
    /// Partitions per micro-batch (defaults to the topology's slot count).
    pub num_partitions: usize,
    /// Real OS threads used to execute tasks (defaults to the host's
    /// available parallelism; capped so measured durations stay honest).
    pub real_threads: usize,
    /// Records per micro-batch.
    pub microbatch_size: usize,
    /// Task-failure handling: attempts, backoff, blacklisting.
    pub retry: RetryPolicy,
    /// `Some(seed)`: micro-batches are partitioned by the deterministic
    /// seeded scatter (balanced, stream-position-decorrelated — the
    /// default). `None`: plain round-robin.
    pub partition_seed: Option<u64>,
    /// Deterministic fault schedule for chaos testing (empty = no faults).
    pub faults: FaultPlan,
    /// Execution backend: deterministic simulated replay (the default) or
    /// real multi-core execution on the work-stealing pool.
    pub exec_mode: ExecMode,
    /// `Some(addr)`: bind a live metrics endpoint (`obs::serve`) on `addr`
    /// for the duration of an observed stream run, republishing Prometheus
    /// text and the JSON registry report at every batch boundary so the
    /// run can be scraped mid-flight. `None` (the default): no socket is
    /// ever opened.
    pub serve_addr: Option<String>,
    /// `Some(dir)`: dump the flight recorder's ring to
    /// `<dir>/FLIGHT_<trigger>.json` when a retry is exhausted, a
    /// straggler fires, or the driver is killed. `None` (the default): the
    /// ring is still recorded (readable via `EngineMetrics::flight`) but
    /// no files are written.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl EngineConfig {
    /// A configuration for `topology` with sensible defaults.
    pub fn for_topology(topology: Topology) -> Self {
        EngineConfig {
            topology,
            cost_model: CostModel::default(),
            num_partitions: topology.total_slots(),
            real_threads: available_threads(),
            microbatch_size: 10_000,
            retry: RetryPolicy::default(),
            partition_seed: Some(DEFAULT_PARTITION_SEED),
            faults: FaultPlan::default(),
            exec_mode: ExecMode::default(),
            serve_addr: None,
            flight_dir: None,
        }
    }
}

/// A partitioned dataset within one micro-batch (the RDD of Figure 2).
#[derive(Debug, Clone)]
pub struct PData<T> {
    partitions: Vec<Vec<T>>,
}

impl<T> PData<T> {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of records. (A plain loop, not `.map(Vec::len)`: the
    /// lint call graph resolves callees by name, and a `map` token here
    /// would alias the RDD `map` and clock-taint every `len` caller.)
    pub fn len(&self) -> usize {
        let mut n = 0;
        for p in &self.partitions {
            n += p.len();
        }
        n
    }

    /// True when no records are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gather all records on the driver (order: partition-major).
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Borrow the raw partitions.
    pub fn partitions(&self) -> &[Vec<T>] {
        &self.partitions
    }
}

/// Execution context of one micro-batch: runs transformations as parallel
/// task sets — retrying failed tasks from lineage — and charges their
/// scheduled cost to the batch's clock.
pub struct BatchContext<'a> {
    config: &'a EngineConfig,
    clock: &'a mut SimClock,
    /// The run's wall clock: [`SpanClock::Off`] under
    /// [`ExecMode::Simulated`], a live wall anchor under
    /// [`ExecMode::Real`] — `wall.enabled()` *is* the mode test. In real
    /// mode the engine mirrors wall readings into `clock` at every
    /// touchpoint ([`SimClock::sync_to_us`]), so `elapsed_us` stays the
    /// single authoritative timeline either way.
    wall: SpanClock,
    /// Global index of this micro-batch (continues across driver restarts).
    batch: u64,
    /// Next stage number within this batch.
    stage: u32,
    stats: &'a mut FaultStats,
    /// Engine-level metrics sink (None = unobserved run). All samples
    /// recorded through it are `Runtime`-class.
    obs: Option<&'a mut EngineMetrics>,
    /// Causal span recorder (None = untraced run). Stage/task/backoff
    /// spans are emitted by the engine itself; the handler can parent
    /// additional spans on [`BatchContext::batch_span`] via
    /// [`BatchContext::trace_begin`].
    trace: Option<&'a mut Tracer>,
    /// The open [`SpanKind::Batch`] span for this micro-batch
    /// ([`SpanRef::INVALID`] when untraced).
    batch_span: SpanRef,
}

impl BatchContext<'_> {
    /// Global index of the micro-batch this context is executing.
    pub fn batch_index(&self) -> u64 {
        self.batch
    }

    /// Simulated microseconds elapsed so far in the run — the clock that
    /// span timings charge against (never wall time).
    pub fn elapsed_us(&self) -> f64 {
        self.clock.elapsed_us()
    }

    /// The batch-root span (parent for handler-emitted phase spans).
    pub fn batch_span(&self) -> SpanRef {
        self.batch_span
    }

    /// Open a span parented on this batch's root, timestamped on the
    /// simulated clock. Alloc-free; returns [`SpanRef::INVALID`] on an
    /// untraced run, which makes [`BatchContext::trace_end`] a no-op.
    pub fn trace_begin(&mut self, kind: SpanKind, a: u64, b: u64) -> SpanRef {
        let now = self.clock.elapsed_us();
        let batch = self.batch;
        let parent = self.batch_span;
        match self.trace.as_deref_mut() {
            Some(t) => t.begin(kind, parent, batch, a, b, now),
            None => SpanRef::INVALID,
        }
    }

    /// Close a span opened with [`BatchContext::trace_begin`] at the
    /// current simulated time. Alloc-free; no-op for invalid refs.
    pub fn trace_end(&mut self, span: SpanRef) {
        let now = self.clock.elapsed_us();
        if let Some(t) = self.trace.as_deref_mut() {
            t.end(span, now);
        }
    }

    /// Partition a record vector into this batch's RDD.
    pub fn parallelize<T>(&mut self, records: Vec<T>) -> PData<T> {
        let partitions = match self.config.partition_seed {
            Some(seed) => partition_seeded(
                records,
                self.config.num_partitions,
                seed ^ self.batch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            None => partition(records, self.config.num_partitions),
        };
        PData { partitions }
    }

    /// Wrap already-partitioned data (the output of a previous stage) as an
    /// RDD without reshuffling — narrow-dependency chaining.
    pub fn from_partitions<T>(&mut self, partitions: Vec<Vec<T>>) -> PData<T> {
        PData { partitions }
    }

    fn run_stage<T: Sync, U: Send>(
        &mut self,
        data: &PData<T>,
        f: impl Fn(usize, &[T]) -> U + Sync,
    ) -> Result<Vec<U>> {
        let stage = self.stage;
        self.stage += 1;
        let n = data.partitions.len();
        // Scratch for the retry loop; the loop itself
        // (`execute_with_retries`) is allocation-free.
        let mut outputs: Vec<Option<U>> = (0..n).map(|_| None).collect();
        let mut attempts: Vec<u32> = vec![0; n];
        let mut failures: Vec<u32> = vec![0; n];
        let mut pending: Vec<usize> = (0..n).collect();
        let mut retry_queue: Vec<usize> = Vec::new();
        let mut durations: Vec<Duration> = Vec::with_capacity(n);
        let mut starts_us: Vec<f64> = Vec::with_capacity(n);
        let mut spans_us: Vec<TaskSpan> = Vec::with_capacity(n);
        self.execute_with_retries(
            data,
            &f,
            stage,
            &mut outputs,
            &mut attempts,
            &mut failures,
            &mut pending,
            &mut retry_queue,
            &mut durations,
            &mut starts_us,
            &mut spans_us,
        )?;
        let collected: Vec<U> = outputs.into_iter().flatten().collect();
        debug_assert_eq!(collected.len(), n, "every partition produced an output");
        Ok(collected)
    }

    /// Drive every pending task of one stage to completion.
    ///
    /// Each wave resubmits the still-pending partitions as one task set
    /// (`run_selected` in simulated mode, the work-stealing pool in real
    /// mode), converts caught panics into failures, and reschedules them
    /// Spark-style: bounded attempts per task
    /// ([`RetryPolicy::max_task_attempts`]), exponential backoff charged to
    /// the simulated clock before each retry wave, and blacklisting —
    /// repeatedly failing tasks shrink the slot pool their retry waves
    /// schedule onto. Re-execution is pure lineage replay: the input
    /// partition is immutable and `f` is pure, so a retried task produces
    /// exactly what the failed attempt would have.
    ///
    /// Task spans are laid out on the same earliest-available-slot schedule
    /// `record_stage_on` charges (simulated mode) or at their true wall
    /// start/end stamps (real mode), so the trace timeline, the stage
    /// makespan, and critical-path attribution always agree.
    #[allow(clippy::too_many_arguments)]
    fn execute_with_retries<T: Sync, U: Send>(
        &mut self,
        data: &PData<T>,
        f: &(impl Fn(usize, &[T]) -> U + Sync),
        stage: u32,
        outputs: &mut [Option<U>],
        attempts: &mut [u32],
        failures: &mut [u32],
        pending: &mut Vec<usize>,
        retry_queue: &mut Vec<usize>,
        durations: &mut Vec<Duration>,
        starts_us: &mut Vec<f64>,
        spans_us: &mut Vec<TaskSpan>,
    ) -> Result<()> {
        let config = self.config;
        let retry = config.retry;
        let batch = self.batch;
        let batch_span = self.batch_span;
        let stage_entry_us = self.clock.elapsed_us();
        let stage_span = match self.trace.as_deref_mut() {
            Some(t) => t.begin(
                SpanKind::Stage,
                batch_span,
                batch,
                stage as u64,
                data.partitions.len() as u64,
                stage_entry_us,
            ),
            None => SpanRef::INVALID,
        };
        let real = self.wall.enabled();
        let mut wave = 0u32;
        while !pending.is_empty() {
            if wave > 0 {
                let backoff_start_us = self.clock.elapsed_us();
                if !real {
                    // Real mode retries immediately — sleeping a real core
                    // between waves buys nothing, and the zero-length span
                    // below still marks the wave boundary for the trace.
                    self.clock.advance_us(retry.backoff_us(wave));
                }
                let backoff_end_us = self.clock.elapsed_us();
                if let Some(t) = self.trace.as_deref_mut() {
                    let span = t.begin(
                        SpanKind::Backoff,
                        stage_span,
                        batch,
                        stage as u64,
                        wave as u64,
                        backoff_start_us,
                    );
                    t.end(span, backoff_end_us);
                }
            }
            wave += 1;
            for &i in pending.iter() {
                attempts[i] += 1;
            }
            let attempts_now: &[u32] = attempts;
            let task = |i: usize, part: &[T]| {
                let attempt = attempts_now[i];
                let site = InjectedFault { batch, stage, partition: i, attempt };
                call_guarded(config.faults.decision(batch, stage, i, attempt), site, || f(i, part))
            };
            if real {
                self.clock.sync_to_us(self.wall.now_us() as f64);
            }
            let wave_start_us = self.clock.elapsed_us();
            let wave_results = if real {
                run_selected_stealing(
                    &data.partitions,
                    pending,
                    config.real_threads,
                    self.wall,
                    spans_us,
                    self.obs.as_deref_mut().map(|o| &mut o.pool),
                    task,
                )
            } else {
                run_selected(&data.partitions, pending, config.real_threads, task)
            };
            if real {
                self.record_pool_wave(stage, stage_span);
            }
            // Blacklisted slots (executors hosting repeated failures) are
            // excluded from this wave's scheduling.
            let blacklisted = failures.iter().filter(|&&c| c >= retry.blacklist_after).count();
            let slots = config.topology.total_slots().saturating_sub(blacklisted).max(1);
            self.stats.blacklisted = self.stats.blacklisted.max(blacklisted as u64);
            durations.clear();
            retry_queue.clear();
            let mut fatal: Option<Error> = None;
            // A failed or straggling attempt still occupied a slot for its
            // full measured (plus injected) duration.
            for ((_, straggle), measured) in wave_results.iter() {
                durations.push(*measured + *straggle);
            }
            if !real {
                // Headline fix: compute the exact greedy slot assignment
                // `record_stage_on` is about to charge (blacklist-shrunk
                // slot count included) so each task's span starts when its
                // slot actually frees up — not all at `wave_start_us`.
                list_schedule_into(durations, slots, config.cost_model.task_overhead_us, starts_us);
            }
            for (k, (&i, ((outcome, straggle), measured))) in
                pending.iter().zip(wave_results).enumerate()
            {
                if !straggle.is_zero() {
                    self.stats.stragglers += 1;
                }
                self.stats.max_attempts = self.stats.max_attempts.max(attempts[i]);
                let failed = outcome.is_err();
                if let Some(o) = self.obs.as_deref_mut() {
                    o.registry.inc(o.task_attempts);
                    o.registry
                        .record(o.task_duration_us, (measured + straggle).as_micros() as u64);
                    if !straggle.is_zero() {
                        o.registry.inc(o.stragglers);
                        o.registry.add(o.straggler_wait_us, straggle.as_micros() as u64);
                    }
                    if failed {
                        o.registry.inc(o.task_failures);
                    }
                }
                if let Some(t) = self.trace.as_deref_mut() {
                    // Simulated: span = scheduled slot window (straggle
                    // included in the occupied duration). Real: span = the
                    // task's true wall start/end; the injected straggle is
                    // carried by the annotation, not a physical sleep.
                    let (span_start_us, span_end_us) = if real {
                        (spans_us[k].start_us, spans_us[k].end_us)
                    } else {
                        let dur_us = (measured + straggle).as_secs_f64() * 1e6;
                        let s = wave_start_us + starts_us[k];
                        (s, s + dur_us)
                    };
                    let span = t.begin(
                        SpanKind::Task,
                        stage_span,
                        batch,
                        stage as u64,
                        i as u64,
                        span_start_us,
                    );
                    t.end(span, span_end_us);
                    t.annotate_task(span, attempts[i], straggle.as_micros() as u64, failed);
                    if real {
                        t.annotate_worker(span, spans_us[k].worker);
                    }
                }
                // Flight recorder: every finished attempt is retained in
                // the bounded ring; straggler hits additionally trip a
                // dump.
                self.flight_event(
                    batch,
                    EventKind::TaskFinished,
                    stage,
                    i as u32,
                    (measured + straggle).as_micros() as u64,
                );
                if !straggle.is_zero() {
                    self.flight_event(
                        batch,
                        EventKind::StragglerObserved,
                        stage,
                        i as u32,
                        straggle.as_micros() as u64,
                    );
                    self.flight_dump(FlightTrigger::Straggler, batch);
                }
                match outcome {
                    Ok(v) => outputs[i] = Some(v),
                    Err(_failure) => {
                        self.stats.task_failures += 1;
                        failures[i] += 1;
                        if attempts[i] >= retry.max_task_attempts {
                            self.flight_event(
                                batch,
                                EventKind::TaskExhausted,
                                stage,
                                i as u32,
                                attempts[i] as u64,
                            );
                            self.flight_dump(FlightTrigger::RetryExhausted, batch);
                            if fatal.is_none() {
                                fatal = Some(Error::TaskFailed {
                                    batch,
                                    stage,
                                    partition: i,
                                    attempts: attempts[i],
                                });
                            }
                        } else {
                            self.stats.task_retries += 1;
                            retry_queue.push(i);
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.registry.inc(o.task_retries);
                            }
                        }
                    }
                }
            }
            if real {
                self.clock.sync_to_us(self.wall.now_us() as f64);
                self.clock.note_stage(durations.len() as u64);
            } else {
                self.clock.record_stage_on(durations, slots, &config.cost_model);
            }
            let stage_us = (self.clock.elapsed_us() - wave_start_us) as u64;
            let wave_tasks = durations.len() as u64;
            if let Some(o) = self.obs.as_deref_mut() {
                o.registry.record(o.stage_duration_us, stage_us);
                o.registry.set_max(o.blacklisted_peak, blacklisted as f64);
                push_task_event(
                    o.flight.log_mut(),
                    batch,
                    EventKind::WaveCompleted,
                    stage,
                    wave - 1,
                    wave_tasks,
                );
            }
            if let Some(e) = fatal {
                let now_us = self.clock.elapsed_us();
                if let Some(t) = self.trace.as_deref_mut() {
                    t.end(stage_span, now_us);
                }
                return Err(e);
            }
            std::mem::swap(pending, retry_queue);
        }
        let now_us = self.clock.elapsed_us();
        if let Some(t) = self.trace.as_deref_mut() {
            t.end(stage_span, now_us);
        }
        Ok(())
    }

    /// Fold the work-stealing pool's just-committed wave slots into the
    /// pre-registered `Runtime` metrics and emit one [`SpanKind::Worker`]
    /// wall span per participating worker, parented on the stage span.
    /// Real mode only; a no-op on unobserved runs.
    fn record_pool_wave(&mut self, stage: u32, stage_span: SpanRef) {
        let batch = self.batch;
        let Some(o) = self.obs.as_deref_mut() else { return };
        let nworkers = o.pool.wave().len();
        o.registry.set_max(o.pool_workers, nworkers as f64);
        for w in 0..nworkers {
            // Copy the slot out so the registry (a sibling field of the
            // telemetry inside `EngineMetrics`) can be borrowed mutably.
            let s: WorkerStats = match o.pool.wave().get(w) {
                Some(&s) => s,
                None => continue,
            };
            o.registry.add(o.pool_tasks, s.tasks);
            o.registry.add(o.pool_steal_attempts, s.steal_attempts);
            o.registry.add(o.pool_steals, s.steals);
            o.registry.add(o.pool_busy_us, s.busy_us);
            o.registry.add(o.pool_idle_us, s.idle_us());
            o.registry.set_max(o.pool_queue_peak, s.queue_peak as f64);
            if s.span_end_us > s.span_start_us {
                if let Some(t) = self.trace.as_deref_mut() {
                    let span = t.begin(
                        SpanKind::Worker,
                        stage_span,
                        batch,
                        stage as u64,
                        w as u64,
                        s.span_start_us as f64,
                    );
                    t.end(span, s.span_end_us as f64);
                }
            }
        }
    }

    /// Push one operational event into the flight recorder's bounded ring
    /// (no-op on unobserved runs). Alloc-free.
    fn flight_event(&mut self, batch: u64, kind: EventKind, stage: u32, partition: u32, payload: u64) {
        if let Some(o) = self.obs.as_deref_mut() {
            push_task_event(o.flight.log_mut(), batch, kind, stage, partition, payload);
        }
    }

    /// Write the flight recorder's ring to
    /// `<flight_dir>/FLIGHT_<trigger>.json`. No-op unless the config opts
    /// in via [`EngineConfig::flight_dir`]; dump paths are cold (a fault
    /// just fired), so file I/O here is acceptable by design.
    fn flight_dump(&mut self, trigger: FlightTrigger, batch: u64) {
        let Some(dir) = self.config.flight_dir.as_ref() else { return };
        if let Some(o) = self.obs.as_deref_mut() {
            o.flight.note_dump();
            let json = o.flight.dump_json("dspe-engine", trigger.name(), batch);
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(trigger.file_name()), json);
        }
    }

    /// Element-wise map, one task per partition (Figure 2, op #1/#4).
    pub fn map<T: Sync, U: Send>(
        &mut self,
        data: &PData<T>,
        f: impl Fn(&T) -> U + Sync,
    ) -> Result<PData<U>> {
        let partitions = self.run_stage(data, |_, part| part.iter().map(&f).collect())?;
        Ok(PData { partitions })
    }

    /// Element-wise filter (Figure 2, op #2).
    pub fn filter<T: Sync + Clone + Send>(
        &mut self,
        data: &PData<T>,
        pred: impl Fn(&T) -> bool + Sync,
    ) -> Result<PData<T>> {
        let partitions =
            self.run_stage(data, |_, part| part.iter().filter(|t| pred(t)).cloned().collect())?;
        Ok(PData { partitions })
    }

    /// Whole-partition map: one output per partition. This is how fused
    /// heavy stages run — e.g. "update the local model on this partition's
    /// labeled instances" (Figure 2, op #3 first half, and op #5).
    pub fn map_partitions<T: Sync, U: Send>(
        &mut self,
        data: &PData<T>,
        f: impl Fn(usize, &[T]) -> U + Sync,
    ) -> Result<Vec<U>> {
        self.run_stage(data, f)
    }

    /// Aggregate per-partition results on the driver (Figure 2, op #3
    /// second half / op #6): `map_partitions` then a timed driver-side
    /// fold.
    pub fn aggregate<T: Sync, A: Send>(
        &mut self,
        data: &PData<T>,
        local: impl Fn(usize, &[T]) -> A + Sync,
        merge: impl FnMut(A, A) -> A,
    ) -> Result<Option<A>> {
        let locals = self.run_stage(data, local)?;
        Ok(self.driver(|| locals.into_iter().reduce(merge)))
    }

    /// Parallel tree reduction (Spark's `treeAggregate`): pairwise-combine
    /// `items` in log-depth rounds, each round charged as one parallel
    /// stage on the topology. The combiner runs on executors, so a 24-way
    /// model merge costs ~⌈log2 24⌉ rounds of one pairwise merge each
    /// instead of 23 serial merges on the driver.
    pub fn tree_reduce<T>(
        &mut self,
        mut layer: Vec<T>,
        mut combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        let mut round = 0u64;
        while layer.len() > 1 {
            let entering = layer.len() as u64;
            let round_start_us = self.clock.elapsed_us();
            let mut next = Vec::with_capacity(layer.len() / 2 + 1);
            let mut durations = Vec::with_capacity(layer.len() / 2);
            let mut iter = layer.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => {
                        let start = Instant::now();
                        next.push(combine(a, b));
                        durations.push(start.elapsed());
                    }
                    None => next.push(a),
                }
            }
            if self.wall.enabled() {
                // Real mode: the pairwise combines just ran on the driver
                // thread; their cost is already on the wall.
                self.clock.sync_to_us(self.wall.now_us() as f64);
                self.clock.note_stage(durations.len() as u64);
            } else {
                self.clock.record_stage(&durations, self.config.topology, &self.config.cost_model);
            }
            let round_end_us = self.clock.elapsed_us();
            if let Some(t) = self.trace.as_deref_mut() {
                let span = t.begin(
                    SpanKind::Merge,
                    self.batch_span,
                    self.batch,
                    entering,
                    round,
                    round_start_us,
                );
                t.end(span, round_end_us);
            }
            round += 1;
            layer = next;
        }
        layer.into_iter().next()
    }

    /// Run driver-side work (model merging, split attempts), charging its
    /// real duration to the clock — the driver is a single machine.
    pub fn driver<U>(&mut self, f: impl FnOnce() -> U) -> U {
        let start = Instant::now();
        let out = f();
        self.clock.advance(start.elapsed());
        out
    }

    /// Charge the cost of broadcasting a `bytes`-sized global model to all
    /// nodes (done once per micro-batch after the merge).
    ///
    /// Under [`ExecMode::Real`] the modeled transfer cost is not charged:
    /// the physical cost of sharing the model (the driver-side clone) is
    /// already on the wall clock, and there is no simulated network.
    pub fn broadcast(&mut self, bytes: usize) {
        if self.wall.enabled() {
            self.clock.sync_to_us(self.wall.now_us() as f64);
            return;
        }
        let us = self.config.cost_model.broadcast_cost_us(self.config.topology, bytes);
        self.clock.advance_us(us);
    }

    /// Simulated time elapsed so far in the run.
    pub fn elapsed(&self) -> Duration {
        self.clock.elapsed()
    }
}

/// Distribution summary of per-micro-batch processing latency — the
/// end-to-end delay a tweet arriving at the start of a batch experiences
/// before its batch completes. Real-time viability needs the tail, not
/// just throughput.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Mean batch latency.
    pub mean: Duration,
    /// Median batch latency.
    pub p50: Duration,
    /// 95th-percentile batch latency.
    pub p95: Duration,
    /// 99th-percentile batch latency.
    pub p99: Duration,
    /// Worst batch latency.
    pub max: Duration,
}

impl LatencyStats {
    /// Summarize a set of batch durations.
    ///
    /// The zero-batch run is well-defined: an empty input yields all-zero
    /// durations (never a division by zero or an out-of-bounds index), so
    /// downstream reports and the OBS JSON always carry finite values.
    pub fn from_durations(mut durations: Vec<Duration>) -> Self {
        if durations.is_empty() {
            return LatencyStats::default();
        }
        durations.sort_unstable();
        let n = durations.len();
        let total: Duration = durations.iter().sum();
        // n >= 1 here, so the nearest-rank index is always in 0..n.
        let at = |q: f64| durations[((n - 1) as f64 * q).round() as usize];
        LatencyStats {
            mean: total / n as u32,
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: durations[n - 1],
        }
    }
}

/// Outcome of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamReport {
    /// Micro-batches processed.
    pub batches: u64,
    /// Records processed.
    pub records: u64,
    /// Simulated execution time on the configured topology (what Figures
    /// 15–16 plot).
    pub simulated: Duration,
    /// Real wall-clock time spent executing (for reference).
    pub real: Duration,
    /// Per-micro-batch simulated latency distribution.
    pub batch_latency: LatencyStats,
    /// `Some(batch)` when the fault plan killed the driver after that
    /// global batch; the stream stopped with records unprocessed.
    pub killed_at_batch: Option<u64>,
    /// Faults absorbed during the run (all zero for a clean run).
    pub faults: FaultStats,
}

impl StreamReport {
    /// Simulated throughput in records per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.simulated.as_secs_f64();
        if secs > 0.0 {
            self.records as f64 / secs
        } else {
            0.0
        }
    }
}

/// The micro-batch engine.
#[derive(Debug, Clone)]
pub struct MicroBatchEngine {
    config: EngineConfig,
}

impl MicroBatchEngine {
    /// Create an engine.
    ///
    /// `real_threads` is clamped to the host's available parallelism:
    /// oversubscribing physical cores makes concurrently-timed tasks
    /// time-slice against each other, inflating every measured duration —
    /// which silently flatters simulated speedups and ruins real-mode
    /// scaling. This constructor is the single choke point every run path
    /// goes through, so the clamp holds engine-wide.
    pub fn new(mut config: EngineConfig) -> Self {
        config.real_threads = config.real_threads.clamp(1, available_threads());
        MicroBatchEngine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Consume `records` as a stream of micro-batches, invoking `handler`
    /// once per batch with a fresh [`BatchContext`] sharing one clock.
    pub fn run_stream<R, F, I>(&self, records: I, handler: F) -> StreamReport
    where
        R: Send,
        I: IntoIterator<Item = R>,
        I::IntoIter: Send,
        F: FnMut(&mut BatchContext<'_>, Vec<R>),
    {
        self.run_stream_from(0, records, handler)
    }

    /// [`Self::run_stream`] with global batch numbering starting at
    /// `first_batch` — the recovery path: a restarted driver replays the
    /// uncheckpointed tail of the stream with the original batch indices,
    /// so per-batch decisions (scatter partitioning, fault schedules)
    /// reproduce exactly.
    pub fn run_stream_from<R, F, I>(
        &self,
        first_batch: u64,
        records: I,
        handler: F,
    ) -> StreamReport
    where
        R: Send,
        I: IntoIterator<Item = R>,
        I::IntoIter: Send,
        F: FnMut(&mut BatchContext<'_>, Vec<R>),
    {
        self.run_stream_observed(first_batch, records, None, handler)
    }

    /// [`Self::run_stream_from`] with an optional [`EngineMetrics`] sink:
    /// when present, per-task/per-stage durations, attempts, retries,
    /// straggler waits, blacklist peaks, and batch latencies are recorded
    /// into it (all `Runtime`-class — see `redhanded-obs`).
    pub fn run_stream_observed<R, F, I>(
        &self,
        first_batch: u64,
        records: I,
        obs: Option<&mut EngineMetrics>,
        handler: F,
    ) -> StreamReport
    where
        R: Send,
        I: IntoIterator<Item = R>,
        I::IntoIter: Send,
        F: FnMut(&mut BatchContext<'_>, Vec<R>),
    {
        self.run_stream_traced(first_batch, records, obs, None, handler)
    }

    /// [`Self::run_stream_observed`] with an optional [`Tracer`]: when
    /// present, every micro-batch records its full causal span tree —
    /// batch root, stages, task attempts (with straggle/retry
    /// annotations), retry backoffs, and merge rounds — under the
    /// simulated clock. Handlers can attach their own phase spans via
    /// [`BatchContext::trace_begin`].
    pub fn run_stream_traced<R, F, I>(
        &self,
        first_batch: u64,
        records: I,
        mut obs: Option<&mut EngineMetrics>,
        mut trace: Option<&mut Tracer>,
        mut handler: F,
    ) -> StreamReport
    where
        R: Send,
        I: IntoIterator<Item = R>,
        I::IntoIter: Send,
        F: FnMut(&mut BatchContext<'_>, Vec<R>),
    {
        if !self.config.faults.is_empty() {
            crate::fault::silence_injected_panics();
        }
        // Live export surface: opt-in via `serve_addr`, and only useful on
        // observed runs (there is no registry to snapshot otherwise). Bind
        // failures are reported once and the run proceeds unserved —
        // observability must never fail the pipeline.
        let server: Option<ObsServer> = match (&self.config.serve_addr, obs.is_some()) {
            (Some(addr), true) => match ObsServer::bind(addr) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("obs: failed to bind live metrics endpoint on {addr}: {e}");
                    None
                }
            },
            _ => None,
        };
        if let (Some(server), Some(o)) = (&server, obs.as_deref_mut()) {
            server.publish(
                prometheus_text(&o.registry),
                obs_report_json("dspe-live", &o.registry, o.flight.log()),
            );
        }
        let started = Instant::now();
        let mut st = StreamRunState {
            clock: SimClock::new(),
            wall: match self.config.exec_mode {
                ExecMode::Simulated => SpanClock::off(),
                ExecMode::Real => SpanClock::wall(),
            },
            stats: FaultStats::default(),
            batches: 0,
            batch_index: first_batch,
            total_records: 0,
            batch_durations: Vec::new(),
            killed_at_batch: None,
        };
        let size = self.config.microbatch_size;
        let mut iter = records.into_iter();
        match self.config.exec_mode {
            ExecMode::Simulated => loop {
                let mut buffer: Vec<R> = Vec::with_capacity(size);
                while buffer.len() < size {
                    match iter.next() {
                        Some(r) => buffer.push(r),
                        None => break,
                    }
                }
                if buffer.is_empty() {
                    break;
                }
                if !self.process_stream_batch(
                    &mut st,
                    &mut obs,
                    &mut trace,
                    server.as_ref(),
                    &mut handler,
                    buffer,
                ) {
                    break;
                }
            },
            ExecMode::Real => {
                // Ingest of batch B+1 overlaps compute of batch B: a
                // scoped ingest thread drives the source iterator and
                // feeds chunked micro-batches through a bounded channel
                // ([`INGEST_QUEUE_BATCHES`] deep — backpressure, not an
                // unbounded buffer); the driver loop below consumes them.
                let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<R>>(INGEST_QUEUE_BATCHES);
                let mut ingest_wait_us = 0u64;
                let loop_start_us = st.wall.now_us();
                std::thread::scope(|scope| {
                    scope.spawn(move || loop {
                        let mut buffer: Vec<R> = Vec::with_capacity(size);
                        while buffer.len() < size {
                            match iter.next() {
                                Some(r) => buffer.push(r),
                                None => break,
                            }
                        }
                        if buffer.is_empty() {
                            break;
                        }
                        if tx.send(buffer).is_err() {
                            // The driver stopped (kill fault): the channel
                            // is closed, stop ingesting.
                            break;
                        }
                    });
                    loop {
                        // Time the driver spends blocked on `recv` is time
                        // ingest failed to overlap compute — the
                        // utilization residue the overlap gauge reports.
                        let wait_start_us = st.wall.now_us();
                        let Ok(buffer) = rx.recv() else { break };
                        ingest_wait_us += st.wall.now_us().saturating_sub(wait_start_us);
                        if !self.process_stream_batch(
                            &mut st,
                            &mut obs,
                            &mut trace,
                            server.as_ref(),
                            &mut handler,
                            buffer,
                        ) {
                            break;
                        }
                    }
                    // Close the channel before joining so an ingest thread
                    // blocked in `send` unblocks and exits.
                    drop(rx);
                });
                let loop_us = st.wall.now_us().saturating_sub(loop_start_us);
                if let Some(o) = obs.as_deref_mut() {
                    o.registry.add(o.ingest_wait_us, ingest_wait_us);
                    if loop_us > 0 {
                        let overlap =
                            1.0 - (ingest_wait_us.min(loop_us) as f64 / loop_us as f64);
                        o.registry.set(o.ingest_overlap, overlap);
                    }
                }
            }
        }
        if let (Some(server), Some(o)) = (&server, obs.as_deref_mut()) {
            // Final snapshot so a scrape racing the run's end still sees
            // the completed totals; the bind is dropped (port released)
            // when `server` goes out of scope below.
            server.publish(
                prometheus_text(&o.registry),
                obs_report_json("dspe-live", &o.registry, o.flight.log()),
            );
        }
        drop(server);
        StreamReport {
            batches: st.batches,
            records: st.total_records,
            simulated: st.clock.elapsed(),
            real: started.elapsed(),
            batch_latency: LatencyStats::from_durations(st.batch_durations),
            killed_at_batch: st.killed_at_batch,
            faults: st.stats,
        }
    }

    /// Execute one micro-batch buffer: open the batch span, run the
    /// handler under a fresh [`BatchContext`], record latency, and apply
    /// the driver-kill fault. Returns `false` when the stream must stop.
    fn process_stream_batch<R, F>(
        &self,
        st: &mut StreamRunState,
        obs: &mut Option<&mut EngineMetrics>,
        trace: &mut Option<&mut Tracer>,
        server: Option<&ObsServer>,
        handler: &mut F,
        buffer: Vec<R>,
    ) -> bool
    where
        F: FnMut(&mut BatchContext<'_>, Vec<R>),
    {
        st.batches += 1;
        let batch_records = buffer.len() as u64;
        st.total_records += batch_records;
        if st.wall.enabled() {
            st.clock.sync_to_us(st.wall.now_us() as f64);
        }
        let batch_start_us = st.clock.elapsed_us();
        let batch_span = match trace.as_deref_mut() {
            Some(t) => t.begin(
                SpanKind::Batch,
                SpanRef::INVALID,
                st.batch_index,
                batch_records,
                0,
                batch_start_us,
            ),
            None => SpanRef::INVALID,
        };
        if !st.wall.enabled() {
            // The modeled per-batch scheduling overhead is a simulated
            // charge; the real backend pays its actual scheduling cost on
            // the wall clock.
            st.clock.advance_us(self.config.cost_model.microbatch_overhead_us);
        }
        let mut ctx = BatchContext {
            config: &self.config,
            clock: &mut st.clock,
            wall: st.wall,
            batch: st.batch_index,
            stage: 0,
            stats: &mut st.stats,
            obs: obs.as_deref_mut(),
            trace: trace.as_deref_mut(),
            batch_span,
        };
        handler(&mut ctx, buffer);
        if st.wall.enabled() {
            st.clock.sync_to_us(st.wall.now_us() as f64);
        }
        let batch_us = st.clock.elapsed_us() - batch_start_us;
        st.batch_durations.push(Duration::from_secs_f64(batch_us / 1e6));
        if let Some(t) = trace.as_deref_mut() {
            t.end(batch_span, st.clock.elapsed_us());
        }
        if let Some(o) = obs.as_deref_mut() {
            o.registry.inc(o.batches);
            o.registry.add(o.records, batch_records);
            o.registry.record(o.batch_latency_us, batch_us as u64);
            if let Some(server) = server {
                // Batch-boundary snapshot swap: the only cost the live
                // endpoint adds to the run (scrapes read the published
                // strings, never the registry).
                server.publish(
                    prometheus_text(&o.registry),
                    obs_report_json("dspe-live", &o.registry, o.flight.log()),
                );
            }
        }
        if self.config.faults.driver_kill_after == Some(st.batch_index) {
            st.killed_at_batch = Some(st.batch_index);
            if let Some(o) = obs.as_deref_mut() {
                push_task_event(
                    o.flight.log_mut(),
                    st.batch_index,
                    EventKind::DriverKilled,
                    0,
                    0,
                    st.batches,
                );
                if let Some(dir) = self.config.flight_dir.as_ref() {
                    let trigger = FlightTrigger::DriverKill;
                    o.flight.note_dump();
                    let json =
                        o.flight.dump_json("dspe-engine", trigger.name(), st.batch_index);
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(dir.join(trigger.file_name()), json);
                }
            }
            return false;
        }
        st.batch_index += 1;
        true
    }
}

/// Mutable state threaded through one streaming run, shared by the
/// simulated and real batch loops.
struct StreamRunState {
    clock: SimClock,
    wall: SpanClock,
    stats: FaultStats,
    batches: u64,
    batch_index: u64,
    total_records: u64,
    batch_durations: Vec<Duration>,
    killed_at_batch: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(topology: Topology) -> MicroBatchEngine {
        let mut cfg = EngineConfig::for_topology(topology);
        cfg.microbatch_size = 100;
        MicroBatchEngine::new(cfg)
    }

    fn busy_work(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_add(i.wrapping_mul(2654435761));
        }
        acc
    }

    #[test]
    fn map_filter_reduce_match_sequential_semantics() {
        let engine = engine(Topology::local(4));
        let input: Vec<i64> = (0..1000).collect();
        let expected: i64 = input.iter().map(|x| x * 2).filter(|x| x % 3 == 0).sum();
        let mut got = 0i64;
        let report = engine.run_stream(input, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let doubled = ctx.map(&data, |x| x * 2).unwrap();
            let kept = ctx.filter(&doubled, |x| x % 3 == 0).unwrap();
            if let Some(sum) = ctx
                .aggregate(&kept, |_, part| part.iter().sum::<i64>(), |a, b| a + b)
                .unwrap()
            {
                got += sum;
            }
        });
        assert_eq!(got, expected);
        assert_eq!(report.records, 1000);
        assert_eq!(report.batches, 10);
        assert!(report.simulated > Duration::ZERO);
    }

    #[test]
    fn semantics_independent_of_partition_count() {
        let input: Vec<i64> = (0..500).collect();
        let run = |partitions: usize| -> i64 {
            let mut cfg = EngineConfig::for_topology(Topology::local(4));
            cfg.num_partitions = partitions;
            cfg.microbatch_size = 200;
            let engine = MicroBatchEngine::new(cfg);
            let mut total = 0;
            engine.run_stream(input.clone(), |ctx, batch| {
                let data = ctx.parallelize(batch);
                let sq = ctx.map(&data, |x| x * x).unwrap();
                total += ctx
                    .aggregate(&sq, |_, p| p.iter().sum::<i64>(), |a, b| a + b)
                    .unwrap()
                    .unwrap_or(0);
            });
            total
        };
        let r1 = run(1);
        for p in [2, 3, 7, 16] {
            assert_eq!(run(p), r1, "partitions = {p}");
        }
    }

    #[test]
    fn more_slots_reduce_simulated_time() {
        let input: Vec<u64> = vec![60_000; 2_000];
        let simulate = |topology: Topology| -> Duration {
            let mut cfg = EngineConfig::for_topology(topology);
            cfg.microbatch_size = 500;
            cfg.cost_model = CostModel::free();
            let engine = MicroBatchEngine::new(cfg);
            engine
                .run_stream(input.clone(), |ctx, batch| {
                    let data = ctx.parallelize(batch);
                    let _ = ctx
                        .map_partitions(&data, |_, part| {
                            part.iter().fold(0u64, |a, &n| a.wrapping_add(busy_work(n)))
                        })
                        .unwrap();
                })
                .simulated
        };
        let single = simulate(Topology::single());
        let local = simulate(Topology::local(8));
        let cluster = simulate(Topology::cluster(3, 8));
        assert!(
            local < single,
            "8 slots should beat 1: {local:?} vs {single:?}"
        );
        assert!(
            cluster < local,
            "24 slots should beat 8: {cluster:?} vs {local:?}"
        );
        // Speedup should be in a plausible band (not superlinear).
        let speedup = single.as_secs_f64() / local.as_secs_f64();
        assert!(speedup > 3.0 && speedup <= 8.5, "local speedup {speedup}");
    }

    #[test]
    fn overheads_penalize_single_slot_engine_vs_bare_loop() {
        // The SparkSingle-vs-MOA comparison: same work, one slot, but
        // per-batch scheduling overhead charged.
        let input: Vec<u64> = vec![20_000; 1_000];
        let mut cfg = EngineConfig::for_topology(Topology::single());
        cfg.microbatch_size = 100;
        // Exaggerated scheduling overhead so the assertion is robust to
        // wall-clock noise on loaded test machines (the calibrated default
        // is exercised by the release-mode Figure 15 bench).
        cfg.cost_model.microbatch_overhead_us = 100_000.0;
        let engine = MicroBatchEngine::new(cfg);
        let report = engine.run_stream(input.clone(), |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx
                .map_partitions(&data, |_, part| {
                    part.iter().fold(0u64, |a, &n| a.wrapping_add(busy_work(n)))
                })
                .unwrap();
        });
        // Bare sequential loop (MOA equivalent).
        let start = Instant::now();
        let _ = input.iter().fold(0u64, |a, &n| a.wrapping_add(busy_work(n)));
        let bare = start.elapsed();
        assert!(
            report.simulated > bare,
            "engine {:?} must exceed bare loop {:?}",
            report.simulated,
            bare
        );
        // 10 batches × 100ms scheduling = at least 1s of charged overhead.
        assert!(report.simulated >= Duration::from_secs(1));
    }

    #[test]
    fn broadcast_and_driver_costs_are_charged() {
        let mut cfg = EngineConfig::for_topology(Topology::cluster(3, 8));
        cfg.microbatch_size = 10;
        cfg.cost_model = CostModel::free();
        let mut with_broadcast = CostModel::free();
        with_broadcast.broadcast_base_us = 1000.0;
        let engine_free = MicroBatchEngine::new(cfg.clone());
        cfg.cost_model = with_broadcast;
        let engine_bc = MicroBatchEngine::new(cfg);
        let run = |e: &MicroBatchEngine| {
            e.run_stream(vec![1u64; 100], |ctx, batch| {
                let data = ctx.parallelize(batch);
                let _ = ctx.map(&data, |x| x + 1).unwrap();
                ctx.broadcast(1 << 20);
            })
            .simulated
        };
        let free = run(&engine_free);
        let paid = run(&engine_bc);
        assert!(paid > free, "{paid:?} vs {free:?}");
        // 10 batches × 1ms base = at least 10ms difference.
        assert!(paid.saturating_sub(free) >= Duration::from_millis(9));
    }

    #[test]
    fn empty_stream() {
        let engine = engine(Topology::single());
        let report = engine.run_stream(Vec::<i32>::new(), |_, _| panic!("no batches"));
        assert_eq!(report.batches, 0);
        assert_eq!(report.records, 0);
        assert_eq!(report.throughput(), 0.0);
        assert!(report.throughput().is_finite(), "zero-elapsed run must not produce NaN");
        // Every percentile field of the zero-batch run is exactly zero —
        // no divide-by-zero or empty-index path reaches the report.
        assert_eq!(report.batch_latency.mean, Duration::ZERO);
        assert_eq!(report.batch_latency.p50, Duration::ZERO);
        assert_eq!(report.batch_latency.p95, Duration::ZERO);
        assert_eq!(report.batch_latency.p99, Duration::ZERO);
        assert_eq!(report.batch_latency.max, Duration::ZERO);
        // And the serialized forms carry finite numbers, not NaN/inf.
        let serialized = format!(
            "{{\"throughput\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
            report.throughput(),
            report.batch_latency.p50.as_micros(),
            report.batch_latency.p99.as_micros()
        );
        assert!(!serialized.contains("NaN") && !serialized.contains("inf"), "{serialized}");
    }

    #[test]
    fn partial_final_batch() {
        let engine = engine(Topology::single());
        let mut sizes = Vec::new();
        let report = engine.run_stream(0..250, |_, batch| sizes.push(batch.len()));
        assert_eq!(report.batches, 3);
        assert_eq!(sizes, vec![100, 100, 50]);
    }

    #[test]
    fn driver_work_is_timed() {
        let engine = engine(Topology::single());
        let report = engine.run_stream(vec![1], |ctx, _| {
            let before = ctx.elapsed();
            ctx.driver(|| busy_work(3_000_000));
            assert!(ctx.elapsed() > before, "driver time charged");
        });
        assert!(report.simulated > Duration::ZERO);
    }

    #[test]
    fn throughput_is_consistent() {
        let report = StreamReport {
            batches: 1,
            records: 5_000,
            simulated: Duration::from_secs(2),
            real: Duration::from_secs(1),
            batch_latency: LatencyStats::default(),
            killed_at_batch: None,
            faults: FaultStats::default(),
        };
        assert!((report.throughput() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_summarize_distributions() {
        let ds: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let stats = LatencyStats::from_durations(ds);
        assert_eq!(stats.max, Duration::from_millis(100));
        assert!((stats.mean.as_millis() as i64 - 50).abs() <= 1);
        assert!((stats.p50.as_millis() as i64 - 50).abs() <= 1);
        assert!((stats.p95.as_millis() as i64 - 95).abs() <= 1);
        assert!((stats.p99.as_millis() as i64 - 99).abs() <= 1);
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99 && stats.p99 <= stats.max);
        assert_eq!(LatencyStats::from_durations(vec![]), LatencyStats::default());
        // Single-element input: every percentile is that element.
        let one = LatencyStats::from_durations(vec![Duration::from_millis(7)]);
        assert_eq!(one.p50, Duration::from_millis(7));
        assert_eq!(one.p99, Duration::from_millis(7));
        assert_eq!(one.max, Duration::from_millis(7));
    }

    #[test]
    fn observed_run_records_engine_metrics() {
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.microbatch_size = 250;
        cfg.retry.backoff_base_us = 100.0;
        cfg.faults = FaultPlan::none()
            .crash(0, 0, 1, 2)
            .straggle(1, 0, 0, Duration::from_millis(5));
        let engine = MicroBatchEngine::new(cfg);
        let mut obs = EngineMetrics::new();
        let report =
            engine.run_stream_observed(0, 0..1000i64, Some(&mut obs), |ctx, batch| {
                let data = ctx.parallelize(batch);
                let _ = ctx.map(&data, |x| x + 1).unwrap();
            });
        let reg = obs.registry();
        assert_eq!(reg.counter_by_name("dspe_batches_total"), Some(report.batches));
        assert_eq!(reg.counter_by_name("dspe_records_total"), Some(report.records));
        assert_eq!(
            reg.counter_by_name("dspe_task_failures_total"),
            Some(report.faults.task_failures)
        );
        assert_eq!(
            reg.counter_by_name("dspe_task_retries_total"),
            Some(report.faults.task_retries)
        );
        assert_eq!(
            reg.counter_by_name("dspe_stragglers_total"),
            Some(report.faults.stragglers)
        );
        assert!(reg.counter_by_name("dspe_straggler_wait_us_total").unwrap() >= 5_000);
        let tasks = reg.histogram_by_name("dspe_task_duration_us").unwrap();
        assert_eq!(
            tasks.count(),
            reg.counter_by_name("dspe_task_attempts_total").unwrap(),
            "one duration sample per attempt"
        );
        let lat = reg.histogram_by_name("dspe_batch_latency_us").unwrap();
        assert_eq!(lat.count(), report.batches);
        assert!(lat.max() > 0);
        // An unobserved run takes the same path with a None sink.
        let unobserved = engine.run_stream_from(0, 0..1000i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(unobserved.batches, report.batches);
    }

    #[test]
    fn stream_report_carries_batch_latency() {
        let engine = engine(Topology::local(2));
        let report = engine.run_stream(0..1000i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(report.batches, 10);
        assert!(report.batch_latency.mean > Duration::ZERO);
        assert!(report.batch_latency.p95 >= report.batch_latency.p50);
        assert!(report.batch_latency.max >= report.batch_latency.p95);
        // Latencies are consistent with the total simulated time.
        let approx_total = report.batch_latency.mean * report.batches as u32;
        let ratio = approx_total.as_secs_f64() / report.simulated.as_secs_f64();
        assert!((0.8..=1.2).contains(&ratio), "ratio {ratio}");
    }

    /// Sum 0..1000 through map+aggregate under `faults`, returning the
    /// total and the run report.
    fn faulty_sum(faults: FaultPlan) -> (i64, StreamReport) {
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.microbatch_size = 250;
        cfg.retry.backoff_base_us = 100.0;
        cfg.faults = faults;
        let engine = MicroBatchEngine::new(cfg);
        let mut total = 0i64;
        let report = engine.run_stream(0..1000i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let sq = ctx.map(&data, |x| x * 3).unwrap();
            total += ctx
                .aggregate(&sq, |_, p| p.iter().sum::<i64>(), |a, b| a + b)
                .unwrap()
                .unwrap_or(0);
        });
        (total, report)
    }

    #[test]
    fn injected_crashes_are_retried_and_masked() {
        let (clean, clean_report) = faulty_sum(FaultPlan::none());
        assert!(clean_report.faults.is_clean());
        // Partition 1 of batch 0 stage 0 crashes twice; partition 2 of
        // batch 2 stage 1 crashes once.
        let plan = FaultPlan::none().crash(0, 0, 1, 2).crash(2, 1, 2, 1);
        let (faulty, report) = faulty_sum(plan);
        assert_eq!(faulty, clean, "retries reproduce the lost task outputs");
        assert_eq!(report.faults.task_failures, 3);
        assert_eq!(report.faults.task_retries, 3);
        assert_eq!(report.faults.max_attempts, 3, "worst task needed 3 attempts");
        assert_eq!(report.killed_at_batch, None);
    }

    #[test]
    fn exhausted_retries_fail_the_stage() {
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        cfg.retry.max_task_attempts = 3;
        cfg.retry.backoff_base_us = 10.0;
        cfg.faults = FaultPlan::none().crash(0, 0, 0, 99);
        let engine = MicroBatchEngine::new(cfg);
        let mut err = None;
        engine.run_stream(0..100i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            if let Err(e) = ctx.map(&data, |x| x + 1) {
                err = Some(e);
            }
        });
        match err {
            Some(Error::TaskFailed { batch: 0, stage: 0, partition: 0, attempts: 3 }) => {}
            other => panic!("expected TaskFailed after 3 attempts, got {other:?}"),
        }
    }

    #[test]
    fn stragglers_cost_simulated_time_but_not_correctness() {
        let (clean, clean_report) = faulty_sum(FaultPlan::none());
        let plan = FaultPlan::none().straggle(1, 0, 0, Duration::from_millis(400));
        let (slowed, report) = faulty_sum(plan);
        assert_eq!(slowed, clean);
        assert_eq!(report.faults.stragglers, 1);
        assert_eq!(report.faults.task_failures, 0);
        assert!(
            report.simulated >= clean_report.simulated + Duration::from_millis(300),
            "straggler delay charged: {:?} vs {:?}",
            report.simulated,
            clean_report.simulated
        );
    }

    #[test]
    fn repeated_failures_blacklist_slots() {
        // Same task fails enough times to trip the blacklist threshold.
        let plan = FaultPlan::none().crash(0, 0, 1, 3);
        let (total, report) = faulty_sum(plan);
        let (clean, _) = faulty_sum(FaultPlan::none());
        assert_eq!(total, clean);
        assert!(report.faults.blacklisted >= 1, "{:?}", report.faults);
    }

    #[test]
    fn driver_kill_stops_the_stream_after_its_batch() {
        let (_, report) = faulty_sum(FaultPlan::none().kill_driver_after(1));
        assert_eq!(report.killed_at_batch, Some(1));
        assert_eq!(report.batches, 2, "batches 0 and 1 completed");
        assert_eq!(report.records, 500);
    }

    #[test]
    fn run_stream_from_preserves_global_batch_numbering() {
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        let engine = MicroBatchEngine::new(cfg);
        let mut seen = Vec::new();
        let report = engine.run_stream_from(5, 0..300i64, |ctx, _| {
            seen.push(ctx.batch_index());
        });
        assert_eq!(seen, vec![5, 6, 7]);
        assert_eq!(report.batches, 3);
    }

    #[test]
    fn seeded_scatter_preserves_aggregate_semantics() {
        // The default config scatters; disabling the seed falls back to
        // round-robin. Both must agree on any partition-invariant result.
        let input: Vec<i64> = (0..997).collect();
        let run = |seed: Option<u64>| -> i64 {
            let mut cfg = EngineConfig::for_topology(Topology::local(4));
            cfg.microbatch_size = 250;
            cfg.partition_seed = seed;
            let engine = MicroBatchEngine::new(cfg);
            let mut total = 0;
            engine.run_stream(input.clone(), |ctx, batch| {
                let data = ctx.parallelize(batch);
                total += ctx
                    .aggregate(&data, |_, p| p.iter().sum::<i64>(), |a, b| a + b)
                    .unwrap()
                    .unwrap_or(0);
            });
            total
        };
        assert_eq!(run(None), run(Some(DEFAULT_PARTITION_SEED)));
        assert_eq!(run(Some(1)), run(Some(2)));
    }

    #[test]
    fn faults_on_replayed_batches_refire_identically() {
        // The same plan applied to a tail replay (run_stream_from) hits the
        // same (batch, stage, partition) — the chaos-recovery invariant.
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.microbatch_size = 250;
        cfg.retry.backoff_base_us = 100.0;
        cfg.faults = FaultPlan::none().crash(2, 0, 1, 1);
        let engine = MicroBatchEngine::new(cfg);
        // Full run: fault fires in batch 2.
        let full = engine.run_stream(0..1000i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(full.faults.task_failures, 1);
        // Tail replay starting at batch 2: same fault fires again.
        let tail = engine.run_stream_from(2, 500..1000i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(tail.faults.task_failures, 1);
        // A tail that skips batch 2 sees no fault.
        let later = engine.run_stream_from(3, 750..1000i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(later.faults.task_failures, 0);
    }

    #[test]
    fn real_threads_clamped_to_available_parallelism() {
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.real_threads = 4096;
        let engine = MicroBatchEngine::new(cfg);
        assert!(engine.config().real_threads <= available_threads());
        assert!(engine.config().real_threads >= 1);
        let mut zero = EngineConfig::for_topology(Topology::single());
        zero.real_threads = 0;
        assert_eq!(MicroBatchEngine::new(zero).config().real_threads, 1);
    }

    #[test]
    fn task_spans_respect_slot_contention() {
        // 8 tasks on a 2-slot topology: the greedy list schedule runs them
        // 4-deep per slot. Pre-fix, every task span started at
        // `wave_start_us` — the trace showed 8-way concurrency while
        // `record_stage_on` charged a 4-deep makespan, and critical-path
        // analysis booked the queueing delay as stage self time.
        use redhanded_obs::Span;
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.num_partitions = 8;
        cfg.microbatch_size = 800;
        cfg.cost_model = CostModel::free();
        cfg.cost_model.task_overhead_us = 10.0;
        let engine = MicroBatchEngine::new(cfg);
        let mut tracer = Tracer::new();
        let input: Vec<u64> = vec![20_000; 800];
        engine.run_stream_traced(0, input, None, Some(&mut tracer), |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx
                .map_partitions(&data, |_, part| {
                    part.iter().fold(0u64, |a, &n| a.wrapping_add(busy_work(n)))
                })
                .unwrap();
        });
        let spans = tracer.spans();
        let tasks: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Task).collect();
        assert_eq!(tasks.len(), 8);
        let min_start = tasks.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min);
        let at_start = tasks.iter().filter(|s| s.start_us <= min_start + 1e-6).count();
        assert_eq!(at_start, 2, "only as many tasks start immediately as there are slots");
        let first_end = tasks.iter().map(|s| s.end_us).fold(f64::INFINITY, f64::min);
        let last_start = tasks.iter().map(|s| s.start_us).fold(0.0f64, f64::max);
        assert!(
            last_start >= first_end - 1e-6,
            "the last task waits for a slot: starts at {last_start}, first completion {first_end}"
        );
        // Stage self time (stage duration minus the union of its task
        // spans) is dispatch overhead only — 8 tasks × 10µs — not the
        // queueing delay the old layout left unattributed.
        let stage = spans.iter().find(|s| s.kind == SpanKind::Stage).unwrap();
        let mut ivs: Vec<(f64, f64)> = tasks.iter().map(|s| (s.start_us, s.end_us)).collect();
        ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0f64;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in ivs {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        let residue = (stage.end_us - stage.start_us) - covered;
        assert!(
            residue <= 8.0 * 10.0 + 1e-6,
            "stage self time {residue}µs exceeds pure dispatch overhead"
        );
    }

    #[test]
    fn real_mode_matches_simulated_semantics() {
        let run = |mode: ExecMode| -> (i64, u64, u64, u64, Vec<u8>) {
            let mut cfg = EngineConfig::for_topology(Topology::local(4));
            cfg.microbatch_size = 250;
            cfg.retry.backoff_base_us = 100.0;
            cfg.exec_mode = mode;
            cfg.faults = FaultPlan::none()
                .crash(0, 0, 1, 2)
                .straggle(1, 0, 0, Duration::from_millis(2));
            let engine = MicroBatchEngine::new(cfg);
            let mut tracer = Tracer::new();
            let mut total = 0i64;
            let report =
                engine.run_stream_traced(0, 0..1000i64, None, Some(&mut tracer), |ctx, batch| {
                    let data = ctx.parallelize(batch);
                    let sq = ctx.map(&data, |x| x * 3).unwrap();
                    total += ctx
                        .aggregate(&sq, |_, p| p.iter().sum::<i64>(), |a, b| a + b)
                        .unwrap()
                        .unwrap_or(0);
                });
            (
                total,
                report.batches,
                report.faults.task_failures,
                report.faults.stragglers,
                tracer.deterministic_digest(),
            )
        };
        let sim = run(ExecMode::Simulated);
        let real = run(ExecMode::Real);
        assert_eq!(sim, real, "identical results, fault handling, and span tree across backends");
    }

    #[test]
    fn real_mode_spans_nest_and_driver_kill_stops_stream() {
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        cfg.exec_mode = ExecMode::Real;
        cfg.faults = FaultPlan::none().kill_driver_after(1);
        let engine = MicroBatchEngine::new(cfg);
        let mut tracer = Tracer::new();
        let report = engine.run_stream_traced(0, 0..1000i64, None, Some(&mut tracer), |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        // The kill stops the driver loop even though the ingest thread ran
        // ahead: only batches 0 and 1 were processed and counted.
        assert_eq!(report.killed_at_batch, Some(1));
        assert_eq!(report.batches, 2);
        assert_eq!(report.records, 200);
        assert!(report.simulated > Duration::ZERO, "wall time mirrored into the clock");
        // The wall-stamped span tree still nests exactly.
        let spans = tracer.spans();
        assert!(!spans.is_empty());
        for s in spans {
            assert!(s.end_us >= s.start_us);
            if s.parent != u32::MAX {
                let p = &spans[s.parent as usize];
                assert!(p.start_us <= s.start_us + 1e-6);
                assert!(p.end_us >= s.end_us - 1e-6, "{:?} escapes {:?}", s.kind, p.kind);
            }
        }
    }

    #[test]
    fn real_mode_records_pool_telemetry_and_worker_spans() {
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.microbatch_size = 250;
        cfg.exec_mode = ExecMode::Real;
        cfg.real_threads = 2;
        let engine = MicroBatchEngine::new(cfg);
        let mut obs = EngineMetrics::new();
        let mut tracer = Tracer::new();
        // Every task runs for at least 2 µs of wall time, so its span,
        // stamped in whole microseconds, is never empty.
        let report = engine.run_stream_traced(
            0,
            0..1000i64,
            Some(&mut obs),
            Some(&mut tracer),
            |ctx, batch| {
                let data = ctx.parallelize(batch);
                let _ = ctx
                    .map_partitions(&data, |_, part| {
                        spin_for(Duration::from_micros(2));
                        part.len()
                    })
                    .unwrap();
            },
        );
        assert_eq!(report.batches, 4);
        // Conservation: every task the pool scheduled is attributed to
        // exactly one worker.
        let total = obs.pool().total();
        assert!(obs.pool().waves >= 4, "one wave per map stage");
        assert_eq!(total.tasks, obs.pool().tasks_scheduled);
        assert_eq!(total.tasks, 16, "4 batches × 4 partitions");
        assert!(total.steals <= total.steal_attempts);
        assert!(total.wall_us >= total.busy_us.saturating_sub(obs.pool().waves));
        assert!(obs.pool().parallel_efficiency() > 0.0);
        assert!(obs.pool().parallel_efficiency() <= 1.0 + 1e-9);
        // The registry mirrors the telemetry (fold happens per wave).
        let counter = |name: &str| -> u64 {
            obs.registry()
                .counters()
                .find(|(n, _, _)| *n == name)
                .map(|(_, _, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(counter("dspe_pool_tasks_total"), total.tasks);
        assert_eq!(counter("dspe_pool_busy_us_total"), total.busy_us);
        assert_eq!(counter("dspe_pool_steals_total"), total.steals);
        // Worker wall spans are emitted under the stage spans, and every
        // real task span carries its executing worker.
        let spans = tracer.spans();
        let worker_spans: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::Worker).collect();
        assert!(!worker_spans.is_empty());
        for w in &worker_spans {
            assert_eq!(spans[w.parent as usize].kind, SpanKind::Stage);
            assert!(w.end_us >= w.start_us);
        }
        assert!(spans
            .iter()
            .filter(|s| s.kind == SpanKind::Task)
            .all(|s| s.worker != u32::MAX));
        // The wall-clock critical path analysis yields worker rows with
        // busy time covered by wave wall time. A work-stealing pool does
        // not promise every worker a task (one may drain the whole wave
        // before another starts), so only what it does promise is checked:
        // every task is attributed to exactly one worker, no worker is
        // busy longer than it was live, and a worker that ran a task was
        // busy.
        let analysis = redhanded_obs::analyze(&tracer);
        assert!(!analysis.workers.is_empty());
        let attributed: u64 = analysis.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(attributed, total.tasks, "Σ per-worker task spans == tasks scheduled");
        for w in &analysis.workers {
            assert!(w.busy_us <= w.wall_us, "worker {} busy beyond its wall time", w.worker);
            if w.tasks > 0 {
                assert!(w.busy_us > 0.0, "worker {} ran tasks but shows no busy time", w.worker);
            }
        }
        let stage_row = analysis.stage(SpanKind::Stage).expect("stage row");
        assert!(stage_row.work_us > 0.0);
        assert!(stage_row.parallel_efficiency() > 0.0);
        // The flight recorder retained the task/wave stream.
        assert!(obs.flight().log().total() >= 16 + 4);
    }

    /// Busy-wait for `d` of wall time.
    fn spin_for(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn real_mode_attributes_tasks_to_every_live_worker() {
        // Deterministic multi-worker attribution: each task waits until
        // two distinct threads have started tasks, which only two live
        // pool workers can satisfy. Worker 0 cannot drain the wave alone,
        // so both workers are attributed tasks and busy time.
        if available_threads() < 2 {
            eprintln!("skipped: two-worker attribution needs 2 cores, this host has 1");
            return;
        }
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.microbatch_size = 400;
        cfg.exec_mode = ExecMode::Real;
        cfg.real_threads = 2;
        let engine = MicroBatchEngine::new(cfg);
        let mut obs = EngineMetrics::new();
        let mut tracer = Tracer::new();
        let live = std::sync::Mutex::new(Vec::<std::thread::ThreadId>::new());
        let rendezvous = || {
            let me = std::thread::current().id();
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let seen = match live.lock() {
                    Ok(mut ids) => {
                        if !ids.contains(&me) {
                            ids.push(me);
                        }
                        ids.len()
                    }
                    Err(_) => return,
                };
                // The deadline turns a pool that never starts a second
                // worker into an assertion failure below, not a hang.
                if seen >= 2 || Instant::now() > deadline {
                    return;
                }
                std::hint::spin_loop();
            }
        };
        let report = engine.run_stream_traced(
            0,
            0..400i64,
            Some(&mut obs),
            Some(&mut tracer),
            |ctx, batch| {
                let data = ctx.parallelize(batch);
                let _ = ctx
                    .map_partitions(&data, |_, part| {
                        rendezvous();
                        spin_for(Duration::from_micros(2));
                        part.len()
                    })
                    .unwrap();
            },
        );
        assert_eq!(report.batches, 1);
        assert_eq!(obs.pool().total().tasks, 4);
        let analysis = redhanded_obs::analyze(&tracer);
        assert_eq!(analysis.workers.len(), 2, "both workers are attributed");
        for w in &analysis.workers {
            assert!(w.tasks > 0, "worker {} ran no task", w.worker);
            assert!(w.busy_us > 0.0, "worker {} shows no busy time", w.worker);
            assert!(w.busy_us <= w.wall_us, "worker {} busy beyond its wall time", w.worker);
        }
    }

    #[test]
    fn live_endpoint_serves_mid_run_snapshots() {
        use std::io::{Read as _, Write as _};
        const ADDR: &str = "127.0.0.1:47719";
        let scrape = |path: &str| -> String {
            let mut s = std::net::TcpStream::connect(ADDR).expect("connect live endpoint");
            s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("request");
            let mut out = String::new();
            s.read_to_string(&mut out).expect("response");
            out
        };
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        cfg.exec_mode = ExecMode::Real;
        cfg.serve_addr = Some(ADDR.to_string());
        let engine = MicroBatchEngine::new(cfg);
        let mut obs = EngineMetrics::new();
        let mut scraped: Vec<String> = Vec::new();
        engine.run_stream_observed(0, 0..500i64, Some(&mut obs), |ctx, batch| {
            if ctx.batch_index() == 2 && scraped.is_empty() {
                // Mid-run: two batches have been processed and published.
                scraped.push(scrape("/metrics"));
                scraped.push(scrape("/metrics.json"));
            }
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(scraped.len(), 2, "handler scraped mid-run");
        let prom = &scraped[0];
        assert!(prom.starts_with("HTTP/1.0 200 OK"));
        assert!(prom.contains("# TYPE dspe_batches_total counter"));
        assert!(prom.contains("dspe_batches_total{class=\"runtime\"} 2"));
        assert!(prom.contains("dspe_pool_tasks_total"));
        let json = &scraped[1];
        assert!(json.contains("application/json"));
        assert!(json.contains("\"source\": \"dspe-live\""));
        assert!(json.contains("\"dspe_pool_tasks_total\""));
        // The endpoint is torn down with the run: the port is rebindable.
        assert!(std::net::TcpListener::bind(ADDR).is_ok(), "port released after run");
    }

    #[test]
    fn faults_dump_the_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("redhanded_flight_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Retry exhaustion (plus a straggler hit in the same run).
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        cfg.retry.max_task_attempts = 2;
        cfg.retry.backoff_base_us = 10.0;
        cfg.faults = FaultPlan::none()
            .crash(0, 0, 0, 99)
            .straggle(0, 0, 1, Duration::from_millis(1));
        cfg.flight_dir = Some(dir.clone());
        let engine = MicroBatchEngine::new(cfg);
        let mut obs = EngineMetrics::new();
        engine.run_stream_observed(0, 0..100i64, Some(&mut obs), |ctx, batch| {
            let data = ctx.parallelize(batch);
            // The exhausted retry surfaces as an error; the handler absorbs
            // it so the dump can be inspected.
            let _ = ctx.map(&data, |x| x + 1);
        });
        assert!(obs.flight().dumps() >= 2, "straggler + exhaustion dumps");
        let dump = std::fs::read_to_string(dir.join("FLIGHT_retry_exhausted.json"))
            .expect("retry-exhaustion dump written");
        assert!(dump.contains("\"trigger\": \"retry_exhausted\""));
        assert!(dump.contains("task_exhausted"));
        assert!(dump.contains("task_finished"));
        let straggler = std::fs::read_to_string(dir.join("FLIGHT_straggler.json"))
            .expect("straggler dump written");
        assert!(straggler.contains("\"trigger\": \"straggler\""));

        // Driver kill.
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        cfg.faults = FaultPlan::none().kill_driver_after(0);
        cfg.flight_dir = Some(dir.clone());
        let engine = MicroBatchEngine::new(cfg);
        let mut obs = EngineMetrics::new();
        let report = engine.run_stream_observed(0, 0..300i64, Some(&mut obs), |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(report.killed_at_batch, Some(0));
        assert_eq!(obs.flight().dumps(), 1);
        let dump = std::fs::read_to_string(dir.join("FLIGHT_driver_kill.json"))
            .expect("driver-kill dump written");
        assert!(dump.contains("\"trigger\": \"driver_kill\""));
        assert!(dump.contains("driver_killed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unobserved_runs_never_bind_the_live_endpoint() {
        const ADDR: &str = "127.0.0.1:47721";
        // Hold the port for the whole run: if the engine tried to bind it
        // despite obs being None, the bind would fail and (worse) a scrape
        // would hang — holding it proves the engine never asked.
        let guard = std::net::TcpListener::bind(ADDR).expect("guard bind");
        let mut cfg = EngineConfig::for_topology(Topology::local(2));
        cfg.microbatch_size = 100;
        cfg.serve_addr = Some(ADDR.to_string());
        let engine = MicroBatchEngine::new(cfg);
        let report = engine.run_stream(0..200i64, |ctx, batch| {
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(report.batches, 2);
        drop(guard);
    }

    #[test]
    fn latency_stats_extreme_values_stay_ordered() {
        // Saturation-adjacent inputs: microseconds next to a ~12-day
        // duration must keep the nearest-rank percentiles monotone
        // (p99 can never read below p50, whatever the skew).
        let ds = vec![
            Duration::from_micros(1),
            Duration::from_micros(2),
            Duration::from_secs(1_000_000),
        ];
        let stats = LatencyStats::from_durations(ds);
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99 && stats.p99 <= stats.max);
        assert_eq!(stats.p50, Duration::from_micros(2));
        assert_eq!(stats.p99, Duration::from_secs(1_000_000));
        assert_eq!(stats.max, Duration::from_secs(1_000_000));
        // Two samples: nearest-rank (round-half-up) puts every percentile
        // from the median upward on the larger sample.
        let two = LatencyStats::from_durations(vec![
            Duration::from_micros(1),
            Duration::from_secs(1_000_000),
        ]);
        assert_eq!(two.p50, two.p99);
        assert!(two.p50 <= two.max);
    }

    #[test]
    fn traced_run_records_the_batch_tree() {
        use redhanded_obs::{Span, SpanKind};
        let mut cfg = EngineConfig::for_topology(Topology::local(4));
        cfg.microbatch_size = 500;
        cfg.retry.backoff_base_us = 100.0;
        cfg.faults = FaultPlan::none()
            .crash(0, 0, 1, 1)
            .straggle(1, 0, 2, Duration::from_millis(3));
        let engine = MicroBatchEngine::new(cfg);
        let mut tracer = Tracer::new();
        let report =
            engine.run_stream_traced(0, 0..1000i64, None, Some(&mut tracer), |ctx, batch| {
                let phase = ctx.trace_begin(SpanKind::Driver, 0, 0);
                ctx.trace_end(phase);
                let data = ctx.parallelize(batch);
                let _ = ctx.map(&data, |x| x + 1).unwrap();
            });
        assert_eq!(report.batches, 2);
        let spans = tracer.spans();
        let of = |k: SpanKind| -> Vec<&Span> { spans.iter().filter(|s| s.kind == k).collect() };
        let batches = of(SpanKind::Batch);
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|s| s.parent == u32::MAX && s.a == 500));
        assert_eq!(of(SpanKind::Stage).len(), 2, "one map stage per batch");
        // Batch 0: 4 first attempts + 1 retry; batch 1: 4 attempts.
        let tasks = of(SpanKind::Task);
        assert_eq!(tasks.len(), 9);
        let retried: Vec<&&Span> = tasks.iter().filter(|s| s.attempt > 1).collect();
        assert_eq!(retried.len(), 1);
        assert_eq!(retried[0].batch, 0);
        assert_eq!(retried[0].b, 1, "partition 1 was retried");
        assert!(tasks.iter().any(|s| s.failed && s.attempt == 1));
        assert!(
            tasks.iter().any(|s| s.batch == 1 && s.straggle_us >= 3_000),
            "straggle annotated"
        );
        assert_eq!(of(SpanKind::Backoff).len(), 1, "one retry wave backed off");
        assert_eq!(of(SpanKind::Driver).len(), 2, "handler phase spans recorded");
        // Every child is temporally contained in its parent, and every
        // non-root has a recorded parent.
        for s in spans {
            assert!(s.end_us >= s.start_us);
            if s.parent != u32::MAX {
                let p = &spans[s.parent as usize];
                assert!(p.start_us <= s.start_us + 1e-6);
                assert!(p.end_us >= s.end_us - 1e-6, "{:?} escapes {:?}", s.kind, p.kind);
            }
        }
        // The digest is insensitive to the injected faults: a clean run of
        // the same stream yields the same deterministic tree.
        let mut clean_cfg = EngineConfig::for_topology(Topology::local(4));
        clean_cfg.microbatch_size = 500;
        let clean_engine = MicroBatchEngine::new(clean_cfg);
        let mut clean_tracer = Tracer::new();
        clean_engine.run_stream_traced(0, 0..1000i64, None, Some(&mut clean_tracer), |ctx, batch| {
            let phase = ctx.trace_begin(SpanKind::Driver, 0, 0);
            ctx.trace_end(phase);
            let data = ctx.parallelize(batch);
            let _ = ctx.map(&data, |x| x + 1).unwrap();
        });
        assert_eq!(
            tracer.deterministic_digest(),
            clean_tracer.deterministic_digest(),
            "faults are runtime facts; the semantic tree is identical"
        );
    }
}
