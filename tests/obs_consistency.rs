//! Observability under chaos (DESIGN.md §10): the deterministic half of
//! the metric registry and event log — record/alert/suspension counts, the
//! alert-confidence histogram, the BoW and drift gauges, drift/alert
//! events — must be **bit-identical** between a fault-free run and a run
//! that crashed tasks, straggled, lost its driver, and recovered from a
//! checkpoint. Runtime-class metrics (timings, retries, checkpoint costs)
//! are explicitly exempt: a recovered run legitimately works harder.

use std::time::Duration;

use redhanded_core::{
    intermix, run_with_recovery, ModelKind, PipelineConfig, SparkConfig, SparkDetector,
    StreamItem,
};
use redhanded_datagen::{generate_abusive, generate_unlabeled, AbusiveConfig};
use redhanded_dspe::{
    ChaosHarness, CheckpointStore, CostModel, EngineConfig, ExecMode, FaultPlan,
    MemoryCheckpointStore, Topology,
};
use redhanded_obs::{analyze, chrome_trace_json, obs_report_json, trace_report_json, SpanKind};
use redhanded_types::snapshot::{Checkpoint, SnapshotReader, SnapshotWriter};
use redhanded_types::ClassScheme;

/// 6000 mixed items → 12 micro-batches of 500 on a 4-slot local topology.
fn stream() -> Vec<StreamItem> {
    intermix(
        generate_abusive(&AbusiveConfig::small(3000, 21)),
        generate_unlabeled(3000, 22),
    )
}

fn detector(plan: FaultPlan) -> SparkDetector {
    let pipeline = PipelineConfig::paper(ClassScheme::TwoClass, ModelKind::ht());
    let mut engine = EngineConfig::for_topology(Topology::local(4));
    engine.microbatch_size = 500;
    engine.cost_model = CostModel::default();
    engine.faults = plan;
    SparkDetector::new(SparkConfig::new(pipeline, engine)).unwrap()
}

/// The seeded chaos schedule of `tests/chaos_recovery.rs`: three task
/// crashes, a straggler, and a driver kill between checkpoints.
fn seeded_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(1, 0, 0, 1)
        .crash(3, 0, 2, 2)
        .crash(5, 0, 1, 1)
        .straggle(2, 0, 3, Duration::from_millis(20))
        .kill_driver_after(4)
}

const DETERMINISTIC_COUNTERS: &[&str] = &[
    "pipeline_records_total",
    "pipeline_labeled_total",
    "pipeline_skipped_total",
    "pipeline_classified_total",
    "pipeline_alerts_raised_total",
    "pipeline_alerts_drained_total",
    "pipeline_users_suspended_total",
];

#[test]
fn recovered_obs_is_bit_identical_to_fault_free() {
    let items = stream();
    let harness = ChaosHarness::new(seeded_plan());
    let ((clean_report, clean), (chaos_report, chaos)) = harness.run_both(|plan| {
        let mut d = detector(plan);
        let mut store = MemoryCheckpointStore::new(2);
        let report = run_with_recovery(&mut d, items.clone(), &mut store, 3).unwrap();
        (report, d)
    });
    assert_eq!(clean_report.restarts, 0);
    assert_eq!(chaos_report.restarts, 1, "driver was killed and recovered");

    let (co, ko) = (clean.obs(), chaos.obs());
    // Nothing was evicted from the ring, so digests cover every event.
    assert_eq!(co.events().dropped(), 0);
    assert_eq!(ko.events().dropped(), 0);

    // The headline guarantee: deterministic metrics and events are
    // bit-identical across recovery.
    assert_eq!(
        co.registry().deterministic_digest(),
        ko.registry().deterministic_digest(),
        "deterministic metrics diverged across recovery"
    );
    assert_eq!(
        co.events().deterministic_digest(),
        ko.events().deterministic_digest(),
        "deterministic events diverged across recovery"
    );
    for name in DETERMINISTIC_COUNTERS {
        assert_eq!(
            co.registry().counter_by_name(name),
            ko.registry().counter_by_name(name),
            "{name}"
        );
    }
    assert_eq!(
        co.registry().histogram_by_name("pipeline_alert_confidence_1e6"),
        ko.registry().histogram_by_name("pipeline_alert_confidence_1e6"),
    );

    // Exactly-once cross-checks against the detector's own state.
    assert_eq!(
        ko.registry().counter_by_name("pipeline_records_total"),
        Some(items.len() as u64)
    );
    assert_eq!(
        ko.registry().counter_by_name("pipeline_alerts_raised_total"),
        Some(chaos.alerter().alerts_raised())
    );
    assert_eq!(
        ko.registry()
            .histogram_by_name("pipeline_alert_confidence_1e6")
            .unwrap()
            .count(),
        chaos.alerter().alerts_raised()
    );

    // Runtime-class metrics are *not* expected to match — and must show
    // the faults on the chaos side only.
    let runtime = |r: &redhanded_obs::Registry, n: &str| r.counter_by_name(n).unwrap_or(0);
    assert_eq!(runtime(co.registry(), "dspe_task_failures_total"), 0);
    assert!(
        runtime(ko.registry(), "dspe_task_failures_total") >= 3,
        "three crash sites fired"
    );
    assert!(runtime(ko.registry(), "dspe_task_retries_total") >= 3);
    assert!(runtime(ko.registry(), "dspe_stragglers_total") >= 1);
    assert!(runtime(ko.registry(), "pipeline_checkpoint_saves_total") > 0);
    assert!(runtime(ko.registry(), "pipeline_checkpoint_bytes_total") > 0);
    assert!(
        runtime(ko.registry(), "dspe_batches_total") > runtime(co.registry(), "dspe_batches_total"),
        "the recovered run re-executed batches"
    );

    // Span traces: the deterministic span-tree digest (sorted causal keys,
    // replayed batches deduplicated, retry attempts and runtime-class spans
    // excluded) must be bit-identical across recovery even though the
    // chaos run re-executed batches and paid retries/backoff.
    assert_eq!(co.trace().dropped(), 0);
    assert_eq!(ko.trace().dropped(), 0);
    assert_eq!(
        co.trace().deterministic_digest(),
        ko.trace().deterministic_digest(),
        "deterministic span tree diverged across recovery"
    );
    // The chaos trace visibly carries the fault story the digest ignores:
    // retried task attempts and backoff spans appear only on the chaos side.
    let retried = |t: &redhanded_obs::Tracer| {
        t.spans().iter().filter(|s| s.attempt > 1).count()
    };
    let backoffs = |t: &redhanded_obs::Tracer| {
        t.spans().iter().filter(|s| s.kind == SpanKind::Backoff).count()
    };
    assert_eq!(retried(co.trace()), 0);
    assert!(retried(ko.trace()) >= 3, "three crash sites left retry attempts");
    assert_eq!(backoffs(co.trace()), 0);
    assert!(backoffs(ko.trace()) >= 3);

    // The critical-path analyzer holds its invariants on the chaos tree:
    // the critical path dominates every single span and never exceeds the
    // summed batch wall time.
    let analysis = analyze(ko.trace());
    assert!(analysis.batches > 0);
    assert!(analysis.critical_path_us >= analysis.longest_span_us);
    assert!(analysis.critical_path_us <= analysis.total_us);
    let retry_us: f64 = analysis.stages.iter().map(|s| s.retry_backoff_us).sum();
    assert!(retry_us > 0.0, "chaos attribution surfaces retry/backoff time");

    // The chaos harness emits the machine-readable OBS report plus the
    // trace artifacts (critical-path report + Perfetto-loadable JSON). They
    // go to a per-process temp dir: the committed copies under `results/`
    // have one producer, `perf_smoke`.
    let dir = std::env::temp_dir().join(format!("redhanded-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = obs_report_json("chaos_harness", ko.registry(), ko.events());
    std::fs::write(dir.join("OBS_report.json"), &json).unwrap();
    assert!(json.contains("\"source\": \"chaos_harness\""));
    assert!(json.contains("pipeline_alerts_raised_total"));
    let trace_json = trace_report_json("chaos_harness", ko.trace(), &analysis);
    std::fs::write(dir.join("TRACE_report.json"), &trace_json).unwrap();
    assert!(trace_json.contains("\"source\": \"chaos_harness\""));
    std::fs::write(dir.join("TRACE_perfetto.json"), chrome_trace_json(ko.trace())).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Runtime worker telemetry (PR 10) is invisible to every deterministic
/// artifact by construction: a real-mode run that demonstrably exercised
/// the work-stealing pool carries the same deterministic registry, event,
/// and span-tree digests as its simulated twin, and a checkpoint of the
/// real detector resurrects with no pool counters at all.
#[test]
fn real_mode_pool_telemetry_stays_out_of_deterministic_obs() {
    let items = stream();
    let mut sim = detector(FaultPlan::none());
    sim.run(items.clone()).unwrap();

    let mut real = detector(FaultPlan::none());
    real.engine_config_mut().exec_mode = ExecMode::Real;
    real.engine_config_mut().real_threads = 2;
    real.run(items).unwrap();

    // The real run actually measured the pool: per-worker telemetry
    // conserved into the merged registry, the sim run recorded none.
    let rr = real.obs().registry();
    let pool_tasks = rr.counter_by_name("dspe_pool_tasks_total").unwrap_or(0);
    assert!(pool_tasks > 0, "real run scheduled pool tasks");
    assert_eq!(pool_tasks, real.pool().tasks_scheduled);
    assert_eq!(pool_tasks, real.pool().total().tasks, "Σ per-worker tasks == scheduled");
    assert!(real.pool().parallel_efficiency() > 0.0);
    assert_eq!(sim.obs().registry().counter_by_name("dspe_pool_tasks_total"), Some(0));
    assert_eq!(sim.pool().worker_count(), 0);

    // All of it is Runtime-class, so every deterministic digest matches
    // the simulated twin bit for bit.
    assert_eq!(
        sim.obs().registry().deterministic_digest(),
        real.obs().registry().deterministic_digest(),
        "pool counters leaked into the deterministic registry digest"
    );
    assert_eq!(
        sim.obs().events().deterministic_digest(),
        real.obs().events().deterministic_digest(),
        "scheduler events leaked into the deterministic event digest"
    );
    assert_eq!(
        sim.obs().trace().deterministic_digest(),
        real.obs().trace().deterministic_digest(),
        "worker wall spans leaked into the deterministic span-tree digest"
    );

    // Checkpoints capture semantic state only: restoring the real
    // detector's snapshot into a fresh detector resurrects zero pool
    // telemetry.
    let mut w = SnapshotWriter::new();
    real.snapshot_into(&mut w);
    let bytes = w.into_bytes();
    let mut fresh = detector(FaultPlan::none());
    let mut r = SnapshotReader::new(&bytes);
    fresh.restore_from(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(
        fresh.obs().registry().counter_by_name("dspe_pool_tasks_total").unwrap_or(0),
        0,
        "pool counters travelled through a checkpoint"
    );
    assert_eq!(fresh.pool().worker_count(), 0);
}

/// Draining alerts mid-stream must never double-count: even when the
/// surviving checkpoint *pre-dates* the drain (so recovery resurrects the
/// drained alerts as pending — at-least-once delivery), sequence numbers
/// and the raised totals stay exactly-once and deterministic obs state
/// matches a drain-free fault-free run.
#[test]
fn drain_mid_run_counts_alerts_exactly_once() {
    let items = stream();
    let (first, second) = items.split_at(3000);

    // Baseline: both segments fault-free, no drain.
    let mut clean = detector(FaultPlan::none());
    clean.run_segment(first.to_vec(), 0, 0, None).unwrap();
    clean.run_segment(second.to_vec(), 6, 3000, None).unwrap();

    // Chaos: checkpoint the first segment, drain between segments, then
    // lose the driver before any post-drain checkpoint exists.
    let mut store = MemoryCheckpointStore::new(2);
    let mut chaos = detector(FaultPlan::none());
    chaos
        .run_segment(first.to_vec(), 0, 0, Some((&mut store, 3)))
        .unwrap();
    let delivered = chaos.alerter_mut().drain();
    assert!(!delivered.is_empty(), "first segment raised alerts");
    chaos.engine_config_mut().faults = FaultPlan::none().kill_driver_after(7);
    let killed = chaos.run_segment(second.to_vec(), 6, 3000, None).unwrap();
    assert_eq!(killed.stream.killed_at_batch, Some(7));

    // Recover from the latest (pre-drain) checkpoint and finish.
    let (meta, payload) = store.latest().unwrap().expect("checkpoint exists");
    assert_eq!(meta.batches_done, 6, "surviving checkpoint pre-dates the drain");
    let mut r = SnapshotReader::new(&payload);
    chaos.restore_from(&mut r).unwrap();
    r.finish().unwrap();
    chaos.engine_config_mut().faults.disarm_driver_kill();
    chaos
        .run_segment(
            items[meta.records_done as usize..].to_vec(),
            meta.batches_done,
            meta.records_done,
            None,
        )
        .unwrap();

    // Exactly-once: same monotonic raised totals, same deterministic obs.
    assert_eq!(chaos.alerter().alerts_raised(), clean.alerter().alerts_raised());
    assert_eq!(
        chaos.obs().registry().deterministic_digest(),
        clean.obs().registry().deterministic_digest()
    );
    assert_eq!(
        chaos.obs().trace().deterministic_digest(),
        clean.obs().trace().deterministic_digest(),
        "span-tree digest tolerates the replayed post-drain segment"
    );
    assert_eq!(
        chaos.obs().registry().counter_by_name("pipeline_alerts_raised_total"),
        Some(clean.alerter().alerts_raised())
    );
    // The confidence histogram saw each alert exactly once.
    assert_eq!(
        chaos
            .obs()
            .registry()
            .histogram_by_name("pipeline_alert_confidence_1e6")
            .unwrap()
            .count(),
        chaos.alerter().alerts_raised()
    );

    // At-least-once delivery, deduplicable: the externally delivered seqs
    // plus the now-pending seqs cover 1..=raised with no gaps, and the
    // resurrected alerts carry the same seqs the drain already delivered.
    let raised = chaos.alerter().alerts_raised();
    let mut seen = vec![false; raised as usize + 1];
    for a in delivered.iter().chain(chaos.alerter().alerts()) {
        assert!(a.seq >= 1 && a.seq <= raised, "seq {} out of range", a.seq);
        seen[a.seq as usize] = true;
    }
    assert!(
        seen[1..].iter().all(|&s| s),
        "every alert seq was delivered or is pending"
    );
    // Pending alerts themselves are duplicate-free.
    let mut pending: Vec<u64> = chaos.alerter().alerts().iter().map(|a| a.seq).collect();
    pending.sort_unstable();
    pending.dedup();
    assert_eq!(pending.len(), chaos.alerter().alerts().len());
}

/// Driver-side merge over a key-sharded deployment (DESIGN.md §13): fold
/// the per-shard registries in shard order and in reversed order — the
/// deterministic digests must be bit-identical, and the accounting
/// counters must sum to exactly what a single unsharded engine records
/// over the same stream. Counters add, gauges keep the max, histograms
/// merge bucket-wise; all three are associative and commutative, which is
/// what makes the global view independent of partition placement.
#[test]
fn sharded_registry_merge_is_order_independent_and_matches_totals() {
    use redhanded_dspe::KeyRouter;
    use redhanded_obs::Registry;

    let items = stream();
    let mut single = detector(FaultPlan::none());
    single.run(items.clone()).unwrap();

    // Route the same stream over three single-engine "shards" by user key.
    let router = KeyRouter::new(3);
    let mut shards: Vec<SparkDetector> =
        (0..3).map(|_| detector(FaultPlan::none())).collect();
    for part in 0..3u32 {
        let sub: Vec<StreamItem> = items
            .iter()
            .filter(|i| router.partition(i.tweet().user.id) == part)
            .cloned()
            .collect();
        shards[part as usize].run(sub).unwrap();
    }

    let mut forward = Registry::new();
    for d in &shards {
        forward.merge_from(d.obs().registry());
    }
    let mut reversed = Registry::new();
    for d in shards.iter().rev() {
        reversed.merge_from(d.obs().registry());
    }
    assert_eq!(
        forward.deterministic_digest(),
        reversed.deterministic_digest(),
        "merge order changed the global digest"
    );

    // Per-item accounting is partition-invariant: the merged counters
    // equal the unsharded engine's bit for bit.
    for name in DETERMINISTIC_COUNTERS {
        if name.contains("alert") || name.contains("suspended") {
            // Alerting depends on per-partition model trajectories; its
            // totals are compared against the sharded baseline in
            // tests/chaos_shard.rs, not against the unsharded engine.
            continue;
        }
        assert_eq!(
            forward.counter_by_name(name),
            single.obs().registry().counter_by_name(name),
            "{name} diverged from the unsharded run"
        );
    }

    // The alert-confidence histogram merged across shards counts exactly
    // the alerts the shards raised — bucket merges drop nothing.
    let merged_alerts: u64 =
        shards.iter().map(|d| d.alerter().alerts_raised()).sum();
    assert_eq!(
        forward
            .histogram_by_name("pipeline_alert_confidence_1e6")
            .unwrap()
            .count(),
        merged_alerts
    );
}
