//! microbatch-open drives the engine one micro-batch per `run_segment`
//! call, numbering batches globally. These tests show that this computes
//! exactly what one `SparkDetector::run` over the same stream computes, on
//! the real backend and on the simulated twin, so the workload measures the
//! engine's own computation.

use redhanded_core::SparkDetector;
use redhanded_dspe::{ExecMode, MemoryCheckpointStore};
use redhanded_perfbench::open::run_per_batch;
use redhanded_perfbench::workload::{firehose_stream, spark_config, Workload, CHECKPOINT_EVERY};

/// Small batches over a small stream: 12 batches, so one checkpoint falls
/// inside the run.
const BATCH: usize = 500;
const TWEETS: usize = 6_000;

fn detector(mode: ExecMode) -> SparkDetector {
    let config = spark_config(Workload::MicrobatchOpen.pipeline_config(), BATCH, mode);
    SparkDetector::new(config).expect("detector builds")
}

#[test]
fn per_batch_driving_matches_one_run_on_both_backends() {
    let items = firehose_stream(TWEETS, 7);

    let mut one_run = detector(ExecMode::Real);
    let report = one_run.run(items.clone()).expect("one run");
    assert_eq!(report.stream.batches, (TWEETS / BATCH) as u64);

    let mut simulated = detector(ExecMode::Simulated);
    let sim_report = simulated.run(items.clone()).expect("simulated run");

    for mode in [ExecMode::Real, ExecMode::Simulated] {
        let mut per_batch = detector(mode);
        let mut store = MemoryCheckpointStore::new(2);
        run_per_batch(&mut per_batch, &items, BATCH, &mut store).expect("per-batch run");
        assert_eq!(
            store.saves() as u64,
            (TWEETS / BATCH) as u64 / CHECKPOINT_EVERY
        );
        for (name, reference, alerts) in [
            ("one run", &one_run, report.alerts),
            ("simulated run", &simulated, sim_report.alerts),
        ] {
            assert_eq!(
                per_batch.metrics().f1.to_bits(),
                reference.metrics().f1.to_bits(),
                "{mode:?} per batch vs {name}: f1"
            );
            assert_eq!(
                per_batch.alerter().alerts_raised() as usize,
                alerts,
                "{mode:?} per batch vs {name}: alert count"
            );
            assert_eq!(
                per_batch.state_snapshot(),
                reference.state_snapshot(),
                "{mode:?} per batch vs {name}: state bytes"
            );
        }
    }
}

/// The comparison above has teeth: restarting the batch numbering at every
/// call changes how each batch is partitioned, and with it the state.
#[test]
fn batch_numbering_is_observable_in_the_state() {
    let items = firehose_stream(TWEETS, 7);
    let mut one_run = detector(ExecMode::Simulated);
    one_run.run(items.clone()).expect("one run");

    let mut renumbered = detector(ExecMode::Simulated);
    let mut records = 0u64;
    for chunk in items.chunks(BATCH) {
        renumbered
            .run_segment(chunk.to_vec(), 0, records, None)
            .expect("segment");
        records += chunk.len() as u64;
    }
    assert_ne!(renumbered.state_snapshot(), one_run.state_snapshot());
}
