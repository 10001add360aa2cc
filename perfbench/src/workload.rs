//! The three workloads: their inputs, detector configurations and sizes.
//!
//! Inputs come from `redhanded-datagen` and depend only on the seed, so the
//! same seed always gives the same stream. Generation happens before any
//! timed phase and is excluded from every metric.

use redhanded_core::{intermix, ModelKind, PipelineConfig, SparkConfig, StreamItem};
use redhanded_datagen::{generate_abusive, generate_unlabeled, AbusiveConfig};
use redhanded_dspe::{EngineConfig, ExecMode, Topology};
use redhanded_types::ClassScheme;

/// Tweets in firehose-seq's stream.
pub const FIREHOSE_TWEETS: usize = 300_000;
/// Tweets in microbatch-open's stream, of the same shape: 150 batches, six
/// seconds at the offered rate, so a run holds enough passes for its
/// best-of-passes samples.
pub const ENGINE_TWEETS: usize = 150_000;
/// One tweet in this many of the firehose-shaped stream is labeled.
pub const LABELED_EVERY: usize = 10;
/// Records per micro-batch on microbatch-open.
pub const MICROBATCH: usize = 1_000;
/// Offered open-loop rate on microbatch-open, tweets per second.
pub const OFFERED_RATE: f64 = 25_000.0;
/// Partitions per micro-batch on microbatch-open.
pub const PARTITIONS: usize = 8;
/// Work-stealing pool threads on microbatch-open.
pub const POOL_THREADS: usize = 2;
/// microbatch-open checkpoints its state after every this many batches.
pub const CHECKPOINT_EVERY: u64 = 10;
/// The lowest cumulative F1 a correct run reaches on any workload. Every
/// seed recorded in `reference.tsv` reads 0.76 or more; falling below means
/// the detector computes something else.
pub const F1_FLOOR: f64 = 0.75;
/// Salt separating the unlabeled stream's seed from the labeled one's.
const UNLABELED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The read path: sequential pipeline, HT, 10% labeled, closed loop.
    FirehoseSeq,
    /// The write path: sequential pipeline, ARF, every tweet labeled and
    /// trained on, with vocabulary drift.
    LearnDrift,
    /// The engine: `SparkDetector` on the real pool, 1,000-tweet batches
    /// offered open loop at a fixed rate.
    MicrobatchOpen,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FirehoseSeq,
        Workload::LearnDrift,
        Workload::MicrobatchOpen,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FirehoseSeq => "firehose-seq",
            Workload::LearnDrift => "learn-drift",
            Workload::MicrobatchOpen => "microbatch-open",
        }
    }

    /// Whether the workload runs the sequential `DetectionPipeline`.
    pub fn is_sequential(self) -> bool {
        self != Workload::MicrobatchOpen
    }

    /// The workload's parameters, for the provenance stamp.
    pub fn params(self) -> String {
        match self {
            Workload::FirehoseSeq => format!(
                "tweets={FIREHOSE_TWEETS} labeled=1/{LABELED_EVERY} scheme=3-class model=HT \
                 loop=closed driver=DetectionPipeline::process"
            ),
            Workload::LearnDrift => format!(
                "tweets={} labeled=all days=10 drift=default scheme=3-class model=ARF \
                 loop=closed driver=DetectionPipeline::process",
                AbusiveConfig::default().total
            ),
            Workload::MicrobatchOpen => format!(
                "tweets={ENGINE_TWEETS} labeled=1/{LABELED_EVERY} scheme=3-class model=HT \
                 loop=open rate={OFFERED_RATE}/s batch={MICROBATCH} partitions={PARTITIONS} \
                 pool_threads={POOL_THREADS} checkpoint_every={CHECKPOINT_EVERY} \
                 driver=SparkDetector::run_segment exec=Real"
            ),
        }
    }

    /// The detection-pipeline configuration.
    pub fn pipeline_config(self) -> PipelineConfig {
        let model = match self {
            Workload::LearnDrift => ModelKind::arf(),
            Workload::FirehoseSeq | Workload::MicrobatchOpen => ModelKind::ht(),
        };
        PipelineConfig::paper(ClassScheme::ThreeClass, model)
    }

    /// The full input stream of one pass.
    pub fn inputs(self, seed: u64) -> Vec<StreamItem> {
        match self {
            Workload::FirehoseSeq => firehose_stream(FIREHOSE_TWEETS, seed),
            Workload::MicrobatchOpen => firehose_stream(ENGINE_TWEETS, seed),
            Workload::LearnDrift => drift_stream(AbusiveConfig::default().total, seed),
        }
    }

    /// The short stream a set-up probe takes its first tweet from, from
    /// the same generator and seed.
    pub fn probe_inputs(self, seed: u64) -> Vec<StreamItem> {
        match self {
            Workload::FirehoseSeq | Workload::MicrobatchOpen => firehose_stream(MICROBATCH, seed),
            Workload::LearnDrift => drift_stream(MICROBATCH, seed),
        }
    }
}

/// `total` tweets, one in [`LABELED_EVERY`] labeled with the paper's class
/// mix, spread evenly through unlabeled tweets of the same mix.
pub fn firehose_stream(total: usize, seed: u64) -> Vec<StreamItem> {
    let labeled = total / LABELED_EVERY;
    intermix(
        generate_abusive(&AbusiveConfig::small(labeled, seed)),
        generate_unlabeled(total - labeled, seed ^ UNLABELED_SALT),
    )
}

/// `total` labeled tweets over 10 days with the generator's default
/// vocabulary drift (85,984 is the paper's dataset size).
pub fn drift_stream(total: usize, seed: u64) -> Vec<StreamItem> {
    generate_abusive(&AbusiveConfig {
        total,
        seed,
        ..Default::default()
    })
    .into_iter()
    .map(StreamItem::from)
    .collect()
}

/// The engine deployment of microbatch-open, with `batch` records per
/// micro-batch under `mode`.
pub fn spark_config(pipeline: PipelineConfig, batch: usize, mode: ExecMode) -> SparkConfig {
    let mut engine = EngineConfig::for_topology(Topology::local(POOL_THREADS));
    engine.num_partitions = PARTITIONS;
    engine.real_threads = POOL_THREADS;
    engine.microbatch_size = batch;
    engine.exec_mode = mode;
    SparkConfig::new(pipeline, engine)
}
