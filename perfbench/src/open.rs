//! microbatch-open: the engine deployment driven one micro-batch per
//! `SparkDetector::run_segment` call, with batches offered open loop on a
//! fixed schedule.

use crate::stats::{heap_mb, us};
use crate::workload::CHECKPOINT_EVERY;
use crate::Outcome;
use redhanded_core::{SparkConfig, SparkDetector, SparkRunReport, StreamItem};
use redhanded_dspe::{CheckpointStore, MemoryCheckpointStore};
use redhanded_types::Result;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Checkpoints the in-memory store retains.
pub const CHECKPOINTS_RETAINED: usize = 2;

/// Run one micro-batch through `detector` as global batch `index`, after
/// `records_before` records, checkpointing every [`CHECKPOINT_EVERY`]
/// batches — the one call microbatch-open makes per batch.
pub fn run_batch(
    detector: &mut SparkDetector,
    batch: Vec<StreamItem>,
    index: u64,
    records_before: u64,
    store: &mut dyn CheckpointStore,
) -> Result<SparkRunReport> {
    detector.run_segment(
        batch,
        index,
        records_before,
        Some((store, CHECKPOINT_EVERY)),
    )
}

/// Drive `items` through `detector` in `batch`-sized `run_segment` calls
/// with global batch numbering, as fast as they complete.
pub fn run_per_batch(
    detector: &mut SparkDetector,
    items: &[StreamItem],
    batch: usize,
    store: &mut dyn CheckpointStore,
) -> Result<()> {
    let mut records = 0u64;
    for (index, chunk) in items.chunks(batch).enumerate() {
        run_batch(detector, chunk.to_vec(), index as u64, records, store)?;
        records += chunk.len() as u64;
    }
    Ok(())
}

/// What `detector` has computed so far.
pub fn outcome(detector: &SparkDetector) -> Outcome {
    Outcome {
        f1: detector.metrics().f1,
        alerts: detector.alerter().alerts_raised(),
        bow_len: detector.bow_len(),
    }
}

/// Seconds from detector construction until the first tweet's result,
/// run as a one-tweet first batch: construction, the pool's first wave and
/// the lazy tables, without a full batch of task work.
pub fn setup_seconds(config: &SparkConfig, first: &StreamItem) -> Result<f64> {
    let batch = vec![first.clone()];
    let mut store = MemoryCheckpointStore::new(CHECKPOINTS_RETAINED);
    let start = Instant::now();
    let mut detector = SparkDetector::new(config.clone())?;
    black_box(run_batch(&mut detector, batch, 0, 0, &mut store)?);
    Ok(start.elapsed().as_secs_f64())
}

/// One open-loop pass over the stream.
pub struct OpenPass {
    /// Tweets offered.
    pub tweets: u64,
    /// From the first tweet's due time to the last batch's results.
    pub span: Duration,
    /// Per batch: from its last tweet being due (batch ready) to
    /// `run_segment` returning, ms.
    pub alert_ms: Vec<f64>,
    /// Per batch: how late the generator started it after it was ready, µs.
    pub lag_us: Vec<f64>,
    /// Per batch: wall time of the `run_segment` call, µs.
    pub call_us: Vec<f64>,
    /// Per batch: the engine's own wall time (`StreamReport::real`), µs.
    pub engine_us: Vec<f64>,
    /// Tweets in batches that started more than one interval after they
    /// were ready.
    pub late_tweets: u64,
    /// Tweets in batches whose call returned `Err`.
    pub error_tweets: u64,
    /// True when batches started later and later: the median lag over the
    /// last tenth of the pass exceeds one batch interval.
    pub backlog_grew: bool,
    /// Live heap after the pass minus live heap before construction, MB.
    pub heap_growth_mb: f64,
    /// What the pass computed.
    pub outcome: Outcome,
    /// The detector after the pass, for reading its trace and telemetry.
    pub detector: SparkDetector,
}

impl OpenPass {
    /// Tweets completed per second of the pass.
    pub fn achieved_rate(&self) -> f64 {
        self.tweets as f64 / self.span.as_secs_f64()
    }
}

/// Busy-wait until `deadline`. A sleeping generator lets the virtual CPU
/// go idle between batches, and how long the host then takes to resume it
/// varies from run to run: measured back to back on a 2-vCPU virtual
/// machine, the spread of `alert_latency_p50_ms` over four seeds was 0.20
/// with a sleeping generator and 0.04 with this one.
fn wait_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Offer `batches` to a fresh detector at `rate` tweets per second: batch
/// `k` is ready when its last tweet is due, and the loop starts it then,
/// or as soon as the previous batch returns if that is later.
pub fn open_loop_pass(
    config: &SparkConfig,
    batches: &[Vec<StreamItem>],
    rate: f64,
) -> Result<OpenPass> {
    let tweet_gap = Duration::from_secs_f64(1.0 / rate);
    // The sample buffers are allocated before the first heap reading, so
    // the growth counts only what the detector keeps.
    let mut alert_ms = vec![f64::NAN; batches.len()];
    let mut lag_us = vec![f64::NAN; batches.len()];
    let mut call_us = vec![f64::NAN; batches.len()];
    let mut engine_us = vec![f64::NAN; batches.len()];
    let (mut late_tweets, mut error_tweets, mut records) = (0u64, 0u64, 0u64);
    let mut store = MemoryCheckpointStore::new(CHECKPOINTS_RETAINED);

    let heap_before = heap_mb();
    let mut detector = SparkDetector::new(config.clone())?;
    let start = Instant::now();
    let mut end = start;
    for (index, batch) in batches.iter().enumerate() {
        let n = batch.len() as u64;
        let interval = tweet_gap * n as u32;
        let input = batch.clone();
        let ready = start + tweet_gap * (records + n) as u32;
        wait_until(ready);
        let begin = Instant::now();
        let report = run_batch(&mut detector, input, index as u64, records, &mut store);
        end = Instant::now();
        match report {
            Ok(r) => engine_us[index] = us(r.stream.real),
            Err(_) => error_tweets += n,
        }
        let lag = begin - ready;
        if lag > interval {
            late_tweets += n;
        }
        lag_us[index] = us(lag);
        call_us[index] = us(end - begin);
        let latency = end - ready;
        alert_ms[index] = us(latency) / 1e3;
        records += n;
    }
    let heap_growth_mb = heap_mb() - heap_before;
    let tail = &lag_us[lag_us.len() - lag_us.len().div_ceil(10)..];
    let mut tail = tail.to_vec();
    let interval_us = us(tweet_gap) * batches.first().map_or(0, Vec::len) as f64;
    let backlog_grew = crate::stats::median(&mut tail) > interval_us;
    let outcome = outcome(&detector);
    Ok(OpenPass {
        tweets: records,
        span: end - start,
        alert_ms,
        lag_us,
        call_us,
        engine_us,
        late_tweets,
        error_tweets,
        backlog_grew,
        heap_growth_mb,
        outcome,
        detector,
    })
}
