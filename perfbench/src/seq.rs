//! The sequential workloads (firehose-seq, learn-drift): an untraced pass
//! through `DetectionPipeline::process`, and a traced replay of the same
//! steps from the layers' public functions.

use crate::stats::{heap_mb, median, ns, us};
use crate::workload::MICROBATCH;
use crate::Outcome;
use redhanded_core::{Alerter, BoostedSampler, DetectionPipeline, PipelineConfig, StreamItem};
use redhanded_features::{AdaptiveBow, ExtractScratch, FeatureExtractor, Normalizer, NUM_FEATURES};
use redhanded_nlp::{count_pos, score_spans, tokenize_into, SentimentScratch};
use redhanded_streamml::classifier::argmax;
use redhanded_streamml::PrequentialEvaluator;
use redhanded_types::Result;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The labeling sampler's seed inside `DetectionPipeline::new`; the replay
/// builds its sampler the same way.
const SAMPLER_SEED: u64 = 0x5A11;

/// One untraced pass over the stream.
pub struct SeqPass {
    /// Wall time from the first call to the last return.
    pub wall: Duration,
    /// Wall time of each `process` call, µs. In a closed loop a tweet is
    /// due when the previous call returns, so this is its latency.
    pub tweet_us: Vec<f64>,
    /// For each window of [`MICROBATCH`] consecutive tweets, the wall time
    /// of its calls, ms: the batch-ready-to-results latency of this
    /// deployment when it is handed the batches microbatch-open gets.
    pub window_ms: Vec<f64>,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Live heap after the pass minus live heap before construction, MB.
    pub heap_growth_mb: f64,
    /// What the pass computed.
    pub outcome: Outcome,
}

/// Run `items` through a fresh pipeline, timing every call.
pub fn untraced_pass(config: &PipelineConfig, items: &[StreamItem]) -> Result<SeqPass> {
    // The sample buffers are allocated before the first heap reading, so
    // the growth counts only what the pipeline keeps.
    let mut tweet_us = vec![f64::NAN; items.len()];
    let mut window_ms = vec![f64::NAN; items.len() / MICROBATCH];
    let heap_before = heap_mb();
    let mut pipeline = DetectionPipeline::new(config.clone())?;
    let mut errors = 0;
    let start = Instant::now();
    let (mut prev, mut window_start) = (start, start);
    for (i, item) in items.iter().enumerate() {
        if black_box(pipeline.process(black_box(item))).is_err() {
            errors += 1;
        }
        let now = Instant::now();
        tweet_us[i] = us(now - prev);
        if (i + 1) % MICROBATCH == 0 {
            window_ms[i / MICROBATCH] = us(now - window_start) / 1e3;
            window_start = now;
        }
        prev = now;
    }
    let wall = prev - start;
    let heap_growth_mb = heap_mb() - heap_before;
    let outcome = Outcome {
        f1: pipeline.cumulative_metrics().f1,
        alerts: pipeline.alerter().alerts_raised(),
        bow_len: pipeline.bow_len(),
    };
    Ok(SeqPass {
        wall,
        tweet_us,
        window_ms,
        errors,
        heap_growth_mb,
        outcome,
    })
}

/// Seconds from pipeline construction until the first item's result.
pub fn setup_seconds(config: &PipelineConfig, first: &StreamItem) -> Result<f64> {
    let start = Instant::now();
    let mut pipeline = DetectionPipeline::new(config.clone())?;
    black_box(pipeline.process(first)?);
    Ok(start.elapsed().as_secs_f64())
}

/// Per-call costs of one traced replay, ns per call.
#[derive(Default)]
pub struct SeqTrace {
    /// Wall time of the whole replay, timers included.
    pub wall: Duration,
    /// `instance_into` / `labeled_instance_into` (nlp inside).
    pub extract_ns: Vec<f64>,
    /// `Normalizer::process`.
    pub normalize_ns: Vec<f64>,
    /// `predict_proba` + `argmax`.
    pub predict_ns: Vec<f64>,
    /// Prequential `record` + `train` (labeled tweets).
    pub train_ns: Vec<f64>,
    /// `AdaptiveBow::observe` (labeled tweets).
    pub bow_observe_ns: Vec<f64>,
    /// `Alerter::observe` + `BoostedSampler::observe` (unlabeled tweets).
    pub alert_ns: Vec<f64>,
    /// BoW maintenance churn `(adds, evictions)`.
    pub bow_churn: (u64, u64),
    /// Drifts the model detected.
    pub drifts: u64,
    /// Alerts the alerter holds at the end.
    pub alerts_held: usize,
    /// What the replay computed; must equal the untraced pass's outcome.
    pub outcome: Outcome,
}

impl SeqTrace {
    /// The summed cost of every timed layer, ns per tweet.
    pub fn layers_ns_per_tweet(&self, tweets: usize) -> f64 {
        let total: f64 = [
            &self.extract_ns,
            &self.normalize_ns,
            &self.predict_ns,
            &self.train_ns,
            &self.bow_observe_ns,
            &self.alert_ns,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
        total / tweets.max(1) as f64
    }
}

/// Replay the steps of `DetectionPipeline::process` from the layers'
/// public functions, timing each call from outside.
pub fn traced_pass(config: &PipelineConfig, items: &[StreamItem]) -> Result<SeqTrace> {
    let scheme = config.scheme;
    let extractor = FeatureExtractor::new(config.extractor_config());
    let mut scratch = ExtractScratch::new();
    let mut bow = AdaptiveBow::new(config.bow_config());
    let mut normalizer = Normalizer::new(config.normalization, NUM_FEATURES);
    let mut model = config.model.build(scheme)?;
    let mut evaluator =
        PrequentialEvaluator::new(scheme.num_classes(), config.window, config.record_every);
    let mut alerter = Alerter::new(scheme, config.alert_threshold, config.suspend_after);
    let mut sampler = BoostedSampler::new(
        scheme,
        config.sample_rate,
        config.sample_boost,
        SAMPLER_SEED,
    );
    let labeled = items.iter().filter(|i| i.is_labeled()).count();
    let mut t = SeqTrace {
        extract_ns: Vec::with_capacity(items.len()),
        normalize_ns: Vec::with_capacity(items.len()),
        predict_ns: Vec::with_capacity(items.len()),
        train_ns: Vec::with_capacity(labeled),
        bow_observe_ns: Vec::with_capacity(labeled),
        alert_ns: Vec::with_capacity(items.len() - labeled),
        ..SeqTrace::default()
    };
    let start = Instant::now();
    for item in items {
        let day = item.day();
        let t0 = Instant::now();
        let (inst, tweet) = match item {
            StreamItem::Labeled(lt) => (
                extractor.labeled_instance_into(lt, scheme, &bow, day, &mut scratch),
                None,
            ),
            StreamItem::Unlabeled(tweet) => (
                Some(extractor.instance_into(tweet, &bow, day, &mut scratch)),
                Some(tweet),
            ),
        };
        let t1 = Instant::now();
        // Out-of-scheme labels are skipped by `process` too.
        let Some(mut inst) = inst else { continue };
        normalizer.process(&mut inst)?;
        let t2 = Instant::now();
        let proba = model.predict_proba(&inst.features)?;
        let predicted = argmax(&proba);
        let t3 = Instant::now();
        t.extract_ns.push(ns(t1 - t0));
        t.normalize_ns.push(ns(t2 - t1));
        t.predict_ns.push(ns(t3 - t2));
        match (inst.label, tweet) {
            (Some(actual), _) => {
                evaluator.record(actual, predicted, inst.weight);
                model.train(&inst)?;
                let t4 = Instant::now();
                bow.observe(scratch.words(), actual > 0);
                let t5 = Instant::now();
                t.train_ns.push(ns(t4 - t3));
                t.bow_observe_ns.push(ns(t5 - t4));
            }
            (None, Some(tweet)) => {
                alerter.observe(tweet.id, tweet.user.id, &proba);
                sampler.observe(tweet.id, &proba);
                t.alert_ns.push(ns(Instant::now() - t3));
            }
            (None, None) => {}
        }
    }
    t.wall = start.elapsed();
    t.bow_churn = bow.churn();
    t.drifts = model.drifts();
    t.alerts_held = alerter.alerts().len();
    t.outcome = Outcome {
        f1: evaluator.cumulative_metrics().f1,
        alerts: alerter.alerts_raised(),
        bow_len: bow.len(),
    };
    Ok(t)
}

/// Median cost of the three nlp layers, each timed in isolation on the
/// texts of `items`, ns per call.
pub struct NlpCost {
    /// `tokenize_into`.
    pub tokenize_ns: f64,
    /// `score_spans` on the tokens.
    pub sentiment_ns: f64,
    /// `count_pos` on the preprocessed words.
    pub pos_ns: f64,
}

/// Time tokenizer, sentiment and POS on at most `cap` texts spread evenly
/// over `items`.
pub fn nlp_isolation(config: &PipelineConfig, items: &[StreamItem], cap: usize) -> NlpCost {
    let extractor = FeatureExtractor::new(config.extractor_config());
    let bow = AdaptiveBow::new(config.bow_config());
    let mut scratch = ExtractScratch::new();
    let mut spans = Vec::new();
    let mut sentiment = SentimentScratch::default();
    let step = (items.len() / cap.max(1)).max(1);
    let n = items.len().div_ceil(step);
    let (mut tok, mut sent, mut pos) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for item in items.iter().step_by(step) {
        let text = item.tweet().text.as_str();
        let t0 = Instant::now();
        tokenize_into(black_box(text), &mut spans);
        let t1 = Instant::now();
        black_box(score_spans(text, &spans, &mut sentiment));
        let t2 = Instant::now();
        // The POS tagger reads the preprocessed words extraction leaves in
        // the scratch; this call is untimed.
        extractor.extract_into(item.tweet(), &bow, &mut scratch);
        let t3 = Instant::now();
        black_box(count_pos(scratch.words()));
        let t4 = Instant::now();
        tok.push(ns(t1 - t0));
        sent.push(ns(t2 - t1));
        pos.push(ns(t4 - t3));
    }
    NlpCost {
        tokenize_ns: median(&mut tok),
        sentiment_ns: median(&mut sent),
        pos_ns: median(&mut pos),
    }
}
