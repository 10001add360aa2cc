//! The benchmark's one command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <firehose-seq|learn-drift|microbatch-open> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     compare <record-a.json> <record-b.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is the result object; the line
//! before it is the provenance stamp. A failed check prints no result and
//! exits with code 1.

use redhanded_core::StreamItem;
use redhanded_dspe::ExecMode;
use redhanded_obs::{analyze, SpanKind};
use redhanded_perfbench::open::{self, OpenPass};
use redhanded_perfbench::record::{self, metric, Metric};
use redhanded_perfbench::seq::{self, NlpCost};
use redhanded_perfbench::stats::{keep_min, median, ns, percentile};
use redhanded_perfbench::workload::{spark_config, Workload, F1_FLOOR, MICROBATCH, OFFERED_RATE};
use redhanded_perfbench::Outcome;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

/// Fresh processes timed for `setup_s` after each pass.
const SETUP_PROBES_PER_PASS: usize = 5;
/// Texts the isolated nlp timings run on.
const NLP_TEXTS: usize = 50_000;
/// The lowest achieved-to-offered rate ratio microbatch-open accepts.
const MIN_RATE_RATIO: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: time one set-up in this process and print the seconds.
    probe_setup: bool,
    /// Print the workload's reference line for the seed, untimed.
    print_reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --workload <w> --seed <n> --print-reference\n       \
         perfbench compare <record-a.json> <record-b.json>",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: Workload::FirehoseSeq,
        seed: 1,
        seconds: 10,
        trace: false,
        probe_setup: false,
        print_reference: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--probe-setup" => {
                args.probe_setup = true;
                continue;
            }
            "--print-reference" => {
                args.print_reference = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage());
    args
}

/// A finished run: what it computed and what it measured.
struct Run {
    outcome: Outcome,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Failed checks; any one fails the run.
    problems: Vec<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        exit(record::compare(a, b));
    }
    let args = parse_args(&argv);
    if args.probe_setup {
        match probe_setup(&args) {
            Ok(seconds) => println!("{seconds}"),
            Err(e) => {
                eprintln!("perfbench: set-up probe failed: {e}");
                exit(1);
            }
        }
        return;
    }
    if args.print_reference {
        match reference_outcome(&args) {
            Ok(o) => println!("{}", record::reference_line(args.workload, args.seed, &o)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                exit(1);
            }
        }
        return;
    }
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let stamp = record::stamp();
    let provenance = record::provenance_json(&stamp, w, args.seed, args.seconds, args.trace);
    eprintln!(
        "perfbench: {} seed {} trace {} on {} CPUs ({})",
        w.name(),
        args.seed,
        u8::from(args.trace),
        stamp.nproc,
        stamp.cpu_model
    );
    let mut probes = SetupProbes::new(args)?;

    let generated = Instant::now();
    let items = w.inputs(args.seed);
    eprintln!(
        "perfbench: generated {} tweets in {:.2} s (excluded)",
        items.len(),
        generated.elapsed().as_secs_f64()
    );
    let expected = match record::reference(w, args.seed)? {
        Some(outcome) => outcome,
        None => {
            eprintln!(
                "perfbench: {} has no line for {} seed {}; checking against an independent computation instead",
                record::REFERENCE_FILE,
                w.name(),
                args.seed
            );
            independent_outcome(w, &items).map_err(|e| e.to_string())?
        }
    };

    let seconds = Duration::from_secs(args.seconds);
    let mut run = match (w.is_sequential(), args.trace) {
        (true, false) => seq_untraced(w, &items, seconds, &mut probes),
        (true, true) => seq_traced(w, &items),
        (false, false) => open_untraced(w, items, seconds, &mut probes),
        (false, true) => open_traced(w, items),
    }
    .map_err(|e| e.to_string())?;

    if run.outcome.f1.is_nan() || run.outcome.f1 < F1_FLOOR {
        run.problems.push(format!(
            "f1 {} is below the floor {F1_FLOOR}",
            run.outcome.f1
        ));
    }
    if !run.outcome.same(&expected) {
        run.problems.push(format!(
            "outputs differ from the reference for this seed: expected {expected}, computed {}",
            run.outcome
        ));
    }
    if let Some(m) = run.metrics.iter().find(|m| !m.value.is_finite()) {
        run.problems
            .push(format!("metric {} is not a finite number", m.name));
    }
    eprintln!("perfbench: outcome {}", run.outcome);
    if !run.problems.is_empty() {
        for p in &run.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        return Err("the run failed its checks; no result is reported".into());
    }
    let result = record::result_json(true, run.attempted, run.failed, &run.metrics);
    match record::save_record(w, args.seed, args.trace, &provenance, &result) {
        Ok(path) => eprintln!("perfbench: record saved to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not save the run record: {e}"),
    }
    println!("provenance {provenance}");
    println!("{result}");
    Ok(())
}

/// One set-up measurement in this (fresh) process.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let w = args.workload;
    let items = w.probe_inputs(args.seed);
    let config = w.pipeline_config();
    let seconds = if w.is_sequential() {
        seq::setup_seconds(&config, &items[0])
    } else {
        open::setup_seconds(&spark_config(config, MICROBATCH, ExecMode::Real), &items[0])
    };
    seconds.map_err(|e| e.to_string())
}

/// What one pass over the seed's stream computes, without timing it. The
/// engine stream is driven closed loop: the parity tests show the schedule
/// does not change what it computes.
fn reference_outcome(args: &Args) -> redhanded_types::Result<Outcome> {
    let w = args.workload;
    let items = w.inputs(args.seed);
    if w.is_sequential() {
        return Ok(seq::untraced_pass(&w.pipeline_config(), &items)?.outcome);
    }
    let config = spark_config(w.pipeline_config(), MICROBATCH, ExecMode::Real);
    let mut detector = redhanded_core::SparkDetector::new(config)?;
    let mut store = redhanded_dspe::MemoryCheckpointStore::new(open::CHECKPOINTS_RETAINED);
    open::run_per_batch(&mut detector, &items, MICROBATCH, &mut store)?;
    Ok(open::outcome(&detector))
}

/// What the seed's stream computes when reached another way than the
/// measured one: the sequential workloads replay `process` from the layers'
/// public functions, and the engine runs the whole stream in one
/// `SparkDetector::run` on the simulated backend. The parity tests show both
/// equal the measured path's outcome.
fn independent_outcome(w: Workload, items: &[StreamItem]) -> redhanded_types::Result<Outcome> {
    if w.is_sequential() {
        return Ok(seq::traced_pass(&w.pipeline_config(), items)?.outcome);
    }
    let config = spark_config(w.pipeline_config(), MICROBATCH, ExecMode::Simulated);
    let mut detector = redhanded_core::SparkDetector::new(config)?;
    detector.run(items.to_vec())?;
    Ok(open::outcome(&detector))
}

/// Set-up measured in fresh processes, so the lazy lexicon tables are built
/// inside every measurement. Probes are taken a few at a time after each
/// pass, so they sample the whole run, and the smallest time is reported:
/// set-up is a few milliseconds at most of page faults, thread start-up and
/// table building, so most of a probe's time is how the host treats a new
/// process at that moment.
struct SetupProbes {
    exe: std::path::PathBuf,
    workload: Workload,
    seed: u64,
    samples: Vec<f64>,
    error: Option<String>,
}

impl SetupProbes {
    fn new(args: &Args) -> Result<SetupProbes, String> {
        Ok(SetupProbes {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            workload: args.workload,
            seed: args.seed,
            samples: Vec::new(),
            error: None,
        })
    }

    /// Take [`SETUP_PROBES_PER_PASS`] probes; the first failure is kept.
    fn take(&mut self) {
        for _ in 0..SETUP_PROBES_PER_PASS {
            if self.error.is_some() {
                return;
            }
            match self.probe() {
                Ok(seconds) => self.samples.push(seconds),
                Err(e) => self.error = Some(e),
            }
        }
    }

    fn probe(&self) -> Result<f64, String> {
        let out = Command::new(&self.exe)
            .args([
                "--probe-setup",
                "--workload",
                self.workload.name(),
                "--seed",
            ])
            .arg(self.seed.to_string())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        text.trim().parse().map_err(|_| {
            format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
    }

    /// The smallest probe time, or the first failure.
    fn smallest(&mut self, problems: &mut Vec<String>) -> f64 {
        if let Some(e) = self.error.take() {
            problems.push(e);
        }
        eprintln!("perfbench: {} set-up probes", self.samples.len());
        match self.samples.is_empty() {
            true => f64::NAN,
            false => percentile(&mut self.samples, 0.0),
        }
    }
}

/// Passes over the stream until `seconds` of measured time have passed.
fn repeat<P>(
    seconds: Duration,
    mut pass: impl FnMut() -> redhanded_types::Result<P>,
    measured: impl Fn(&P) -> Duration,
    mut absorb: impl FnMut(P),
) -> redhanded_types::Result<usize> {
    let (mut total, mut passes) = (Duration::ZERO, 0);
    while passes == 0 || total < seconds {
        let p = pass()?;
        total += measured(&p);
        passes += 1;
        absorb(p);
    }
    Ok(passes)
}

/// The end-to-end metrics every workload prints, in `BENCHMARK.json` order.
/// The sample vectors hold best-of-passes values (see [`keep_min`]).
fn end_to_end(
    tweets_per_s: f64,
    tweet_us: &mut [f64],
    alert_ms: &mut [f64],
    f1: f64,
    setup_s: f64,
    heap_growth_mb: f64,
) -> Vec<Metric> {
    vec![
        metric("tweets_per_s", "tweets/s", tweets_per_s),
        metric("tweet_latency_p50_us", "us", percentile(tweet_us, 0.50)),
        metric("tweet_latency_p99_us", "us", percentile(tweet_us, 0.99)),
        metric("alert_latency_p50_ms", "ms", percentile(alert_ms, 0.50)),
        metric("alert_latency_p95_ms", "ms", percentile(alert_ms, 0.95)),
        metric("f1", "1", f1),
        metric("setup_s", "s", setup_s),
        metric("heap_growth_mb", "MB", heap_growth_mb),
    ]
}

/// Check every pass computed the same thing; return the first outcome.
fn same_outcomes(outcomes: &[Outcome], problems: &mut Vec<String>) -> Outcome {
    let first = outcomes.first().copied().unwrap_or_default();
    if let Some(o) = outcomes.iter().find(|o| !o.same(&first)) {
        problems.push(format!(
            "passes over the same stream disagree: {first} vs {o}"
        ));
    }
    first
}

fn seq_untraced(
    w: Workload,
    items: &[StreamItem],
    seconds: Duration,
    probes: &mut SetupProbes,
) -> redhanded_types::Result<Run> {
    let config = w.pipeline_config();
    let (mut tweet_us, mut window_ms, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall, mut errors, mut heap) = (Duration::ZERO, 0u64, None);
    let passes = repeat(
        seconds,
        || seq::untraced_pass(&config, items),
        |p| p.wall,
        |p| {
            wall += p.wall;
            errors += p.errors;
            heap.get_or_insert(p.heap_growth_mb);
            outcomes.push(p.outcome);
            keep_min(&mut tweet_us, &p.tweet_us);
            keep_min(&mut window_ms, &p.window_ms);
            probes.take();
        },
    )?;
    let mut problems = Vec::new();
    let outcome = same_outcomes(&outcomes, &mut problems);
    let setup_s = probes.smallest(&mut problems);
    let attempted = (items.len() * passes) as u64;
    let best_rate = (window_ms.len() * MICROBATCH) as f64 / (window_ms.iter().sum::<f64>() / 1e3);
    eprintln!(
        "perfbench: {passes} passes, {:.2} s measured; {:.0} tweets/s over all passes, {best_rate:.0} best of passes",
        wall.as_secs_f64(),
        attempted as f64 / wall.as_secs_f64(),
    );
    let metrics = end_to_end(
        best_rate,
        &mut tweet_us,
        &mut window_ms,
        outcome.f1,
        setup_s,
        heap.unwrap_or_default(),
    );
    Ok(Run {
        outcome,
        attempted,
        failed: errors,
        metrics,
        problems,
    })
}

fn batches_of(items: Vec<StreamItem>) -> Vec<Vec<StreamItem>> {
    let mut batches = Vec::with_capacity(items.len().div_ceil(MICROBATCH));
    let mut it = items.into_iter().peekable();
    while it.peek().is_some() {
        batches.push(it.by_ref().take(MICROBATCH).collect());
    }
    batches
}

/// Batches run, unmeasured, before the first measured engine pass.
const WARM_UP_BATCHES: usize = 20;

/// Run the first batches through a throwaway detector, so the first
/// measured pass does not pay the process's one-time costs (allocator
/// arenas for the pool's threads, lazy tables, cold caches).
fn warm_up(
    config: &redhanded_core::SparkConfig,
    batches: &[Vec<StreamItem>],
) -> redhanded_types::Result<()> {
    let mut detector = redhanded_core::SparkDetector::new(config.clone())?;
    let mut store = redhanded_dspe::MemoryCheckpointStore::new(open::CHECKPOINTS_RETAINED);
    let items = batches[..WARM_UP_BATCHES.min(batches.len())].concat();
    open::run_per_batch(&mut detector, &items, MICROBATCH, &mut store)
}

/// Open-loop honesty checks on one pass: a pass whose backlog grew or that
/// fell short of the offered rate fails the run.
fn check_open_pass(p: &OpenPass, problems: &mut Vec<String>) {
    let rate = p.achieved_rate();
    let mut lag = p.lag_us.clone();
    eprintln!(
        "perfbench: pass achieved {rate:.0} tweets/s of {OFFERED_RATE} offered; generator lag p99 {:.1} us; {} late tweets",
        percentile(&mut lag, 0.99),
        p.late_tweets
    );
    if p.backlog_grew {
        problems.push("the backlog grew: batches started later and later".into());
    }
    if rate < MIN_RATE_RATIO * OFFERED_RATE {
        problems.push(format!(
            "achieved {rate:.0} tweets/s, below the offered {OFFERED_RATE}"
        ));
    }
}

fn open_untraced(
    w: Workload,
    items: Vec<StreamItem>,
    seconds: Duration,
    probes: &mut SetupProbes,
) -> redhanded_types::Result<Run> {
    let config = spark_config(w.pipeline_config(), MICROBATCH, ExecMode::Real);
    let batches = batches_of(items);
    warm_up(&config, &batches)?;
    let (mut call_us, mut alert_ms, mut outcomes, mut problems) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut heap) = (0u64, 0u64, None);
    let passes = repeat(
        seconds,
        || open::open_loop_pass(&config, &batches, OFFERED_RATE),
        |p| p.span,
        |p| {
            check_open_pass(&p, &mut problems);
            attempted += p.tweets;
            failed += p.late_tweets + p.error_tweets;
            heap.get_or_insert(p.heap_growth_mb);
            outcomes.push(p.outcome);
            keep_min(&mut call_us, &p.call_us);
            keep_min(&mut alert_ms, &p.alert_ms);
            probes.take();
        },
    )?;
    let outcome = same_outcomes(&outcomes, &mut problems);
    let setup_s = probes.smallest(&mut problems);
    // The engine's capacity: tweets per second of `run_segment` time. The
    // achieved rate is the offered one by construction and is only checked.
    let tweets = batches.iter().map(Vec::len).sum::<usize>() as f64;
    let capacity = tweets / (call_us.iter().sum::<f64>() / 1e6);
    eprintln!("perfbench: {passes} passes; engine capacity {capacity:.0} tweets/s, best of passes");
    // A tweet's share of its batch's `run_segment` time: the engine's
    // counterpart of one `process` call.
    let mut tweet_us: Vec<f64> = call_us
        .iter()
        .zip(&batches)
        .map(|(c, b)| c / b.len() as f64)
        .collect();
    let metrics = end_to_end(
        capacity,
        &mut tweet_us,
        &mut alert_ms,
        outcome.f1,
        setup_s,
        heap.unwrap_or_default(),
    );
    Ok(Run {
        outcome,
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// Per-layer values of a sequential traced run.
struct SeqLayers {
    extract_ns: f64,
    normalize_ns: f64,
    bow_observe_ns: f64,
    bow_churn: (u64, u64),
    predict_ns: f64,
    train_ns: f64,
    drifts: u64,
    alert_ns: f64,
    alerts_held: usize,
    untraced_ns: f64,
    layers_ns: f64,
    traced_ns: f64,
}

/// Per-layer values of an engine traced run, µs per batch unless named
/// otherwise.
struct EngineLayers {
    batch_us: f64,
    call_setup_us: f64,
    batch_sched_us: f64,
    broadcast_us: f64,
    stage_us: f64,
    task_work_us: f64,
    merge_us: f64,
    driver_us: f64,
    alert_batch_us: f64,
    checkpoint_us: f64,
    checkpoint_bytes: f64,
    starvation_us: f64,
    busy_share: f64,
    steal_hit_ratio: f64,
    tasks: u64,
    retries: u64,
    lag_p99_us: f64,
    bow_churn: (u64, u64),
    drifts: u64,
    alerts_held: usize,
    untraced_us: f64,
    layers_us: f64,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not exercise reads 0.
fn per_layer(nlp: &NlpCost, s: Option<&SeqLayers>, e: Option<&EngineLayers>) -> Vec<Metric> {
    let sv = |f: fn(&SeqLayers) -> f64| s.map_or(0.0, f);
    let ev = |f: fn(&EngineLayers) -> f64| e.map_or(0.0, f);
    let churn = s
        .map(|s| s.bow_churn)
        .or(e.map(|e| e.bow_churn))
        .unwrap_or((0, 0));
    let drifts = s.map(|s| s.drifts).or(e.map(|e| e.drifts)).unwrap_or(0);
    let held = s
        .map(|s| s.alerts_held)
        .or(e.map(|e| e.alerts_held))
        .unwrap_or(0);
    vec![
        metric("nlp.tokenize_ns", "ns", nlp.tokenize_ns),
        metric("nlp.sentiment_ns", "ns", nlp.sentiment_ns),
        metric("nlp.pos_ns", "ns", nlp.pos_ns),
        metric("features.extract_ns", "ns", sv(|s| s.extract_ns)),
        metric("features.normalize_ns", "ns", sv(|s| s.normalize_ns)),
        metric("features.bow_observe_ns", "ns", sv(|s| s.bow_observe_ns)),
        metric("features.bow_adds", "count", churn.0 as f64),
        metric("features.bow_evictions", "count", churn.1 as f64),
        metric("features.bow_evict_ratio", "1", ratio(churn.1, churn.0)),
        metric("streamml.predict_ns", "ns", sv(|s| s.predict_ns)),
        metric("streamml.train_ns", "ns", sv(|s| s.train_ns)),
        metric("streamml.drifts", "count", drifts as f64),
        metric("core.alert_ns", "ns", sv(|s| s.alert_ns)),
        metric("core.alerts_held", "count", held as f64),
        metric(
            "core.unattributed_ns",
            "ns",
            sv(|s| s.untraced_ns - s.layers_ns),
        ),
        metric("reconcile.untraced_ns", "ns", sv(|s| s.untraced_ns)),
        metric("reconcile.layers_ns", "ns", sv(|s| s.layers_ns)),
        metric(
            "trace.overhead_ns",
            "ns",
            sv(|s| s.traced_ns - s.untraced_ns),
        ),
        metric("core.spark.batch_us", "us", ev(|e| e.batch_us)),
        metric("dspe.call_setup_us", "us", ev(|e| e.call_setup_us)),
        metric("dspe.batch_sched_us", "us", ev(|e| e.batch_sched_us)),
        metric("dspe.broadcast_us", "us", ev(|e| e.broadcast_us)),
        metric("dspe.stage_us", "us", ev(|e| e.stage_us)),
        metric("dspe.task_work_us", "us", ev(|e| e.task_work_us)),
        metric("dspe.merge_us", "us", ev(|e| e.merge_us)),
        metric("dspe.driver_us", "us", ev(|e| e.driver_us)),
        metric("core.alert_batch_us", "us", ev(|e| e.alert_batch_us)),
        metric("dspe.checkpoint_us", "us", ev(|e| e.checkpoint_us)),
        metric("dspe.checkpoint_bytes", "bytes", ev(|e| e.checkpoint_bytes)),
        metric("dspe.starvation_us", "us", ev(|e| e.starvation_us)),
        metric("dspe.pool.busy_share", "1", ev(|e| e.busy_share)),
        metric("dspe.pool.steal_hit_ratio", "1", ev(|e| e.steal_hit_ratio)),
        metric("dspe.pool.tasks", "count", ev(|e| e.tasks as f64)),
        metric("dspe.retries", "count", ev(|e| e.retries as f64)),
        metric("gen.lag_p99_us", "us", ev(|e| e.lag_p99_us)),
        metric(
            "core.unattributed_us",
            "us",
            ev(|e| e.batch_us - e.layers_us),
        ),
        metric("reconcile.untraced_us", "us", ev(|e| e.untraced_us)),
        metric("reconcile.layers_us", "us", ev(|e| e.layers_us)),
        metric(
            "trace.overhead_us",
            "us",
            ev(|e| e.batch_us - e.untraced_us),
        ),
    ]
}

/// Print the reconciliation row: `total` = timed layers + unattributed,
/// and the tracing overhead, traced minus untraced.
fn print_reconciliation(w: Workload, unit: &str, total: f64, layers: f64, overhead: f64) {
    eprintln!(
        "perfbench: reconciliation {}: {total:.1} {unit} = layers {layers:.1} + unattributed {:.1}; tracing overhead {overhead:.1} {unit}",
        w.name(),
        total - layers,
    );
}

fn seq_traced(w: Workload, items: &[StreamItem]) -> redhanded_types::Result<Run> {
    let config = w.pipeline_config();
    let nlp = seq::nlp_isolation(&config, items, NLP_TEXTS);
    let untraced = seq::untraced_pass(&config, items)?;
    let mut t = seq::traced_pass(&config, items)?;
    let mut problems = Vec::new();
    if !t.outcome.same(&untraced.outcome) {
        problems.push(format!(
            "the traced replay computed {} but process computed {}",
            t.outcome, untraced.outcome
        ));
    }
    let n = items.len() as f64;
    let layers = SeqLayers {
        extract_ns: median(&mut t.extract_ns),
        normalize_ns: median(&mut t.normalize_ns),
        bow_observe_ns: median(&mut t.bow_observe_ns),
        bow_churn: t.bow_churn,
        predict_ns: median(&mut t.predict_ns),
        train_ns: median(&mut t.train_ns),
        drifts: t.drifts,
        alert_ns: median(&mut t.alert_ns),
        alerts_held: t.alerts_held,
        untraced_ns: ns(untraced.wall) / n,
        layers_ns: t.layers_ns_per_tweet(items.len()),
        traced_ns: ns(t.wall) / n,
    };
    print_reconciliation(
        w,
        "ns/tweet",
        layers.untraced_ns,
        layers.layers_ns,
        layers.traced_ns - layers.untraced_ns,
    );
    Ok(Run {
        outcome: untraced.outcome,
        attempted: 2 * items.len() as u64,
        failed: untraced.errors,
        metrics: per_layer(&nlp, Some(&layers), None),
        problems,
    })
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn open_traced(w: Workload, items: Vec<StreamItem>) -> redhanded_types::Result<Run> {
    let pipeline = w.pipeline_config();
    let nlp = seq::nlp_isolation(&pipeline, &items, NLP_TEXTS);
    let config = spark_config(pipeline, MICROBATCH, ExecMode::Real);
    let batches = batches_of(items);
    warm_up(&config, &batches)?;
    let mut problems = Vec::new();
    let untraced = open::open_loop_pass(&config, &batches, OFFERED_RATE)?;
    check_open_pass(&untraced, &mut problems);
    let untraced_us = mean(&untraced.call_us);
    let (untraced_outcome, untraced_failed) = (
        untraced.outcome,
        untraced.late_tweets + untraced.error_tweets,
    );
    drop(untraced);
    let mut p = open::open_loop_pass(&config, &batches, OFFERED_RATE)?;
    check_open_pass(&p, &mut problems);
    if !p.outcome.same(&untraced_outcome) {
        problems.push(format!(
            "the traced pass computed {} but the untraced one {}",
            p.outcome, untraced_outcome
        ));
    }

    let det = &p.detector;
    let a = analyze(det.obs().trace());
    if a.dropped_spans > 0 {
        problems.push(format!(
            "the engine trace dropped {} spans",
            a.dropped_spans
        ));
    }
    let registry = det.obs().registry();
    let counter = |name: &str| registry.counter_by_name(name).unwrap_or(0);
    let pool = det.pool().total();
    let b = a.batches.max(1) as f64;
    let row = |k: SpanKind| a.stage(k).copied();
    let per_batch = |k: SpanKind| a.total_for(k) / b;
    let checkpoints = row(SpanKind::Checkpoint).map_or(0, |r| r.spans);
    let call_setup_us = mean(
        &p.call_us
            .iter()
            .zip(&p.engine_us)
            .map(|(c, e)| c - e)
            .collect::<Vec<_>>(),
    );
    let layers = EngineLayers {
        batch_us: mean(&p.call_us),
        call_setup_us,
        batch_sched_us: row(SpanKind::Batch).map_or(0.0, |r| r.self_us) / b,
        broadcast_us: per_batch(SpanKind::Broadcast),
        stage_us: per_batch(SpanKind::Stage),
        task_work_us: row(SpanKind::Stage).map_or(0.0, |r| r.work_us) / b,
        merge_us: per_batch(SpanKind::Merge),
        driver_us: per_batch(SpanKind::Driver),
        alert_batch_us: per_batch(SpanKind::Alert),
        checkpoint_us: a.total_for(SpanKind::Checkpoint) / checkpoints.max(1) as f64,
        checkpoint_bytes: ratio(
            counter("pipeline_checkpoint_bytes_total"),
            counter("pipeline_checkpoint_saves_total"),
        ),
        starvation_us: row(SpanKind::Stage).map_or(0.0, |r| r.starvation_us) / b,
        busy_share: det.pool().parallel_efficiency(),
        steal_hit_ratio: ratio(pool.steals, pool.steal_attempts),
        tasks: det.pool().tasks_scheduled,
        retries: counter("dspe_task_retries_total"),
        lag_p99_us: percentile(&mut p.lag_us, 0.99),
        bow_churn: (
            counter("pipeline_bow_adds_total"),
            counter("pipeline_bow_evictions_total"),
        ),
        drifts: det.model().drifts(),
        alerts_held: det.alerter().alerts().len(),
        untraced_us,
        // The call's own set-up plus the batch span, which its direct
        // children and its self time partition.
        layers_us: call_setup_us + a.total_for(SpanKind::Batch) / b,
    };
    // The engine records its spans in both passes, so the residue is taken
    // within the traced pass, keeping pass-to-pass noise out of it.
    print_reconciliation(
        w,
        "us/batch",
        layers.batch_us,
        layers.layers_us,
        layers.batch_us - layers.untraced_us,
    );
    Ok(Run {
        outcome: p.outcome,
        attempted: 2 * p.tweets,
        failed: untraced_failed + p.late_tweets + p.error_tweets,
        metrics: per_layer(&nlp, None, Some(&layers)),
        problems,
    })
}
