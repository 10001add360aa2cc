//! Rule definitions and scoping policy.
//!
//! Scoping encodes the operational model of the pipeline (DESIGN.md
//! "Machine-checked invariants"):
//!
//! * library code must not panic — but benchmark harnesses and CLI entry
//!   points (`crates/bench`, any `src/bin/`) may, and test code always may;
//! * `partial_cmp(..).unwrap()` is banned *everywhere* non-test (a NaN
//!   feature value must degrade a score, never abort the stream);
//! * the per-tweet hot path must not allocate — since lint v2 the hot set
//!   is **computed**: a small list of designated roots ([`HOT_ROOTS`]) is
//!   closed under call-graph reachability, so a hot function growing a
//!   helper automatically drags the helper into scope;
//! * hot crates must not touch SipHash tables (`FxHashMap`/`FxHashSet`
//!   from `redhanded-nlp` instead);
//! * wall-clock reads live only in the DSPE timing layer and benches, so
//!   everything else stays deterministic and replayable;
//! * `catch_unwind` lives only at the DSPE task boundary
//!   (`crates/dspe/src/fault.rs`), so a panic is either an injected fault
//!   handled by the retry machinery or a real abort — never swallowed
//!   elsewhere;
//! * span emission in hot-path functions must go through pre-registered
//!   `SpanKind`s (`Tracer::begin`), never the label-allocating
//!   `begin_named`;
//! * code reachable from a DSPE stage task ([`TASK_ROOTS`]) must be ready
//!   for the real multi-core executor (ROADMAP item 1): no mutable or
//!   lazily-initialized non-`Sync` statics, no `RefCell`/`Cell`/`Rc`
//!   interior mutability, and every `unsafe` block carries a `// SAFETY:`
//!   comment;
//! * wall-clock and RNG reads must not flow along call edges into the
//!   deterministic digest functions ([`DET_SINKS`]) that feed chaos parity
//!   checks and trace digests.

use std::collections::BTreeMap;

/// The eleven invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`/`todo!`/`unreachable!`/`unimplemented!`
    /// in non-test library code.
    NoPanic,
    /// `partial_cmp(..).unwrap()`/`.expect(..)` — NaN-unsafe comparison.
    NanUnsafeCmp,
    /// Allocating calls inside a hot-path function (root-designated or
    /// reachable from one).
    HotPathAlloc,
    /// `std::collections::HashMap`/`HashSet` in a hot crate.
    SipHash,
    /// `Instant::now`/`SystemTime::now` outside the DSPE timing layer.
    WallClock,
    /// `catch_unwind` outside the DSPE fault boundary.
    CatchUnwindBoundary,
    /// Dynamically-labelled span emission (`begin_named`) inside a
    /// hot-path function: span labels allocate, so hot code must emit
    /// spans through pre-registered `SpanKind`s only.
    TracePreregistered,
    /// `static mut`, `thread_local!`, or a static holding an interior-mut
    /// type: none of these are safe to share across executor workers.
    ExecStatic,
    /// `RefCell`/`Cell`/`Rc`/`UnsafeCell`/`OnceCell` in a function
    /// reachable from a DSPE stage task.
    ExecInteriorMut,
    /// An `unsafe` site without a `// SAFETY:` comment.
    UnsafeSafety,
    /// A wall-clock or RNG source reachable (via call edges) from a
    /// deterministic digest function.
    DetTaint,
}

/// What a rule's violations do to the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Non-baselined violations fail the lint gate.
    Deny,
    /// Reported but never fails the gate.
    Warn,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 11] = [
        Rule::NoPanic,
        Rule::NanUnsafeCmp,
        Rule::HotPathAlloc,
        Rule::SipHash,
        Rule::WallClock,
        Rule::CatchUnwindBoundary,
        Rule::TracePreregistered,
        Rule::ExecStatic,
        Rule::ExecInteriorMut,
        Rule::UnsafeSafety,
        Rule::DetTaint,
    ];

    /// Stable kebab-case name (used in diagnostics, the baseline file, and
    /// the JSON report).
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NanUnsafeCmp => "nan-unsafe-cmp",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::SipHash => "sip-hash",
            Rule::WallClock => "wall-clock",
            Rule::CatchUnwindBoundary => "catch-unwind-boundary",
            Rule::TracePreregistered => "trace-preregistered",
            Rule::ExecStatic => "exec-static",
            Rule::ExecInteriorMut => "exec-interior-mut",
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::DetTaint => "det-taint",
        }
    }

    /// Parse a rule from its stable name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line explanation appended to diagnostics.
    pub fn message(self) -> &'static str {
        match self {
            Rule::NoPanic => {
                "panicking call in library code: a 24/7 stream must degrade, not abort \
                 (return a typed `redhanded_types::Result` instead)"
            }
            Rule::NanUnsafeCmp => {
                "NaN-unsafe comparison: use `f64::total_cmp` (or handle NaN explicitly) \
                 so a NaN feature value cannot panic the pipeline"
            }
            Rule::HotPathAlloc => {
                "allocation in a per-tweet hot function (root-designated or reachable \
                 from one): reuse scratch buffers (see `ExtractScratch`) instead"
            }
            Rule::SipHash => {
                "SipHash table in a hot crate: use `redhanded_nlp::{FxHashMap, FxHashSet}`"
            }
            Rule::WallClock => {
                "wall-clock read outside the DSPE timing layer breaks deterministic replay"
            }
            Rule::CatchUnwindBoundary => {
                "`catch_unwind` outside the DSPE fault boundary: tasks may only unwind \
                 into `dspe::fault::call_guarded`, which converts the panic into a \
                 retryable task failure"
            }
            Rule::TracePreregistered => {
                "dynamically-labelled span in a hot function: `begin_named` copies its \
                 label into the tracer (allocates); use `Tracer::begin` with a \
                 pre-registered `SpanKind` instead"
            }
            Rule::ExecStatic => {
                "mutable or interior-mut static: not shareable across executor worker \
                 threads; use `OnceLock` for lazy globals or pass state through the task"
            }
            Rule::ExecInteriorMut => {
                "single-threaded interior mutability in task-reachable code: the real \
                 executor runs tasks on worker threads, so use `&mut` plumbing or \
                 `Sync` primitives instead"
            }
            Rule::UnsafeSafety => {
                "`unsafe` site without a `// SAFETY:` comment: every unsafe block must \
                 state the invariant that makes it sound"
            }
            Rule::DetTaint => {
                "wall-clock/RNG source flows into a deterministic digest: the chaos \
                 parity checks and trace digests must be pure functions of the data"
            }
        }
    }

    /// A paragraph-length explanation for `lint --explain <rule>`: what
    /// the rule checks, why the invariant matters for the paper's
    /// real-time claims, and how to fix a violation.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoPanic => {
                "Flags `unwrap`, `expect`, `panic!`, `todo!`, `unreachable!`, and \
                 `unimplemented!` in non-test library code. The pipeline's headline \
                 claim is sustained 24/7 operation; a panic on one malformed tweet is \
                 an outage. Return `redhanded_types::Result` and let the DSPE retry \
                 machinery handle the failure. Bench harnesses and `src/bin/` CLIs are \
                 exempt."
            }
            Rule::NanUnsafeCmp => {
                "Flags `partial_cmp(..).unwrap()` / `.expect(..)` chains anywhere in \
                 non-test code. Feature extraction produces `f64`s; a NaN must degrade \
                 a score, never abort the stream. Use `f64::total_cmp` or handle the \
                 `None` explicitly."
            }
            Rule::HotPathAlloc => {
                "Flags allocating calls (`Vec::new`, `collect`, `clone`, `format!`, \
                 ...) inside the per-tweet hot path. Since lint v2 the hot set is \
                 computed: designated roots (`extract_into`, the observability \
                 recorders, the DSPE task bodies) are closed under conservative \
                 call-graph reachability, minus named amortization boundaries such as \
                 the classifier's `predict_proba`. Fix by reusing scratch buffers; see \
                 `ExtractScratch`."
            }
            Rule::SipHash => {
                "Flags `std::collections::HashMap`/`HashSet` in the hot crates (nlp, \
                 features, streamml, dspe, core, obs). SipHash costs ~2x FxHash on \
                 short token keys; use `redhanded_nlp::{FxHashMap, FxHashSet}`."
            }
            Rule::WallClock => {
                "Flags `Instant::now`/`SystemTime::now` outside the DSPE timing layer \
                 (`dspe::engine`, `dspe::executor`, `dspe::pool`, `obs::time`) and benches. \
                 Deterministic replay — the recovery property the chaos suite checks — \
                 requires that library code never branches on wall time. Route timing \
                 through `obs::SpanClock`."
            }
            Rule::CatchUnwindBoundary => {
                "Flags any mention of `catch_unwind` outside `dspe::fault`. Panics \
                 must surface at exactly one boundary, where they become retryable \
                 task failures with bounded retries; a second catch site would \
                 silently swallow faults the chaos suite needs to observe."
            }
            Rule::TracePreregistered => {
                "Flags `begin_named` span emission inside hot-path functions. \
                 `begin_named` copies its label into the tracer (allocates); hot code \
                 must use `Tracer::begin` with a `SpanKind` pre-registered at startup."
            }
            Rule::ExecStatic => {
                "Flags `static mut`, `thread_local!`, and statics holding interior-mut \
                 types (`RefCell`, `Cell`, `Rc`, `UnsafeCell`, `OnceCell`). ROADMAP \
                 item 1 moves DSPE tasks onto real OS threads; any such global is \
                 either a data race or a per-thread value that breaks partition \
                 determinism. Lazy globals must use `OnceLock` (Sync, init-once); \
                 mutable state must be owned by the task."
            }
            Rule::ExecInteriorMut => {
                "Flags `RefCell`/`Cell`/`Rc`/`UnsafeCell`/`OnceCell` tokens inside \
                 functions reachable from a DSPE stage task (computed from the call \
                 graph, roots = the task bodies). These are single-threaded \
                 primitives; under the real executor a task must own its state \
                 (`&mut`) or use `Sync` primitives. The repo is clean today — this \
                 rule keeps it that way."
            }
            Rule::UnsafeSafety => {
                "Maintains a registry of every `unsafe` site in the workspace \
                 (including test code, where the only current sites live) and requires \
                 a `// SAFETY:` comment on the line(s) immediately above each. The \
                 registry is enumerated in results/LINT_report.json so a reviewer can \
                 audit the full unsafe surface at a glance."
            }
            Rule::DetTaint => {
                "Taint analysis over the call graph: a function is clock-tainted if \
                 its body reads a wall-clock or RNG source (`Instant::now`, \
                 `SpanClock::wall`, `now_us`, `thread_rng`, `from_entropy`, ...) or \
                 calls a tainted function. The designated deterministic sinks — the \
                 `deterministic_digest` functions in `obs` that feed chaos parity and \
                 trace digests — must not be tainted. Seeded generators \
                 (`seed_from_u64`, the xorshift samplers) are deterministic and not \
                 sources. Diagnostics carry a witness call path."
            }
        }
    }

    /// The rule's severity.
    pub fn severity(self) -> Severity {
        Severity::Deny
    }
}

/// Scoping + token tables for one lint run. [`LintConfig::default`] is the
/// production policy; tests build custom configs to exercise the engine.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path substrings exempt from `no-panic` (bench harness, CLI bins).
    pub no_panic_exempt: &'static [&'static str],
    /// Crates whose code must use FxHash tables.
    pub sip_hash_crates: &'static [&'static str],
    /// Path substrings exempt from `sip-hash` (the FxHash shim itself,
    /// CLI flag parsing).
    pub sip_hash_exempt: &'static [&'static str],
    /// Path substrings exempt from `wall-clock` (DSPE timing, benches).
    pub wall_clock_exempt: &'static [&'static str],
    /// Path substrings exempt from `catch-unwind-boundary` (the fault
    /// boundary itself).
    pub catch_unwind_exempt: &'static [&'static str],
    /// Root designations for the hot path: reachability from these closes
    /// the hot set. Keys are workspace-relative files, values fn names.
    pub hot_roots: &'static [(&'static str, &'static [&'static str])],
    /// `(file, fn)` designations hot-path propagation never descends
    /// *into*: documented amortization boundaries whose cost is accepted
    /// by API contract (e.g. `predict_proba` returns an owned posterior).
    /// Each entry carries its justification for the report.
    pub hot_boundaries: &'static [(&'static str, &'static str, &'static str)],
    /// Root designations for exec-ready: the DSPE stage-task bodies.
    /// Everything reachable is "task-reachable" (no boundaries).
    pub task_roots: &'static [(&'static str, &'static [&'static str])],
    /// Deterministic sinks for the taint pass: these fns must never be
    /// clock/RNG-tainted.
    pub det_sinks: &'static [(&'static str, &'static [&'static str])],
    /// `Type::method` path calls that read a clock or entropy source.
    pub taint_paths: &'static [(&'static str, &'static str)],
    /// Bare call names that read a clock or entropy source.
    pub taint_calls: &'static [&'static str],
    /// Type names whose appearance in task-reachable code (or in a
    /// static's type) violates exec-ready. `OnceLock` is deliberately
    /// absent: it is `Sync` and the sanctioned lazy-global primitive.
    pub interior_mut_types: &'static [&'static str],
    /// Method names that allocate (flagged as `.name(` calls in hot code).
    pub alloc_methods: &'static [&'static str],
    /// `Type::method` pairs that allocate.
    pub alloc_paths: &'static [(&'static str, &'static str)],
    /// Macros that allocate (`format!`, `vec!`).
    pub alloc_macros: &'static [&'static str],
    /// The *computed* hot set, per file → fn names. Defaults to the roots
    /// alone; `analyze_workspace` replaces it with the reachability
    /// closure before the per-file rule pass runs.
    pub hot_overlay: BTreeMap<String, Vec<String>>,
    /// The computed task-reachable set, per file → fn names. Same
    /// lifecycle as `hot_overlay`.
    pub task_overlay: BTreeMap<String, Vec<String>>,
}

/// Hot-path roots: the per-tweet entry point, the DSPE task bodies that
/// drive it, and the observability recorders that run inside the span of
/// every task. Everything else hot is *computed* by reachability.
///
/// `Tokenizer::next` is a root (not just reachable) because `for`-loop
/// iteration desugars to `Iterator::next` calls the lexer cannot see.
const HOT_ROOTS: &[(&str, &[&str])] = &[
    ("crates/features/src/extract.rs", &["extract_into"]),
    ("crates/core/src/spark.rs", &["process_batch"]),
    ("crates/dspe/src/engine.rs", &["execute_with_retries"]),
    ("crates/nlp/src/tokenizer.rs", &["next"]),
    // Public per-tweet entry points not reached from the roots above (the
    // retired hand list named them; callers outside the workspace exist).
    // `extract_into` runs the fused `TextScan` pass, so the standalone
    // tokenizer, scorer and tagger entry points are roots of their own.
    ("crates/features/src/adaptive_bow.rs", &["score", "snapshot_into"]),
    ("crates/nlp/src/tokenizer.rs", &["tokenize_into"]),
    ("crates/nlp/src/sentiment.rs", &["score_tokens_with", "score_spans"]),
    ("crates/nlp/src/pos.rs", &["count_pos"]),
    // Observability recording: pre-registered metrics, ring-buffer events,
    // span emission (pre-allocated span buffer, pre-registered kinds).
    ("crates/obs/src/metrics.rs", &["inc", "add", "set", "set_max", "record"]),
    ("crates/obs/src/events.rs", &["push"]),
    ("crates/obs/src/trace.rs", &["begin", "end", "record", "annotate_task", "sample"]),
    // Pool scheduler telemetry: per-task/per-steal recorders run inside
    // the worker loop on every real-mode task.
    ("crates/obs/src/runtime.rs", &["note_task", "note_steal", "note_queue_depth"]),
    // Sharded deployment: key routing and per-record ingestion run once
    // per tweet; everything batch-grained hides behind `primary_flush`.
    ("crates/dspe/src/shard.rs", &["partition"]),
    ("crates/shard/src/runner.rs", &["route"]),
];

/// Amortization boundaries: hot-path propagation stops at (does not
/// descend into) these `(file, fn)` designations, with the justification
/// recorded alongside. A boundary's *call site* in hot code is still
/// checked; only the boundary's own body (and its callees) leaves scope.
const HOT_BOUNDARIES: &[(&str, &str, &str)] = &[
    // --- DSPE: per-batch / per-stage orchestration -----------------------
    // `process_batch` and `execute_with_retries` themselves stay hot (their
    // bodies are alloc-free); the orchestration they call allocates once
    // per stage or per batch, amortized over every tweet in the batch.
    ("crates/dspe/src/engine.rs", "map", "lazy RDD construction: builds the stage graph, not per-record work"),
    ("crates/dspe/src/engine.rs", "filter", "lazy RDD construction: builds the stage graph, not per-record work"),
    ("crates/dspe/src/engine.rs", "map_partitions", "lazy RDD construction: builds the stage graph, not per-record work"),
    ("crates/dspe/src/engine.rs", "parallelize", "per-batch input distribution; allocates partition buffers once per batch"),
    ("crates/dspe/src/engine.rs", "collect", "per-batch result materialization; allocates once per batch"),
    ("crates/dspe/src/engine.rs", "tree_reduce", "per-batch reduction; partial buffers allocated once per batch"),
    ("crates/dspe/src/engine.rs", "run_stage", "per-stage task orchestration; allocation amortized over the batch"),
    ("crates/dspe/src/engine.rs", "broadcast", "per-batch model broadcast; one buffer per batch"),
    ("crates/dspe/src/executor.rs", "run_selected", "per-batch task dispatch; result buffers allocated once per batch"),
    ("crates/dspe/src/pool.rs", "run_selected_stealing", "per-wave work-stealing dispatch; deques and result slots allocated once per wave"),
    ("crates/dspe/src/schedule.rs", "list_schedule_into", "scheduler slot-state buffer, one small Vec per stage evaluation"),
    ("crates/dspe/src/operator.rs", "map", "operator-chain construction at stage setup, not per-record work"),
    ("crates/dspe/src/operator.rs", "filter", "operator-chain construction at stage setup, not per-record work"),
    ("crates/dspe/src/operator.rs", "flatten_options", "operator-chain construction at stage setup, not per-record work"),
    ("crates/dspe/src/checkpoint.rs", "seqs", "recovery-path checkpoint decode; runs on failure recovery, not steady state"),
    ("crates/dspe/src/schedule.rs", "stage_makespan", "scheduler cost model, evaluated once per stage"),
    // --- streamml: model management at batch/drift boundaries ------------
    ("crates/streamml/src/arf.rs", "fork", "background-learner construction at warning events, rare by design"),
    ("crates/streamml/src/arf.rs", "finalize", "deferred structural updates once per member per batch"),
    ("crates/streamml/src/arf.rs", "finalize_batch", "deferred structural updates once per batch"),
    ("crates/streamml/src/arf.rs", "clone_box", "deep model clone, construction/merge time only"),
    ("crates/streamml/src/arf.rs", "local_copy", "per-task local model construction, once per task per batch"),
    ("crates/streamml/src/arf.rs", "merge_locals", "per-batch merge of task-local models"),
    ("crates/streamml/src/arf.rs", "predict_proba", "returns an owned posterior by Classifier API contract (one small Vec per call)"),
    ("crates/streamml/src/bagging.rs", "clone", "explicit deep clone, construction time only"),
    ("crates/streamml/src/bagging.rs", "clone_box", "deep model clone, construction/merge time only"),
    ("crates/streamml/src/bagging.rs", "local_copy", "per-task local model construction, once per task per batch"),
    ("crates/streamml/src/bagging.rs", "predict_proba", "returns an owned posterior by Classifier API contract (one small Vec per call)"),
    ("crates/streamml/src/hoeffding.rs", "new", "model construction, setup or drift-replacement time"),
    ("crates/streamml/src/hoeffding.rs", "with_counts", "leaf promotion at split time, amortized over the grace period"),
    ("crates/streamml/src/hoeffding.rs", "validate", "config validation at construction time"),
    ("crates/streamml/src/hoeffding.rs", "fork", "subtree clone at split/background-creation time"),
    ("crates/streamml/src/hoeffding.rs", "merge", "per-batch merge of task-local trees"),
    ("crates/streamml/src/hoeffding.rs", "attempt_splits", "split attempt, amortized over grace-period instances"),
    ("crates/streamml/src/hoeffding.rs", "clone_box", "deep model clone, construction/merge time only"),
    ("crates/streamml/src/hoeffding.rs", "local_copy", "per-task local model construction, once per task per batch"),
    ("crates/streamml/src/hoeffding.rs", "predict_proba", "returns an owned posterior by Classifier API contract (one small Vec per call)"),
    ("crates/streamml/src/hoeffding.rs", "majority_proba", "posterior constructed by value at prediction/split time (API contract)"),
    ("crates/streamml/src/hoeffding.rs", "naive_bayes_proba", "posterior constructed by value at prediction/split time (API contract)"),
    ("crates/streamml/src/nb.rs", "new", "model construction, setup time"),
    ("crates/streamml/src/nb.rs", "clone_box", "deep model clone, construction/merge time only"),
    ("crates/streamml/src/nb.rs", "local_copy", "per-task local model construction, once per task per batch"),
    ("crates/streamml/src/nb.rs", "predict_proba", "returns an owned posterior by Classifier API contract (one small Vec per call)"),
    ("crates/streamml/src/slr.rs", "validate", "config validation at construction time"),
    ("crates/streamml/src/slr.rs", "clone_box", "deep model clone, construction/merge time only"),
    ("crates/streamml/src/slr.rs", "merge_locals", "per-batch merge of task-local models"),
    ("crates/streamml/src/slr.rs", "predict_proba", "returns an owned posterior by Classifier API contract (one small Vec per call)"),
    ("crates/streamml/src/slr.rs", "softmax", "per-class score vector built by value; same small-Vec cost as the bounded predict path"),
    ("crates/streamml/src/adwin.rs", "new", "detector construction at setup/drift events"),
    ("crates/streamml/src/drift.rs", "build", "detector construction at setup/drift events"),
    ("crates/streamml/src/drift.rs", "clone_box", "detector clone at construction time"),
    ("crates/streamml/src/eval.rs", "new", "evaluator construction, setup time"),
    ("crates/streamml/src/gaussian.rs", "new", "estimator construction at leaf-promotion time"),
    ("crates/streamml/src/gaussian.rs", "merge", "per-batch merge of partition summaries"),
    ("crates/streamml/src/gaussian.rs", "best_split", "split search, amortized over grace-period instances"),
    ("crates/streamml/src/gaussian.rs", "project_split", "split search, amortized over grace-period instances"),
    // --- batchml: offline API reached only via method-name ambiguity -----
    ("crates/batchml/src/forest.rs", "predict_proba", "offline batch API; an edge exists only through method-name ambiguity with streamml"),
    ("crates/batchml/src/logistic.rs", "predict_proba", "offline batch API; an edge exists only through method-name ambiguity with streamml"),
    ("crates/batchml/src/tree.rs", "predict_proba", "offline batch API; an edge exists only through method-name ambiguity with streamml"),
    // --- features / nlp ---------------------------------------------------
    ("crates/features/src/adaptive_bow.rs", "fork", "vocabulary fork at window-maintenance boundaries, amortized"),
    ("crates/features/src/extract.rs", "instance_into", "builds the owned per-instance feature vector the Instance API requires"),
    ("crates/features/src/extract.rs", "labeled_instance_into", "builds the owned per-instance feature vector the Instance API requires"),
    ("crates/features/src/normalize.rs", "new", "scaler construction, once per batch"),
    ("crates/features/src/stats.rs", "merge", "per-batch merge of partition summaries"),
    ("crates/nlp/src/lexicons/mod.rs", "sentiment_map", "OnceLock lazy init; steady state is a cached read"),
    ("crates/nlp/src/lexicons/mod.rs", "booster_map", "OnceLock lazy init; steady state is a cached read"),
    ("crates/nlp/src/lexicons/mod.rs", "lex_map", "OnceLock lazy init; steady state is a cached read"),
    ("crates/nlp/src/tokenizer.rs", "scan_tables", "OnceLock lazy init; steady state is a cached read"),
    // --- shard: flush-boundary orchestration ------------------------------
    ("crates/shard/src/runner.rs", "primary_flush", "per-batch flush orchestration (segment copy, chaos hooks); allocation amortized over the micro-batch"),
    // --- obs runtime telemetry: wave-grained bookkeeping ------------------
    ("crates/obs/src/runtime.rs", "begin_wave", "per-wave slot registration; worker-slot Vecs grow once per run, then reused"),
    // The flight recorder's dump path renders JSON on retry exhaustion,
    // stragglers, or driver kills — fault post-mortems, not steady state.
    ("crates/dspe/src/engine.rs", "flight_dump", "fault post-mortem dump; runs on retry exhaustion / straggler / driver kill, never in the steady-state loop"),
];

/// Stage-task roots for exec-ready: the closures the engine hands to the
/// executor run these bodies, so everything reachable from them executes
/// on a worker thread once ROADMAP item 1 lands.
const TASK_ROOTS: &[(&str, &[&str])] = &[
    ("crates/core/src/spark.rs", &["process_batch"]),
    ("crates/dspe/src/engine.rs", &["execute_with_retries"]),
    ("crates/dspe/src/fault.rs", &["call_guarded"]),
    // The work-stealing pool's worker body runs every real-mode task on an
    // OS thread; everything it reaches must be exec-ready by definition.
    ("crates/dspe/src/pool.rs", &["worker_loop"]),
    // A partition flush runs on whichever shard host owns the partition,
    // so its closure must be exec-ready like any stage task body.
    ("crates/shard/src/runner.rs", &["flush_partition"]),
];

/// The deterministic sinks: digest functions feeding chaos parity checks
/// and trace digests. Convention until now; machine-checked from this PR.
const DET_SINKS: &[(&str, &[&str])] = &[
    ("crates/obs/src/metrics.rs", &["deterministic_digest"]),
    ("crates/obs/src/events.rs", &["deterministic_digest"]),
    ("crates/obs/src/trace.rs", &["deterministic_digest"]),
    // The driver-merged global aggregate digest feeds the sharded chaos
    // parity checks; clock/RNG taint here would fake (or mask) divergence.
    ("crates/shard/src/aggregate.rs", &["deterministic_digest"]),
];

impl Default for LintConfig {
    fn default() -> Self {
        let as_overlay = |roots: &'static [(&'static str, &'static [&'static str])]| {
            roots
                .iter()
                .map(|&(f, fns)| (f.to_string(), fns.iter().map(|s| s.to_string()).collect()))
                .collect::<BTreeMap<String, Vec<String>>>()
        };
        LintConfig {
            no_panic_exempt: &["crates/bench/", "/src/bin/"],
            sip_hash_crates: &["nlp", "features", "streamml", "dspe", "core", "obs", "shard"],
            sip_hash_exempt: &["crates/nlp/src/fxhash.rs", "/src/bin/"],
            wall_clock_exempt: &[
                "crates/bench/",
                "crates/dspe/src/engine.rs",
                "crates/dspe/src/executor.rs",
                "crates/dspe/src/pool.rs",
                "crates/obs/src/time.rs",
                // The live metrics endpoint blocks on real sockets with
                // real read timeouts; it never touches pipeline state.
                "crates/obs/src/serve.rs",
                "/src/bin/",
            ],
            catch_unwind_exempt: &["crates/dspe/src/fault.rs"],
            hot_roots: HOT_ROOTS,
            hot_boundaries: HOT_BOUNDARIES,
            task_roots: TASK_ROOTS,
            det_sinks: DET_SINKS,
            taint_paths: &[
                ("Instant", "now"),
                ("SystemTime", "now"),
                ("SpanClock", "wall"),
            ],
            taint_calls: &["now_us", "thread_rng", "from_entropy", "getrandom"],
            interior_mut_types: &["RefCell", "Cell", "Rc", "UnsafeCell", "OnceCell"],
            alloc_methods: &[
                "to_string",
                "to_owned",
                "to_vec",
                "to_lowercase",
                "to_uppercase",
                "collect",
                "clone",
            ],
            alloc_paths: &[
                ("Vec", "new"),
                ("Vec", "with_capacity"),
                ("Box", "new"),
                ("String", "new"),
                ("String", "from"),
                ("String", "with_capacity"),
            ],
            alloc_macros: &["format", "vec"],
            hot_overlay: as_overlay(HOT_ROOTS),
            task_overlay: as_overlay(TASK_ROOTS),
        }
    }
}

impl LintConfig {
    /// The crate name a `crates/<name>/...` path belongs to.
    fn crate_of(file: &str) -> &str {
        file.strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("")
    }

    /// Whether `rule` applies at all to `file` (test regions are excluded
    /// separately, token by token). `UnsafeSafety` and `DetTaint` are
    /// workspace passes, not per-file token rules, and return `false`
    /// here; they run in `analyze_workspace`.
    pub fn applies(&self, rule: Rule, file: &str) -> bool {
        match rule {
            Rule::NoPanic => !self.no_panic_exempt.iter().any(|e| file.contains(e)),
            Rule::NanUnsafeCmp => true,
            Rule::HotPathAlloc => !self.hot_functions(file).is_empty(),
            Rule::SipHash => {
                self.sip_hash_crates.contains(&Self::crate_of(file))
                    && !self.sip_hash_exempt.iter().any(|e| file.contains(e))
            }
            Rule::WallClock => !self.wall_clock_exempt.iter().any(|e| file.contains(e)),
            Rule::CatchUnwindBoundary => {
                !self.catch_unwind_exempt.iter().any(|e| file.contains(e))
            }
            Rule::TracePreregistered => !self.hot_functions(file).is_empty(),
            Rule::ExecStatic => true,
            Rule::ExecInteriorMut => !self.task_functions(file).is_empty(),
            Rule::UnsafeSafety | Rule::DetTaint => false,
        }
    }

    /// The hot functions for `file` from the computed overlay (the root
    /// designations alone until `analyze_workspace` widens it).
    pub fn hot_functions(&self, file: &str) -> Vec<&str> {
        self.hot_overlay
            .get(file)
            .map(|fns| fns.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// The task-reachable functions for `file` (same overlay mechanics).
    pub fn task_functions(&self, file: &str) -> Vec<&str> {
        self.task_overlay
            .get(file)
            .map(|fns| fns.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(!rule.explain().is_empty());
        }
        assert_eq!(Rule::from_name("nonsense"), None);
    }

    #[test]
    fn scoping_matches_policy() {
        let c = LintConfig::default();
        assert!(c.applies(Rule::NoPanic, "crates/streamml/src/arf.rs"));
        assert!(!c.applies(Rule::NoPanic, "crates/bench/src/lib.rs"));
        assert!(!c.applies(Rule::NoPanic, "crates/core/src/bin/redhanded.rs"));
        assert!(c.applies(Rule::SipHash, "crates/core/src/alert.rs"));
        assert!(!c.applies(Rule::SipHash, "crates/nlp/src/fxhash.rs"));
        assert!(!c.applies(Rule::SipHash, "crates/batchml/src/cv.rs"));
        assert!(c.applies(Rule::WallClock, "crates/core/src/deploy.rs"));
        assert!(!c.applies(Rule::WallClock, "crates/dspe/src/engine.rs"));
        assert!(
            !c.applies(Rule::WallClock, "crates/dspe/src/pool.rs"),
            "the work-stealing pool stamps task spans on the wall clock"
        );
        assert!(
            c.applies(Rule::ExecInteriorMut, "crates/dspe/src/pool.rs"),
            "pool worker bodies are task roots"
        );
        assert!(
            !c.applies(Rule::WallClock, "crates/obs/src/time.rs"),
            "SpanClock is the obs crate's wall-clock timestamp touchpoint"
        );
        assert!(
            !c.applies(Rule::WallClock, "crates/obs/src/serve.rs"),
            "the live endpoint blocks on real sockets with real timeouts"
        );
        assert!(c.applies(Rule::WallClock, "crates/obs/src/metrics.rs"));
        assert!(
            c.applies(Rule::HotPathAlloc, "crates/obs/src/runtime.rs"),
            "pool telemetry recorders run inside the worker loop"
        );
        assert!(c.applies(Rule::WallClock, "crates/obs/src/runtime.rs"));
        assert!(c.applies(Rule::SipHash, "crates/obs/src/metrics.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/features/src/extract.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/dspe/src/engine.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/obs/src/metrics.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/obs/src/events.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/obs/src/trace.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/dspe/src/shard.rs"));
        assert!(c.applies(Rule::HotPathAlloc, "crates/shard/src/runner.rs"));
        assert!(c.applies(Rule::SipHash, "crates/shard/src/runner.rs"));
        assert!(c.applies(Rule::ExecInteriorMut, "crates/shard/src/runner.rs"));
        assert!(!c.applies(Rule::HotPathAlloc, "crates/features/src/stats.rs"));
        assert!(c.applies(Rule::TracePreregistered, "crates/core/src/spark.rs"));
        assert!(c.applies(Rule::TracePreregistered, "crates/dspe/src/engine.rs"));
        assert!(
            !c.applies(Rule::TracePreregistered, "crates/core/src/deploy.rs"),
            "cold code may open custom-labelled spans"
        );
        assert!(c.applies(Rule::CatchUnwindBoundary, "crates/dspe/src/executor.rs"));
        assert!(c.applies(Rule::CatchUnwindBoundary, "crates/core/src/spark.rs"));
        assert!(!c.applies(Rule::CatchUnwindBoundary, "crates/dspe/src/fault.rs"));
        assert!(c.applies(Rule::ExecStatic, "crates/nlp/src/pos.rs"));
        assert!(c.applies(Rule::ExecInteriorMut, "crates/core/src/spark.rs"));
        assert!(
            !c.applies(Rule::ExecInteriorMut, "crates/core/src/deploy.rs"),
            "deploy driver code is not task-reachable by default overlay"
        );
        assert!(
            !c.applies(Rule::UnsafeSafety, "crates/obs/src/trace.rs"),
            "unsafe-safety is a workspace pass, not a per-file token rule"
        );
        assert!(!c.applies(Rule::DetTaint, "crates/obs/src/trace.rs"));
    }

    #[test]
    fn overlay_defaults_to_roots_and_widens() {
        let mut c = LintConfig::default();
        assert_eq!(c.hot_functions("crates/features/src/extract.rs"), ["extract_into"]);
        assert!(c.hot_functions("crates/nlp/src/sentence.rs").is_empty());
        c.hot_overlay
            .entry("crates/nlp/src/sentence.rs".to_string())
            .or_default()
            .push("count_word_sentences".to_string());
        assert_eq!(c.hot_functions("crates/nlp/src/sentence.rs"), ["count_word_sentences"]);
        assert!(c.applies(Rule::HotPathAlloc, "crates/nlp/src/sentence.rs"));
    }
}
