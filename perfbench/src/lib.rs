//! End-to-end and per-layer benchmark of the redhanded detector.
//!
//! The harness drives the system only through public APIs:
//! `DetectionPipeline::process` on the sequential workloads,
//! `SparkDetector::run_segment` on the engine workload, and the layers'
//! public functions in the traced runs. See `README.md` for the workloads,
//! the metrics and how to run it.

pub mod open;
pub mod record;
pub mod seq;
pub mod stats;
pub mod workload;

/// What a pass computed: the values every run checks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Outcome {
    /// Cumulative prequential F1 at the end of the stream.
    pub f1: f64,
    /// Alerts raised.
    pub alerts: u64,
    /// Final adaptive bag-of-words size.
    pub bow_len: usize,
}

impl Outcome {
    /// Exact equality, F1 compared bit for bit.
    pub fn same(&self, other: &Outcome) -> bool {
        self.f1.to_bits() == other.f1.to_bits()
            && self.alerts == other.alerts
            && self.bow_len == other.bow_len
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "f1={} alerts={} bow_len={}",
            self.f1, self.alerts, self.bow_len
        )
    }
}
