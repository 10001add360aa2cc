//! Results: the printed result line, the host and provenance stamp, the
//! saved run records, the committed reference values, and comparison of two
//! saved records.

use crate::workload::Workload;
use crate::Outcome;
use redhanded_types::json::{write_escaped, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Reference values committed with the benchmark, one line per workload and
/// seed: `workload seed f1 alerts bow_len`, tab-separated. Found through the
/// package's own directory, so the check does not depend on where the
/// benchmark is started from.
pub const REFERENCE_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Build a metric.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Display prints an f64 in full, never in exponent form.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Where the host, toolchain and code under test come from.
pub struct Stamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_commit: String,
    /// FNV-1a digest of the sources the benchmark builds.
    pub source_digest: String,
}

/// Stamp the current host and checkout.
pub fn stamp() -> Stamp {
    let command_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "none".to_string())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Stamp {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        rustc: command_line(&rustc, &["--version"]),
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        source_digest: source_digest(),
    }
}

/// FNV-1a over the relative path and bytes of every file the benchmark
/// builds from, in sorted order.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The provenance object of one run.
pub fn provenance_json(
    s: &Stamp,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"nproc\": {}, \"cpu_model\": ", s.nproc);
    write_escaped(&s.cpu_model, &mut out);
    out.push_str(", \"rustc\": ");
    write_escaped(&s.rustc, &mut out);
    out.push_str(", \"git_commit\": ");
    write_escaped(&s.git_commit, &mut out);
    let _ = write!(
        out,
        ", \"source_digest\": \"{}\", \"workload\": \"{}\", \"params\": ",
        s.source_digest,
        workload.name()
    );
    write_escaped(&workload.params(), &mut out);
    let _ = write!(
        out,
        ", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}",
        u8::from(trace)
    );
    out
}

/// Directory for run records: under the build directory, inside the
/// checkout.
pub fn runs_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    Path::new(&target).join("perfbench-runs")
}

/// Save a run record (provenance plus result) and return its path.
pub fn save_record(
    workload: Workload,
    seed: u64,
    trace: bool,
    provenance: &str,
    result: &str,
) -> std::io::Result<PathBuf> {
    let dir = runs_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ));
    std::fs::write(
        &path,
        format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n"),
    )?;
    Ok(path)
}

fn parse_reference(line: &str) -> Option<(String, u64, Outcome)> {
    let mut f = line.split('\t');
    let workload = f.next()?.to_string();
    let seed = f.next()?.parse().ok()?;
    let outcome = Outcome {
        f1: f.next()?.parse().ok()?,
        alerts: f.next()?.parse().ok()?,
        bow_len: f.next()?.parse().ok()?,
    };
    Some((workload, seed, outcome))
}

/// The reference line for `outcome`.
pub fn reference_line(workload: Workload, seed: u64, o: &Outcome) -> String {
    format!(
        "{}\t{seed}\t{}\t{}\t{}",
        workload.name(),
        o.f1,
        o.alerts,
        o.bow_len
    )
}

/// The committed reference outcome of `workload` on `seed`, or `None` when
/// [`REFERENCE_FILE`] has no line for them. A file that cannot be read is an
/// error: the check must never pass by comparing nothing.
pub fn reference(workload: Workload, seed: u64) -> Result<Option<Outcome>, String> {
    let text = std::fs::read_to_string(REFERENCE_FILE)
        .map_err(|e| format!("cannot read {REFERENCE_FILE}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(parse_reference)
        .find(|(w, s, _)| w == workload.name() && *s == seed)
        .map(|(_, _, outcome)| outcome))
}

/// Compare two saved run records metric by metric. Records from unlike
/// hosts (CPU count, CPU model or toolchain differ) are refused. Returns
/// the process exit code.
pub fn compare(a: &str, b: &str) -> i32 {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let field = |r: &Value, k: &str| -> String {
        match r.get("provenance").and_then(|p| p.get(k)) {
            Some(Value::String(s)) => s.clone(),
            Some(v) => v
                .as_f64()
                .map_or_else(|| "?".to_string(), |x| x.to_string()),
            None => "?".to_string(),
        }
    };
    for key in ["nproc", "cpu_model", "rustc", "workload", "params", "trace"] {
        let (x, y) = (field(&ra, key), field(&rb, key));
        if x != y {
            println!("refused: the records differ in {key} ({x:?} vs {y:?}); results from unlike hosts or set-ups are not comparable");
            return 3;
        }
    }
    let metrics = |r: &Value| match r.get("result").and_then(|x| x.get("metrics")) {
        Some(Value::Object(m)) => m.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&rb);
    println!(
        "{:<28} {:>16} {:>16} {:>8}  unit",
        "metric", "a", "b", "b/a"
    );
    for (name, va) in metrics(&ra) {
        let value = |v: &Value| v.get("value").and_then(Value::as_f64);
        let unit = va.get("unit").and_then(Value::as_str).unwrap_or("");
        let x = value(&va).unwrap_or(f64::NAN);
        let y = mb
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| value(v))
            .unwrap_or(f64::NAN);
        println!("{name:<28} {x:>16.6} {y:>16.6} {:>8.3}  {unit}", y / x);
    }
    0
}
