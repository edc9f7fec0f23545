//! The repository benchmark: three workloads over the serve daemon and
//! the offline codec, an end-to-end result per run, and a per-layer
//! ledger in a separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! scorpio-perfbench --workload serve_dct|serve_mix|offline_jpeg --seed N
//!                   --seconds N --trace 0|1 --root DIR --serve-bin PATH
//!                   --work-dir DIR [--git-commit SHA]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! records the machine and the run. The exit code is non-zero when any
//! op failed or an output check did not pass.

mod daemon;
mod ledger;
mod offline;
mod phase;
mod procfs;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use scorpio_obs::json::escape_into;
use scorpio_quality::GrayImage;

use crate::ledger::SpanStat;

/// Metrics of an untraced run.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_items_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "cpu_ms_per_item",
    "peak_rss_mib",
];

/// Cargo features of the daemon and of this runner: `run.py` builds
/// both without `--features`.
const FEATURES: &str = "default";

/// Metrics of a traced run.
const PER_LAYER: [&str; 29] = [
    "ledger.e2e_mean_ms",
    "ledger.unattributed_frac",
    "trace.overhead_frac",
    "serve.client.roundtrip_share",
    "obs.json.decode_share",
    "obs.json.decode_mib_s",
    "serve.reply_kib",
    "serve.server.service_share",
    "serve.server.overhead_share",
    "serve.protocol.parse_request_share",
    "core.cache.lookup_share",
    "serve.kernels.run_vars_share",
    "serve.protocol.encode_reply_share",
    "kernels.jpeg.analyze_share",
    "kernels.jpeg.encode_share",
    "kernels.jpeg.decode_share",
    "runtime.taskwait_share",
    "core.cache.hit_rate",
    "core.cache.misses",
    "core.cache.evictions",
    "core.replay.records",
    "core.replay.fallback_rate",
    "adjoint.forward_ms",
    "adjoint.reverse_ms",
    "adjoint.reverse_over_forward",
    "core.significance_ms",
    "core.record_ms",
    "adjoint.compile_ms",
    "adjoint.tape_nodes",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal length of the timed phase; sets the fixed amount of work.
    pub seconds: u64,
    /// Traced run (per-layer ledger) instead of the end-to-end run.
    pub trace: bool,
    /// Checkout root (holds `assets/`).
    pub root: PathBuf,
    /// The `scorpio_serve` binary.
    pub serve_bin: PathBuf,
    /// Directory the daemon runs in.
    pub work_dir: PathBuf,
}

/// Reads a checked-in grayscale image.
///
/// # Panics
///
/// Panics if the asset is missing or malformed: the workload cannot
/// run without it.
pub fn load_asset(root: &Path, name: &str) -> GrayImage {
    let path = root.join("assets").join(name);
    let file = File::open(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    GrayImage::read_pgm(BufReader::new(file))
        .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

/// Named layer means of one traced phase against its end-to-end mean.
#[derive(Debug)]
pub struct Ledger {
    e2e_ms: f64,
    /// `(name, mean ms per op, counted in the sum)`. Layers not counted
    /// overlap counted ones and are shown for reference.
    rows: Vec<(&'static str, f64, bool)>,
}

impl Ledger {
    /// An empty ledger for an end-to-end mean.
    pub fn new(e2e_ms: f64) -> Ledger {
        Ledger {
            e2e_ms,
            rows: Vec::new(),
        }
    }

    /// Adds a layer's mean per op.
    pub fn layer(&mut self, name: &'static str, mean_ms: f64, summed: bool) {
        self.rows.push((name, mean_ms, summed));
    }

    /// `1 − Σ counted layer means / e2e mean`.
    pub fn unattributed(&self) -> f64 {
        let parts: Vec<f64> = self.rows.iter().filter(|r| r.2).map(|r| r.1).collect();
        ledger::unattributed_frac(self.e2e_ms, &parts)
    }
}

/// What one run measured and how its ops went.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    info: BTreeMap<String, String>,
    lines: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome::default()
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn info(&mut self, key: &str, value: String) {
        self.info.insert(key.to_string(), value);
    }

    /// Counts one failed op.
    fn fail_op(&mut self, why: String) {
        self.absorb(1, 1, &[why]);
    }

    fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors.iter().cloned());
    }

    /// Takes the end-to-end metrics of an untraced phase from its ops,
    /// set-up repetitions and peak RSS, and records in the run record
    /// what they were taken from.
    fn end_to_end(&mut self, ops: &[phase::Op], setups: &[f64], rss_mib: f64) {
        self.info("setup_samples", setups.len().to_string());
        let Some(f) = phase::figures(ops) else {
            return;
        };
        if let Some(setup) = phase::setup_seconds(setups, ops) {
            self.metric("setup_s", setup, "s");
        }
        let l = &f.latency;
        self.metric("throughput_items_s", f.throughput, "items/s");
        self.metric("latency_p50_ms", l.p50, "ms");
        self.metric("latency_tail_ms", l.tail, "ms");
        self.metric("cpu_ms_per_item", f.cpu_ms_per_item, "ms");
        self.metric("peak_rss_mib", rss_mib, "MiB");

        self.info("slices_kept", format!("{} of {}", f.kept.0, f.kept.1));
        self.info("ops_kept", format!("{} of {}", f.ops_kept, ops.len()));
        self.info("steal_share_kept", format!("{:.4}", f.steal_kept));
        self.info("steal_share_all", format!("{:.4}", f.steal_all));
        let groups = phase::slices(ops, phase::SETUP_REPS);
        let rates: Vec<f64> = groups.iter().map(|s| s.rate).collect();
        self.info("group_rates", format!("{rates:.1?}"));
        let steal: Vec<f64> = groups.iter().map(|s| phase::steal_share(s.ticks)).collect();
        self.info("group_steal", format!("{steal:.3?}"));
        self.info("latency_samples", l.n.to_string());
        self.info("tail_percentile", stats::percentile_label(l.tail_p_milli));
        self.info("tail_samples_beyond", l.tail_beyond.to_string());
        self.info("latency_mean_ms", format!("{}", l.mean));
        self.info(
            "latency_p10_to_p90_and_p99_ms",
            format!("{:.3?}", l.profile),
        );
    }

    fn print_ledger(&mut self, l: &Ledger) {
        self.lines
            .push(format!("ledger: end-to-end mean {:.4} ms per op", l.e2e_ms));
        for &(name, ms, summed) in &l.rows {
            let tag = if summed { "summed" } else { "overlaps" };
            let share = ledger::share(ms, l.e2e_ms);
            self.lines.push(format!(
                "  {name:<34} {ms:>12.4} ms  share {share:>7.4}  ({tag})"
            ));
        }
        self.lines.push(format!(
            "  {:<34} {:>12} {:>5}  share {:>7.4}",
            "unattributed",
            "",
            "",
            l.unattributed()
        ));
    }
}

/// Analysis-engine layers from span self times: forward, reverse and
/// significance per analysed item, record and compile per occurrence.
fn analysis_metrics(
    out: &mut Outcome,
    warm: &BTreeMap<String, SpanStat>,
    spans: &BTreeMap<String, SpanStat>,
    items: usize,
    tape_nodes: f64,
) {
    let per_item = |names: &[&str]| ledger::self_ms(spans, names) / items.max(1) as f64;
    let forward = per_item(&["forward", "forward_lanes"]);
    let reverse = per_item(&["reverse"]);
    let significance = per_item(&["significance"]);
    let mut both = warm.clone();
    for (name, s) in spans {
        let e = both.entry(name.clone()).or_default();
        e.count += s.count;
        e.total_ns += s.total_ns;
        e.self_ns += s.self_ns;
    }
    out.metric("adjoint.forward_ms", forward, "ms");
    out.metric("adjoint.reverse_ms", reverse, "ms");
    out.metric(
        "adjoint.reverse_over_forward",
        ledger::share(reverse, forward),
        "ratio",
    );
    out.metric("core.significance_ms", significance, "ms");
    out.metric(
        "core.record_ms",
        ledger::mean_self_ms(&both, &["record"]),
        "ms",
    );
    out.metric(
        "adjoint.compile_ms",
        ledger::mean_self_ms(&both, &["compile"]),
        "ms",
    );
    out.metric("adjoint.tape_nodes", tape_nodes, "count");
    out.info("analysed_items", items.to_string());
    out.info(
        "record_spans",
        ledger::span_count(&both, &["record"]).to_string(),
    );
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let need = |name: &str| arg(args, name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        need(name)?
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer"))
    };
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let cfg = Config {
        workload: need("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
        root: PathBuf::from(need("--root")?),
        serve_bin: PathBuf::from(need("--serve-bin")?),
        work_dir: PathBuf::from(need("--work-dir")?),
    };
    if cfg.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(cfg)
}

fn first_line_with(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    escape_into(&mut out, s);
    out
}

fn meta_line(cfg: &Config, args: &[String], out: &Outcome) -> String {
    let mut fields = vec![
        ("workload", json_str(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "cpu_model",
            json_str(&first_line_with("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel",
            json_str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
        ("features", json_str(FEATURES)),
        (
            "git_commit",
            json_str(&arg(args, "--git-commit").unwrap_or_else(|| "unknown".to_string())),
        ),
    ];
    let info: Vec<String> = out
        .info
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let info = format!("{{{}}}", info.join(","));
    fields.push(("run", info));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"meta\":{{{}}}}}", body.join(","))
}

/// Renders the result line; `correct` also requires every expected
/// metric, finite.
fn result_line(out: &Outcome, expected: &[&str]) -> (bool, String) {
    let mut metrics = Vec::new();
    let mut complete = true;
    for name in expected {
        match out.metrics.iter().find(|m| m.0 == *name) {
            Some(&(_, value, unit)) if value.is_finite() => {
                metrics.push(format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                ));
            }
            _ => complete = false,
        }
    }
    let correct = complete && out.failed == 0 && out.attempted > 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    (correct, line)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("scorpio-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match cfg.workload.as_str() {
        "serve_dct" => serve::run(&cfg, &serve::dct_plan(&cfg)),
        "serve_mix" => serve::run(&cfg, &serve::mix_plan(&cfg)),
        "offline_jpeg" => offline::run(&cfg),
        other => {
            eprintln!("scorpio-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let expected: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {} seed {} trace {}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    for line in &out.lines {
        println!("{line}");
    }
    for &(name, value, unit) in &out.metrics {
        println!("  {name:<36} {value:>14.6} {unit}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    println!("{}", meta_line(&cfg, &args, &out));
    let (correct, line) = result_line(&out, expected);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_requires_every_metric_and_no_failure() {
        let mut out = Outcome::new();
        out.absorb(3, 0, &[]);
        out.metric("a", 1.25, "ms");
        let (ok, line) = result_line(&out, &["a"]);
        assert!(ok);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.25,"unit":"ms"}}}"#
        );
        assert!(!result_line(&out, &["a", "b"]).0, "missing metric");
        out.metric("nan", f64::NAN, "ms");
        assert!(!result_line(&out, &["a", "nan"]).0, "non-finite metric");
        out.fail_op("wrong reply".to_string());
        assert!(!result_line(&out, &["a"]).0, "failed op");
    }

    #[test]
    fn ledger_sums_only_counted_layers() {
        let mut l = Ledger::new(10.0);
        l.layer("decode", 7.0, true);
        l.layer("service", 2.0, true);
        l.layer("roundtrip", 2.5, false);
        assert!((l.unattributed() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn args_parse_and_reject() {
        let args: Vec<String> = "bin --workload serve_dct --seed 7 --seconds 3 --trace 1 --root . --serve-bin s --work-dir w"
            .split(' ')
            .map(String::from)
            .collect();
        let cfg = parse_args(&args).unwrap();
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3, true));
        let mut bad = args.clone();
        bad[8] = "2".to_string();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&args[..4]).is_err());
    }
}
