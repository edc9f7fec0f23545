//! The two daemon workloads: `serve_dct` and `serve_mix`.
//!
//! Both drive the shipped `scorpio_serve` binary in its own process
//! over one connection, closed loop: the next request is sent only
//! after the previous reply has been decoded, as every caller of the
//! daemon does.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use scorpio_core::audit::SplitMix64;
use scorpio_core::{Analysis, AnalysisArena, LaneScratch, ReplayOrRecord, ReportRecord, TapeCache};
use scorpio_kernels::jpeg;
use scorpio_obs::json::{self, Value};
use scorpio_serve::protocol::{self, AnalyzeResponse, Command, TaskRecord};
use scorpio_serve::{Client, KernelRequest};

use crate::daemon::{Daemon, DAEMON_ARGS};
use crate::ledger::{self, share};
use crate::phase;
use crate::stats;
use crate::{load_asset, procfs, Config, Ledger, Outcome};

/// Deadline of one request, send to decoded reply.
pub const DEADLINE: Duration = Duration::from_secs(5);
/// The taskwait ratio every request asks for.
const RATIO: f64 = 0.5;
/// Capacity of the daemon's tape cache at its default flags.
const CACHE_CAPACITY: usize = 64;

/// Timed `serve_dct` requests per `--seconds` (one block each).
const DCT_REQUESTS_PER_S: f64 = 40.0;
/// Untimed `serve_dct` requests sent after the checks.
const DCT_WARMUP: usize = 20;
/// Blocks whose served reports are checked against a fresh analysis.
const DCT_CHECKS: usize = 4;
/// Timed lines replayed in-process in a traced `serve_dct` run.
const DCT_INPROCESS: usize = 160;

/// Timed `serve_mix` requests per `--seconds`. At `--seconds 20` that
/// is 2,000, so each of the 400 slices of the phase holds one whole
/// cycle of [`MIX_CYCLE`].
const MIX_REQUESTS_PER_S: f64 = 100.0;
/// Untimed `serve_mix` requests that bring the cache to steady state.
const MIX_WARMUP: usize = 400;
/// Items per `serve_mix` request.
const MIX_ITEMS: usize = 16;
/// Distinct fisheye image sizes. With the maclaurin lengths and the two
/// constant-key kernels, 90 keys compete for 64 cache slots.
const MIX_FISHEYE_SHAPES: usize = 80;
/// Distinct maclaurin series lengths. Few and short: a reply grows with
/// the series length, and long replies would let a handful of requests
/// dominate the phase.
const MIX_MACLAURIN_SHAPES: usize = 8;
// More keys than cache slots, or nothing would ever be evicted.
const _: () = assert!(MIX_FISHEYE_SHAPES + MIX_MACLAURIN_SHAPES + 2 > CACHE_CAPACITY);
/// Exponent of the Zipf law that picks a shape's popularity rank.
const MIX_ZIPF: f64 = 1.1;
/// Kernels of `serve_mix`.
const MIX_KERNELS: [&str; 4] = ["blackscholes", "nbody", "fisheye", "maclaurin"];
/// The order `serve_mix` cycles through them, as indices. nbody comes
/// twice: its requests take the middle of the latency range (fisheye and
/// short series below, blackscholes and long series above), so the
/// median falls inside its mode instead of in the gap between two.
const MIX_CYCLE: [usize; 5] = [0, 1, 2, 1, 3];
/// Timed lines replayed in-process in a traced `serve_mix` run.
const MIX_INPROCESS: usize = 1200;

/// One generated request line with what its reply must contain.
#[derive(Debug, Clone)]
pub struct Req {
    /// The wire line.
    pub line: String,
    /// Items in the batch (rows the reply must carry).
    pub items: usize,
    /// Kernel catalogue name.
    pub kernel: &'static str,
    /// Cache shape key.
    pub key: u64,
}

impl Req {
    fn new(line: String) -> Req {
        let request = parse_kernel(&line);
        Req {
            items: request.len(),
            kernel: request.name(),
            key: request.shape_key(),
            line,
        }
    }
}

fn parse_kernel(line: &str) -> KernelRequest {
    let v = json::parse(line).expect("generated line is valid JSON");
    KernelRequest::from_value(&v).expect("generated line is a valid request")
}

/// Everything a serve workload sends, generated before any timing.
#[derive(Debug)]
pub struct Plan {
    /// First request of each warm-up shape, timed as part of set-up.
    pub warm_shapes: Vec<Req>,
    /// Requests whose reports are compared with a fresh analysis.
    pub checks: Vec<Req>,
    /// Untimed traffic between the checks and the timed phase.
    pub warmup: Vec<Req>,
    /// The timed phase.
    pub timed: Vec<Req>,
    /// Lines of the timed phase replayed in-process when traced.
    pub inprocess: usize,
}

fn analyze_line(id: u64, kernel: &str, params: &str, items: &str) -> String {
    format!(
        r#"{{"id":{id},"kernel":"{kernel}","ratio":{RATIO},"detail":"vars"{params},"items":[{items}]}}"#
    )
}

fn dct_line(id: u64, block: &[[f64; 8]; 8]) -> String {
    let pixels: Vec<String> = block.iter().flatten().map(|p| format!("{p}")).collect();
    analyze_line(id, "dct", "", &format!("[{}]", pixels.join(",")))
}

/// Fisher–Yates permutation of `0..n` from `rng`.
fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// `serve_dct`: one 8×8 tile of the checked-in images per request, in
/// seeded order; every timed request is a cache hit on the one DCT
/// shape.
pub fn dct_plan(cfg: &Config) -> Plan {
    let mut blocks = Vec::new();
    for name in ["scene.pgm", "texture.pgm"] {
        blocks.extend(jpeg::tile_blocks(&load_asset(&cfg.root, name)));
    }
    let mut rng = SplitMix64::new(cfg.seed);
    let order = permutation(blocks.len(), &mut rng);
    let n = ((cfg.seconds as f64 * DCT_REQUESTS_PER_S).round() as usize).max(1);
    let mut id = 0u64;
    let mut next = |k: usize| {
        id += 1;
        Req::new(dct_line(id, &blocks[order[k % order.len()]]))
    };
    let warm_shapes = vec![next(0)];
    let checks = (0..DCT_CHECKS)
        .map(|_| next(rng.below(blocks.len())))
        .collect();
    let warmup = (0..DCT_WARMUP).map(&mut next).collect();
    let timed = (0..n).map(&mut next).collect();
    Plan {
        warm_shapes,
        checks,
        warmup,
        timed,
        inprocess: DCT_INPROCESS.min(n),
    }
}

/// Popularity-rank sampler: rank `r` has weight `1 / (r + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Fisheye image size of popularity rank `r`: 10 widths × 8 heights.
fn fisheye_shape(r: usize) -> (usize, usize) {
    (24 + 8 * (r % 10), 24 + 8 * (r / 10))
}

/// Maclaurin series length of popularity rank `r`: a fixed scatter of
/// 4..=11, so popular and rare shapes both span short and long series.
fn maclaurin_shape(r: usize) -> usize {
    4 + (r * 7) % MIX_MACLAURIN_SHAPES
}

fn mix_line(id: u64, kernel: &str, rank: usize, rng: &mut SplitMix64) -> String {
    let mut items = Vec::with_capacity(MIX_ITEMS);
    let params = match kernel {
        "fisheye" => {
            let (w, h) = fisheye_shape(rank);
            for _ in 0..MIX_ITEMS {
                let u = rng.next_f64() * w as f64;
                let v = rng.next_f64() * h as f64;
                items.push(format!(r#"{{"u":{u},"v":{v}}}"#));
            }
            format!(r#","width":{w},"height":{h}"#)
        }
        "maclaurin" => {
            for _ in 0..MIX_ITEMS {
                items.push(format!("{}", rng.next_f64() * 0.9 - 0.45));
            }
            format!(r#","n":{}"#, maclaurin_shape(rank))
        }
        "blackscholes" => {
            for _ in 0..MIX_ITEMS {
                let spot = 80.0 + 40.0 * rng.next_f64();
                let strike = 80.0 + 40.0 * rng.next_f64();
                let rate = 0.01 + 0.04 * rng.next_f64();
                let vol = 0.1 + 0.4 * rng.next_f64();
                let time = 0.25 + 1.75 * rng.next_f64();
                items.push(format!(
                    r#"{{"spot":{spot},"strike":{strike},"rate":{rate},"volatility":{vol},"time":{time}}}"#
                ));
            }
            String::new()
        }
        "nbody" => {
            for _ in 0..MIX_ITEMS {
                let r0 = 0.9 + 1.1 * rng.next_f64();
                let radius = 0.01 + 0.09 * rng.next_f64();
                items.push(format!(r#"{{"r0":{r0},"radius":{radius}}}"#));
            }
            String::new()
        }
        other => unreachable!("kernel {other} is not in the mix"),
    };
    analyze_line(id, kernel, &params, &items.join(","))
}

/// `serve_mix`: blackscholes, nbody, fisheye and maclaurin in turn
/// ([`MIX_CYCLE`]), [`MIX_ITEMS`] items each; fisheye and maclaurin
/// shapes follow Zipf laws over more shapes than the cache holds, so a
/// steady share of requests miss.
pub fn mix_plan(cfg: &Config) -> Plan {
    let mut rng = SplitMix64::new(cfg.seed);
    let fisheye = Zipf::new(MIX_FISHEYE_SHAPES, MIX_ZIPF);
    let maclaurin = Zipf::new(MIX_MACLAURIN_SHAPES, MIX_ZIPF);
    let mut id = 0u64;
    let mut request = |kernel: &'static str, rank: Option<usize>, rng: &mut SplitMix64| {
        id += 1;
        let rank = rank.unwrap_or_else(|| match kernel {
            "fisheye" => fisheye.sample(rng),
            "maclaurin" => maclaurin.sample(rng),
            _ => 0,
        });
        Req::new(mix_line(id, kernel, rank, rng))
    };
    let cycle = |i: usize| MIX_KERNELS[MIX_CYCLE[i % MIX_CYCLE.len()]];
    let warm_shapes: Vec<Req> = MIX_KERNELS
        .iter()
        .map(|&kernel| request(kernel, Some(0), &mut rng))
        .collect();
    let warmup: Vec<Req> = (0..MIX_WARMUP)
        .map(|i| request(cycle(i), None, &mut rng))
        .collect();
    let cycles = (cfg.seconds as f64 * MIX_REQUESTS_PER_S / MIX_CYCLE.len() as f64)
        .round()
        .max(1.0) as usize;
    let timed: Vec<Req> = (0..cycles * MIX_CYCLE.len())
        .map(|i| request(cycle(i), None, &mut rng))
        .collect();
    // Check sample: per kernel, up to three timed requests of distinct
    // shapes, picked in seeded order.
    let mut checks = Vec::new();
    for kernel in MIX_KERNELS {
        let mut keys = Vec::new();
        for i in permutation(timed.len(), &mut rng) {
            let r = &timed[i];
            if r.kernel == kernel && !keys.contains(&r.key) {
                keys.push(r.key);
                checks.push(r.clone());
                if keys.len() == 3 {
                    break;
                }
            }
        }
    }
    Plan {
        warm_shapes,
        checks,
        warmup,
        inprocess: MIX_INPROCESS.min(timed.len()),
        timed,
    }
}

/// What one request cost and returned.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    /// Send to decoded reply, ms.
    latency_ms: f64,
    /// Send to reply line received, ms.
    roundtrip_ms: f64,
    /// `json::parse` of the reply, ms.
    decode_ms: f64,
    /// The reply's `server_ns`, in ms.
    server_ms: f64,
    /// Reply line length.
    reply_bytes: usize,
}

/// Checks a decoded reply: `ok`, and one task row and one report per
/// item.
///
/// # Errors
///
/// What was wrong, for the run log.
pub fn check_reply(reply: &Value, items: usize) -> Result<(), String> {
    if !matches!(reply.get("ok"), Some(Value::Bool(true))) {
        let why = reply
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("no ok flag");
        return Err(format!("error reply: {why}"));
    }
    for field in ["tasks", "reports"] {
        let got = reply
            .get(field)
            .and_then(Value::as_arr)
            .map_or(0, <[Value]>::len);
        if got != items {
            return Err(format!("{field}: {got} rows for {items} items"));
        }
    }
    Ok(())
}

/// Checks that the `reports` array of a raw reply line is byte for
/// byte `expected`, the serialized rows of a fresh analysis.
///
/// # Errors
///
/// Where the bytes first differ.
pub fn check_reports_bytes(raw: &str, expected: &str) -> Result<(), String> {
    const FIELD: &str = "\"reports\":";
    let start = raw.find(FIELD).ok_or("reply has no reports")? + FIELD.len();
    let got = &raw[start..];
    if got.starts_with(expected) && matches!(got.as_bytes().get(expected.len()), Some(b'}' | b','))
    {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!("reports differ from a fresh analysis at byte {at}"))
}

/// The reports a fresh, cache-free analysis gives for `req`, serialized
/// as the daemon serializes `detail: vars` rows (no node graph).
fn expected_reports(req: &Req) -> String {
    let reports = parse_kernel(&req.line)
        .direct_reports()
        .expect("fresh analysis of a valid request");
    let records: Vec<ReportRecord> = reports
        .iter()
        .map(|r| {
            let mut record = r.to_record();
            record.nodes.clear();
            record
        })
        .collect();
    json::to_string(&records)
}

/// A connected daemon plus the run's op accounting.
struct Session {
    daemon: Daemon,
    client: Client,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Session {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Sends one request and checks its reply. `None` when the op
    /// failed (already counted).
    fn send(&mut self, req: &Req) -> Option<(Sample, String)> {
        self.attempted += 1;
        let t0 = Instant::now();
        self.daemon.begin();
        let raw = self.client.request_raw(&req.line);
        let t1 = Instant::now();
        self.daemon.end();
        let raw = match raw {
            Ok(raw) => raw,
            Err(e) => {
                let why = if self.daemon.expired() {
                    "deadline exceeded".to_string()
                } else {
                    e.to_string()
                };
                self.fail(format!("request {}: {why}", req.kernel));
                return None;
            }
        };
        let decoded = json::parse(&raw);
        let t2 = Instant::now();
        let reply = match decoded {
            Ok(v) => v,
            Err(e) => {
                self.fail(format!("undecodable reply: {e}"));
                return None;
            }
        };
        if let Err(why) = check_reply(&reply, req.items) {
            self.fail(why);
            return None;
        }
        if t2 - t0 > DEADLINE {
            self.fail(format!("request {} past its deadline", req.kernel));
            return None;
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let server_ms = reply
            .get("server_ns")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / 1e6;
        Some((
            Sample {
                latency_ms: ms(t2 - t0),
                roundtrip_ms: ms(t1 - t0),
                decode_ms: ms(t2 - t1),
                server_ms,
                reply_bytes: raw.len(),
            },
            raw,
        ))
    }

    /// Sends `reqs` in order; stops at the first transport failure (the
    /// daemon is gone) and counts the rest as failed.
    fn run(&mut self, reqs: &[Req]) -> Vec<Sample> {
        let mut samples = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            match self.send(req) {
                Some((s, _)) => samples.push(s),
                None if self.daemon.expired() || self.client_dead() => {
                    let rest = (reqs.len() - i - 1) as u64;
                    self.attempted += rest;
                    self.failed += rest;
                    break;
                }
                None => {}
            }
        }
        samples
    }

    fn client_dead(&mut self) -> bool {
        self.client.stats().is_err()
    }

    fn stats(&mut self) -> Option<Value> {
        self.client.stats().ok()
    }
}

/// Starts a daemon and sends the first request of each warm-up shape.
fn start(cfg: &Config, plan: &Plan) -> Result<Session, String> {
    let daemon = Daemon::spawn(&cfg.serve_bin, &cfg.work_dir, DEADLINE)
        .map_err(|e| format!("daemon: {e}"))?;
    let client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let mut session = Session {
        daemon,
        client,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for req in &plan.warm_shapes {
        session.send(req);
    }
    Ok(session)
}

/// Stats-verb counters a phase is judged by.
#[derive(Debug, Clone, Copy, Default)]
struct DaemonCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    records: f64,
    replays: f64,
    fallbacks: f64,
}

impl DaemonCounters {
    fn read(stats: &Value) -> DaemonCounters {
        let get = |section: &str, field: &str| {
            stats
                .get(section)
                .and_then(|s| s.get(field))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        DaemonCounters {
            hits: get("cache", "hits"),
            misses: get("cache", "misses"),
            evictions: get("cache", "evictions"),
            records: get("replay", "records"),
            replays: get("replay", "replays"),
            fallbacks: get("replay", "fallbacks"),
        }
    }

    fn since(self, before: DaemonCounters) -> DaemonCounters {
        DaemonCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            records: self.records - before.records,
            replays: self.replays - before.replays,
            fallbacks: self.fallbacks - before.fallbacks,
        }
    }
}

/// Runs a serve workload end to end.
pub fn run(cfg: &Config, plan: &Plan) -> Outcome {
    let mut out = Outcome::new();
    out.info("daemon_flags", DAEMON_ARGS.join(" "));
    out.info("connections", "1 (closed loop)".to_string());
    out.info("deadline_s", format!("{}", DEADLINE.as_secs_f64()));
    out.info("timed_requests", plan.timed.len().to_string());

    let mut s = match start(cfg, plan) {
        Ok(s) => s,
        Err(e) => {
            out.fail_op(e);
            return out;
        }
    };

    // Output checks: served reports must be the bytes of a fresh,
    // cache-free analysis.
    for req in &plan.checks {
        let expected = expected_reports(req);
        if let Some((_, raw)) = s.send(req) {
            if let Err(why) = check_reports_bytes(&raw, &expected) {
                s.fail(format!("{} check: {why}", req.kernel));
            }
        }
    }
    out.info("checked_requests", plan.checks.len().to_string());
    s.run(&plan.warmup);

    if cfg.trace {
        traced(plan, &mut s, &mut out);
    } else {
        untraced(cfg, plan, &mut s, &mut out);
    }
    out.absorb(s.attempted, s.failed, &s.errors);
    let Session {
        daemon, mut client, ..
    } = s;
    if let Err(e) = daemon.shutdown(&mut client) {
        out.fail_op(format!("shutdown: {e}"));
    }
    out
}

/// One set-up repetition: a fresh daemon up to its first warm replies,
/// then shut down. Returns its seconds; failures land in `errors`.
fn setup_rep(cfg: &Config, plan: &Plan, tally: &mut (u64, u64), errors: &mut Vec<String>) -> f64 {
    let t = Instant::now();
    match start(cfg, plan) {
        Ok(mut s) => {
            let secs = t.elapsed().as_secs_f64();
            (tally.0, tally.1) = (tally.0 + s.attempted, tally.1 + s.failed);
            errors.append(&mut s.errors);
            if let Err(e) = s.daemon.shutdown(&mut s.client) {
                (tally.0, tally.1) = (tally.0 + 1, tally.1 + 1);
                errors.push(format!("shutdown: {e}"));
            }
            secs
        }
        Err(e) => {
            (tally.0, tally.1) = (tally.0 + 1, tally.1 + 1);
            errors.push(e);
            t.elapsed().as_secs_f64()
        }
    }
}

fn untraced(cfg: &Config, plan: &Plan, s: &mut Session, out: &mut Outcome) {
    let pid = s.daemon.pid;
    let before = s
        .stats()
        .map(|v| DaemonCounters::read(&v))
        .unwrap_or_default();
    let (mut setups, mut tally, mut setup_errors) = (Vec::new(), (0, 0), Vec::new());
    let ops = phase::run(
        plan.timed.len(),
        |i| plan.timed[i].items,
        || procfs::task_cpu_ns(pid),
        |i| s.send(&plan.timed[i]).map(|(x, _)| x.latency_ms),
        || setups.push(setup_rep(cfg, plan, &mut tally, &mut setup_errors)),
    );
    out.absorb(tally.0, tally.1, &setup_errors);
    let rss = procfs::peak_rss_mib(&Path::new("/proc").join(pid.to_string()).join("status"));
    let after = s
        .stats()
        .map(|v| DaemonCounters::read(&v))
        .unwrap_or_default();
    let delta = after.since(before);
    out.info(
        "timed_miss_share",
        format!("{:.4}", delta.misses / (delta.hits + delta.misses).max(1.0)),
    );
    out.info("timed_cache_misses", format!("{}", delta.misses));
    match (ops, rss) {
        (Ok(ops), Ok(rss)) => out.end_to_end(&ops, &setups, rss),
        (Err(e), _) | (_, Err(e)) => out.fail_op(format!("reading /proc: {e}")),
    }
}

/// In-process replay timings of one line, ms.
#[derive(Debug, Default, Clone, Copy)]
struct InProcess {
    parse: f64,
    lookup: f64,
    run_vars: f64,
    to_record: f64,
    serialize: f64,
    items: usize,
    tape_nodes: usize,
}

/// Replays request lines in this process through the daemon's own
/// stages — parse, cache lookup, analysis, reply encoding — with a
/// cache of the daemon's default capacity.
struct Replayer {
    cache: TapeCache,
    replays: HashMap<&'static str, ReplayOrRecord>,
    arena: AnalysisArena,
    lanes: LaneScratch<{ scorpio_core::DEFAULT_LANES }>,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            cache: TapeCache::new(CACHE_CAPACITY),
            replays: HashMap::new(),
            arena: AnalysisArena::new(),
            lanes: LaneScratch::new(),
        }
    }

    fn replay(&mut self, line: &str) -> Result<InProcess, String> {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let request = protocol::parse_request(line).map_err(|e| e.message)?;
        let parse = ms(t);
        let Command::Analyze(analyze) = request.cmd else {
            return Err("not an analyze line".to_string());
        };
        let kernel = analyze.kernel.name();
        let key = analyze.kernel.shape_key();
        let replay = self
            .replays
            .entry(kernel)
            .or_insert_with(|| ReplayOrRecord::new(Analysis::new()));
        let t = Instant::now();
        let cached = self.cache.get(kernel, key);
        let lookup = ms(t);
        match &cached {
            Some(trace) => replay.install(trace),
            None => replay.clear_compiled(),
        }
        let t = Instant::now();
        let vars = analyze
            .kernel
            .run_vars(replay, &mut self.arena, &mut self.lanes)
            .map_err(|e| e.to_string())?;
        let run_vars = ms(t);
        if cached.is_none() {
            if let Some(trace) = replay.share().filter(|t| t.shape_key() == Some(key)) {
                self.cache.insert(kernel, key, trace);
            }
        }
        let t = Instant::now();
        let reports: Vec<ReportRecord> = vars.iter().map(protocol::vars_to_record).collect();
        let to_record = ms(t);
        let tasks = vars
            .iter()
            .enumerate()
            .map(|(i, v)| TaskRecord {
                task_id: i as u64,
                significance: v.output_significance_raw(),
                class: "accurate".to_string(),
            })
            .collect();
        let t = Instant::now();
        let reply = protocol::response_line(&AnalyzeResponse {
            id: request.id,
            ok: true,
            trace_id: protocol::trace_id_hex(request.trace_id),
            kernel,
            cached: cached.is_some(),
            server_ns: 0,
            tasks,
            reports,
        });
        let serialize = ms(t);
        std::hint::black_box(reply);
        Ok(InProcess {
            parse,
            lookup,
            run_vars,
            to_record,
            serialize,
            items: vars.len(),
            tape_nodes: vars.iter().map(|v| v.tape_len()).sum(),
        })
    }
}

fn traced(plan: &Plan, s: &mut Session, out: &mut Outcome) {
    // The daemon never traces (its flags are the defaults): its side of
    // the ledger is the client's timers, `server_ns` and the stats verb.
    let before = s
        .stats()
        .map(|v| DaemonCounters::read(&v))
        .unwrap_or_default();
    let samples = s.run(&plan.timed);
    let after = s
        .stats()
        .map(|v| DaemonCounters::read(&v))
        .unwrap_or_default();
    let delta = after.since(before);

    // In-process replay of the same traffic through two replayers fed
    // the same lines, one with tracing off and one with tracing and
    // detail spans on, taking turns line by line (and which goes first)
    // so both see the same host. Their time ratio is the tracing
    // overhead; the traced one's stage timings and spans make the
    // ledger. Everything the daemon saw before the timed phase warms
    // both caches (the traced one's record and compile spans are kept).
    let (mut plain, mut traced) = (Replayer::new(), Replayer::new());
    scorpio_obs::enable_detail();
    scorpio_obs::reset();
    let warm_lines = plan
        .warm_shapes
        .iter()
        .chain(&plan.checks)
        .chain(&plan.warmup);
    let measured = &plan.timed[..plan.inprocess];
    let mut stages = Vec::with_capacity(measured.len());
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let mut warm_spans = None;
    for (i, req) in warm_lines.chain(measured).enumerate() {
        let timed = i >= plan.warm_shapes.len() + plan.checks.len() + plan.warmup.len();
        if timed && warm_spans.is_none() {
            warm_spans = Some(ledger::self_times(&scorpio_obs::take_events()));
        }
        let mut turn = |on: bool| {
            let replayer = if on { &mut traced } else { &mut plain };
            if on {
                scorpio_obs::enable();
            }
            let t = Instant::now();
            let r = replayer.replay(&req.line);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            scorpio_obs::disable();
            r.map(|stage| (stage, ms))
        };
        let order = [i % 2 == 0, i % 2 == 1];
        for on in order {
            match turn(on) {
                Ok((stage, ms)) if timed && on => {
                    traced_ms += ms;
                    stages.push(stage);
                }
                Ok((_, ms)) if timed => plain_ms += ms,
                Ok(_) => {}
                Err(e) => {
                    out.fail_op(format!("in-process replay: {e}"));
                    return;
                }
            }
        }
    }
    let spans = ledger::self_times(&scorpio_obs::take_events());
    let warm_spans = warm_spans.unwrap_or_default();

    if samples.is_empty() || stages.is_empty() {
        out.fail_op("traced run produced no samples".to_string());
        return;
    }
    let mean = |f: fn(&Sample) -> f64| stats::mean(&samples.iter().map(f).collect::<Vec<_>>());
    let e2e = mean(|x| x.latency_ms);
    let roundtrip = mean(|x| x.roundtrip_ms);
    let decode = mean(|x| x.decode_ms);
    let service = mean(|x| x.server_ms);
    let reply_bytes = mean(|x| x.reply_bytes as f64);
    let decode_mib_s = reply_bytes / (1024.0 * 1024.0) / (decode / 1e3);
    let stage = |f: fn(&InProcess) -> f64| stats::mean(&stages.iter().map(f).collect::<Vec<_>>());
    let parse = stage(|x| x.parse);
    let lookup = stage(|x| x.lookup);
    let run_vars = stage(|x| x.run_vars);
    let to_record = stage(|x| x.to_record);
    let serialize = stage(|x| x.serialize);
    let items: usize = stages.iter().map(|x| x.items).sum();
    let tape_nodes = stages.iter().map(|x| x.tape_nodes).sum::<usize>() as f64 / items as f64;

    let mut l = Ledger::new(e2e);
    // The reply's server_ns covers analysis and row conversion; parse,
    // lookup and serialization run outside it, so the in-process
    // figures for those three complete the server's share.
    l.layer("obs.json.decode_ms", decode, true);
    l.layer("serve.server.service_ms", service, true);
    l.layer("serve.protocol.parse_request_ms", parse, true);
    l.layer("core.cache.lookup_ms", lookup, true);
    l.layer("serve.protocol.serialize_ms", serialize, true);
    l.layer("serve.client.roundtrip_ms", roundtrip, false);
    l.layer("serve.server.overhead_ms", roundtrip - service, false);
    l.layer("serve.kernels.run_vars_ms", run_vars, false);
    l.layer(
        "serve.protocol.encode_reply_ms",
        to_record + serialize,
        false,
    );
    out.print_ledger(&l);
    out.info("inprocess_lines", stages.len().to_string());
    out.info("daemon_requests", samples.len().to_string());
    out.info(
        "serve.protocol.parse_request_us",
        format!("{}", parse * 1e3),
    );
    out.info("core.cache.lookup_us", format!("{}", lookup * 1e3));

    out.metric("ledger.e2e_mean_ms", e2e, "ms");
    out.metric("ledger.unattributed_frac", l.unattributed(), "frac");
    out.metric(
        "trace.overhead_frac",
        ledger::overhead_frac(traced_ms, plain_ms),
        "frac",
    );
    out.metric(
        "serve.client.roundtrip_share",
        share(roundtrip, e2e),
        "frac",
    );
    out.metric("obs.json.decode_share", share(decode, e2e), "frac");
    out.metric("obs.json.decode_mib_s", decode_mib_s, "MiB/s");
    out.metric("serve.reply_kib", reply_bytes / 1024.0, "KiB");
    out.metric("serve.server.service_share", share(service, e2e), "frac");
    out.metric(
        "serve.server.overhead_share",
        share(roundtrip - service, e2e),
        "frac",
    );
    out.metric(
        "serve.protocol.parse_request_share",
        share(parse, e2e),
        "frac",
    );
    out.metric("core.cache.lookup_share", share(lookup, e2e), "frac");
    out.metric("serve.kernels.run_vars_share", share(run_vars, e2e), "frac");
    out.metric(
        "serve.protocol.encode_reply_share",
        share(to_record + serialize, e2e),
        "frac",
    );
    out.metric("kernels.jpeg.analyze_share", 0.0, "frac");
    out.metric("kernels.jpeg.encode_share", 0.0, "frac");
    out.metric("kernels.jpeg.decode_share", 0.0, "frac");
    out.metric("runtime.taskwait_share", 0.0, "frac");
    let lookups = delta.hits + delta.misses;
    out.metric(
        "core.cache.hit_rate",
        if lookups > 0.0 {
            delta.hits / lookups
        } else {
            0.0
        },
        "frac",
    );
    out.metric("core.cache.misses", delta.misses, "count");
    out.metric("core.cache.evictions", delta.evictions, "count");
    out.metric("core.replay.records", delta.records, "count");
    let runs = delta.records + delta.replays;
    out.metric(
        "core.replay.fallback_rate",
        if runs > 0.0 {
            delta.fallbacks / runs
        } else {
            0.0
        },
        "frac",
    );
    crate::analysis_metrics(out, &warm_spans, &spans, items, tape_nodes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_replies_are_rejected() {
        let good = r#"{"id":1,"ok":true,"tasks":[{},{}],"reports":[{"a":1},{"a":2}]}"#;
        assert!(check_reply(&json::parse(good).unwrap(), 2).is_ok());
        let error = r#"{"id":1,"ok":false,"error":"analysis failed: boom"}"#;
        assert!(check_reply(&json::parse(error).unwrap(), 2)
            .unwrap_err()
            .contains("boom"));
        let short = r#"{"id":1,"ok":true,"tasks":[{},{}],"reports":[{"a":1}]}"#;
        assert!(check_reply(&json::parse(short).unwrap(), 2)
            .unwrap_err()
            .contains("reports"));
        assert!(check_reply(&json::parse(good).unwrap(), 3).is_err());

        let expected = r#"[{"a":1},{"a":2}]"#;
        assert!(check_reports_bytes(good, expected).is_ok());
        let one_bit_off = r#"{"id":1,"ok":true,"tasks":[{},{}],"reports":[{"a":1},{"a":3}]}"#;
        assert!(check_reports_bytes(one_bit_off, expected)
            .unwrap_err()
            .contains("byte 14"));
        let longer = r#"{"id":1,"ok":true,"reports":[{"a":1},{"a":2},{"a":4}]}"#;
        assert!(check_reports_bytes(longer, expected).is_err());
        assert!(check_reports_bytes(r#"{"ok":true}"#, expected).is_err());
    }

    #[test]
    fn served_rows_of_a_fresh_analysis_pass_the_byte_check() {
        // A reply assembled the way the daemon does, from the replay
        // path, against the fresh-analysis expectation.
        let req = Req::new(mix_line(1, "maclaurin", 3, &mut SplitMix64::new(9)));
        let mut replayer = Replayer::new();
        replayer.replay(&req.line).unwrap();
        let request = parse_kernel(&req.line);
        let mut replay = ReplayOrRecord::new(Analysis::new());
        let vars = request
            .run_vars(
                &mut replay,
                &mut AnalysisArena::new(),
                &mut LaneScratch::new(),
            )
            .unwrap();
        let rows: Vec<ReportRecord> = vars.iter().map(protocol::vars_to_record).collect();
        let raw = format!(
            r#"{{"id":1,"ok":true,"reports":{}}}"#,
            json::to_string(&rows)
        );
        check_reports_bytes(&raw, &expected_reports(&req)).unwrap();
    }

    #[test]
    fn plans_are_seeded_and_valid() {
        let zipf = Zipf::new(MIX_FISHEYE_SHAPES, MIX_ZIPF);
        let mut rng = SplitMix64::new(3);
        let draws: Vec<usize> = (0..2000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < MIX_FISHEYE_SHAPES));
        let top = draws.iter().filter(|&&r| r == 0).count();
        assert!(top > 250 && top < 600, "rank 0 drawn {top} times");
        let mut shapes: Vec<(usize, usize)> = (0..MIX_FISHEYE_SHAPES).map(fisheye_shape).collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert_eq!(shapes.len(), MIX_FISHEYE_SHAPES);
        let mut ns: Vec<usize> = (0..MIX_MACLAURIN_SHAPES).map(maclaurin_shape).collect();
        ns.sort_unstable();
        assert_eq!(ns, (4..4 + MIX_MACLAURIN_SHAPES).collect::<Vec<_>>());
        let a = mix_line(5, "fisheye", 7, &mut SplitMix64::new(11));
        let b = mix_line(5, "fisheye", 7, &mut SplitMix64::new(11));
        assert_eq!(a, b);
        for kernel in MIX_KERNELS {
            let req = Req::new(mix_line(1, kernel, 2, &mut SplitMix64::new(1)));
            assert_eq!((req.kernel, req.items), (kernel, MIX_ITEMS));
        }
        let p = permutation(50, &mut SplitMix64::new(2));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
