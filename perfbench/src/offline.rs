//! The offline workload, `offline_jpeg`: the approximate JPEG codec
//! in this process, no daemon and no JSON.

use std::path::Path;
use std::time::Instant;

use scorpio_core::audit::SplitMix64;
use scorpio_core::ParallelAnalysis;
use scorpio_kernels::{dct, jpeg};
use scorpio_quality::GrayImage;
use scorpio_runtime::Executor;

use crate::ledger::{self, share};
use crate::phase;
use crate::stats;
use crate::{load_asset, procfs, Config, Ledger, Outcome};

/// Taskwait ratio of every encode.
const RATIO: f64 = 0.5;
/// Analysis and task threads, fixed rather than read from the machine.
const THREADS: usize = 2;
/// Timed images per `--seconds`.
const IMAGES_PER_S: f64 = 9.0;

fn options() -> jpeg::EncodeOptions {
    jpeg::EncodeOptions {
        ratio: RATIO,
        threads: THREADS,
        ..jpeg::EncodeOptions::default()
    }
}

/// Width and height every timed image is cut to: the largest 8-aligned
/// window both assets hold (scene 80×56, texture 64×64). Equal sizes
/// give every op the same number of blocks, so the latency distribution
/// has one mode instead of one per asset.
const CROP: (usize, usize) = (64, 56);

/// A `CROP` window of `img` at (`x0`, `y0`), mirrored left-right and/or
/// top-bottom: same size and content statistics, different blocks.
fn variant(img: &GrayImage, x0: usize, y0: usize, flip_x: bool, flip_y: bool) -> GrayImage {
    let (w, h) = CROP;
    GrayImage::from_fn(w, h, |x, y| {
        let (x, y) = (
            if flip_x { w - 1 - x } else { x },
            if flip_y { h - 1 - y } else { y },
        );
        img.get(x0 + x, y0 + y)
    })
}

/// The timed sequence: the two checked-in images in turn, each pass
/// one of four seeded variants (window offset and mirroring) of the
/// asset. Returns the distinct inputs and the sequence as indices into
/// them.
fn inputs(cfg: &Config) -> (Vec<GrayImage>, Vec<usize>) {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut images = Vec::new();
    for name in ["scene.pgm", "texture.pgm"] {
        let asset = load_asset(&cfg.root, name);
        let room = |size: usize, crop: usize| (size - crop) / dct::BLOCK + 1;
        for m in 0..4 {
            let x0 = dct::BLOCK * rng.below(room(asset.width(), CROP.0));
            let y0 = dct::BLOCK * rng.below(room(asset.height(), CROP.1));
            images.push(variant(&asset, x0, y0, m & 1 == 1, m & 2 == 2));
        }
    }
    let n = ((cfg.seconds as f64 * IMAGES_PER_S).round() as usize).max(2);
    let sequence = (0..n).map(|i| 4 * (i % 2) + rng.below(4)).collect();
    (images, sequence)
}

fn blocks_of(img: &GrayImage) -> usize {
    img.width().div_ceil(dct::BLOCK) * img.height().div_ceil(dct::BLOCK)
}

/// Encodes and decodes one image, checking the decode's size and that
/// the bytes equal any earlier encode of the same input. Returns the
/// decode's milliseconds.
fn code(
    img: &GrayImage,
    seen: &mut Option<Vec<u8>>,
    encode: impl FnOnce(&GrayImage) -> Result<Vec<u8>, String>,
) -> Result<f64, String> {
    let bytes = encode(img)?;
    let t = Instant::now();
    let back = jpeg::decode(&bytes).map_err(|e| e.to_string())?;
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;
    if (back.width(), back.height()) != (img.width(), img.height()) {
        return Err(format!(
            "decoded {}x{} from a {}x{} image",
            back.width(),
            back.height(),
            img.width(),
            img.height()
        ));
    }
    match seen {
        Some(first) if *first != bytes => Err("encoded bytes differ between passes".to_string()),
        Some(_) => Ok(decode_ms),
        None => {
            *seen = Some(bytes);
            Ok(decode_ms)
        }
    }
}

fn plain_encode(img: &GrayImage) -> Result<Vec<u8>, String> {
    jpeg::encode(img, &options())
        .map(|e| e.bytes)
        .map_err(|e| e.to_string())
}

/// Runs `offline_jpeg`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    out.info("threads", THREADS.to_string());
    out.info("ratio", RATIO.to_string());
    let (images, sequence) = inputs(cfg);
    let mut seen: Vec<Option<Vec<u8>>> = vec![None; images.len()];
    out.info("timed_images", sequence.len().to_string());

    let mut attempted = 0u64;
    let mut errors = Vec::new();
    if cfg.trace {
        traced(
            &images,
            &sequence,
            &mut seen,
            &mut out,
            &mut attempted,
            &mut errors,
        );
    } else {
        let (mut setups, mut setup_errors) = (Vec::new(), Vec::new());
        let ops = phase::run(
            sequence.len(),
            |i| blocks_of(&images[sequence[i]]),
            || Ok(procfs::self_cpu_ns()),
            |i| {
                attempted += 1;
                let img = sequence[i];
                let t = Instant::now();
                let r = code(&images[img], &mut seen[img], plain_encode);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                r.map_err(|e| errors.push(e)).ok().map(|_| ms)
            },
            || {
                // One set-up repetition: asset load plus the first encode.
                let t = Instant::now();
                let encoded = plain_encode(&load_asset(&cfg.root, "scene.pgm"));
                setups.push(t.elapsed().as_secs_f64());
                if let Err(e) = encoded {
                    setup_errors.push(format!("set-up encode: {e}"));
                }
            },
        );
        attempted += setups.len() as u64;
        errors.append(&mut setup_errors);
        let rss = procfs::peak_rss_mib(Path::new("/proc/self/status"));
        match (ops, rss) {
            (Ok(ops), Ok(rss)) => out.end_to_end(&ops, &setups, rss),
            (Err(e), _) | (_, Err(e)) => errors.push(format!("reading /proc: {e}")),
        }
    }

    // Output check, after the peak-memory read so it cannot raise it:
    // the replayed per-block maps must equal a fresh recording per
    // block, bit for bit.
    let engine = ParallelAnalysis::new(THREADS);
    for &img in &[&images[0], &images[4]] {
        attempted += 1;
        if let Err(e) = check_maps(img, &engine) {
            errors.push(e);
        }
    }
    out.info(
        "checked_blocks",
        (blocks_of(&images[0]) + blocks_of(&images[4])).to_string(),
    );
    let failed = errors.len() as u64;
    out.absorb(attempted, failed, &errors);
    out
}

/// Compares `dct::analysis_blocks` with a fresh `dct::analysis` of
/// every block of `img`.
fn check_maps(img: &GrayImage, engine: &ParallelAnalysis) -> Result<(), String> {
    let radius = jpeg::EncodeOptions::default().radius;
    let blocks = jpeg::tile_blocks(img);
    let maps = dct::analysis_blocks(&blocks, radius, engine).map_err(|e| e.to_string())?;
    for (i, (block, map)) in blocks.iter().zip(&maps).enumerate() {
        let fresh = dct::analysis(block, radius).map_err(|e| e.to_string())?;
        let expected = dct::coefficient_map(&fresh);
        let same = map
            .iter()
            .flatten()
            .zip(expected.iter().flatten())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "block {i}: replayed significance map differs from a fresh analysis"
            ));
        }
    }
    Ok(())
}

fn traced(
    images: &[GrayImage],
    sequence: &[usize],
    seen: &mut [Option<Vec<u8>>],
    out: &mut Outcome,
    attempted: &mut u64,
    errors: &mut Vec<String>,
) {
    // Images take turns: even ones run untraced (the reference for
    // `trace.overhead_frac`), odd ones traced and timed stage by stage,
    // so both halves see the same host.
    scorpio_obs::enable_detail();
    scorpio_obs::reset();
    let radius = options().radius;
    let (mut untraced, mut analyze, mut encode, mut decode, mut e2e) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut items, mut traced_images) = (0, 0);
    for (j, &i) in sequence.iter().enumerate() {
        *attempted += 1;
        if j % 2 == 0 {
            let t = Instant::now();
            let r = code(&images[i], &mut seen[i], plain_encode);
            untraced.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = r {
                errors.push(e);
            }
            continue;
        }
        scorpio_obs::enable();
        traced_images += 1;
        items += blocks_of(&images[i]);
        let t = Instant::now();
        let r = code(&images[i], &mut seen[i], |img| {
            let t = Instant::now();
            let engine = ParallelAnalysis::new(THREADS);
            let significance = jpeg::analyze(img, radius, &engine).map_err(|e| e.to_string())?;
            analyze.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let encoded =
                jpeg::encode_with_significance(img, &Executor::new(THREADS), &significance, RATIO);
            encode.push(t.elapsed().as_secs_f64() * 1e3);
            Ok(encoded.bytes)
        });
        e2e.push(t.elapsed().as_secs_f64() * 1e3);
        scorpio_obs::disable();
        match r {
            Ok(ms) => decode.push(ms),
            Err(e) => errors.push(e),
        }
    }
    let spans = ledger::self_times(&scorpio_obs::take_events());
    let counter = |name: &str| scorpio_obs::registry().counter(name).get() as f64;
    let records = counter("replay.records");
    let replays = counter("replay.replays");
    let fallbacks: f64 = scorpio_obs::registry()
        .counters()
        .iter()
        .filter(|c| c.name().starts_with("replay.fallback."))
        .fold(0.0, |acc, c| acc + c.get() as f64);
    if e2e.is_empty() || untraced.is_empty() {
        errors.push("traced run produced no samples".to_string());
        return;
    }

    let e2e_mean = stats::mean(&e2e);
    let analyze = stats::mean(&analyze);
    let encode = stats::mean(&encode);
    let decode = stats::mean(&decode);
    let taskwait = ledger::self_ms(&spans, &["taskwait"]) / traced_images as f64;
    let mut l = Ledger::new(e2e_mean);
    l.layer("kernels.jpeg.analyze_ms", analyze, true);
    l.layer("kernels.jpeg.encode_ms", encode, true);
    l.layer("kernels.jpeg.decode_ms", decode, true);
    l.layer("runtime.taskwait_ms", taskwait, false);
    out.print_ledger(&l);
    out.info("traced_images", traced_images.to_string());
    out.info("reference_images", untraced.len().to_string());

    out.metric("ledger.e2e_mean_ms", e2e_mean, "ms");
    out.metric("ledger.unattributed_frac", l.unattributed(), "frac");
    out.metric(
        "trace.overhead_frac",
        ledger::overhead_frac(e2e_mean, stats::mean(&untraced)),
        "frac",
    );
    out.metric("serve.client.roundtrip_share", 0.0, "frac");
    out.metric("obs.json.decode_share", 0.0, "frac");
    out.metric("obs.json.decode_mib_s", 0.0, "MiB/s");
    out.metric("serve.reply_kib", 0.0, "KiB");
    out.metric("serve.server.service_share", 0.0, "frac");
    out.metric("serve.server.overhead_share", 0.0, "frac");
    out.metric("serve.protocol.parse_request_share", 0.0, "frac");
    out.metric("core.cache.lookup_share", 0.0, "frac");
    out.metric("serve.kernels.run_vars_share", 0.0, "frac");
    out.metric("serve.protocol.encode_reply_share", 0.0, "frac");
    out.metric(
        "kernels.jpeg.analyze_share",
        share(analyze, e2e_mean),
        "frac",
    );
    out.metric("kernels.jpeg.encode_share", share(encode, e2e_mean), "frac");
    out.metric("kernels.jpeg.decode_share", share(decode, e2e_mean), "frac");
    out.metric("runtime.taskwait_share", share(taskwait, e2e_mean), "frac");
    out.metric("core.cache.hit_rate", 0.0, "frac");
    out.metric("core.cache.misses", 0.0, "count");
    out.metric("core.cache.evictions", 0.0, "count");
    out.metric("core.replay.records", records, "count");
    let runs = records + replays;
    out.metric(
        "core.replay.fallback_rate",
        if runs > 0.0 { fallbacks / runs } else { 0.0 },
        "frac",
    );
    let tape_nodes =
        dct::analysis(&jpeg::tile_blocks(&images[0])[0], radius).map_or(0, |r| r.tape_len());
    crate::analysis_metrics(out, &Default::default(), &spans, items, tape_nodes as f64);
}
