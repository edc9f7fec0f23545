//! The timed phase: a fixed list of ops, each timed and charged its CPU
//! time and the hypervisor's steal, grouped into slices, with the
//! end-to-end figures taken from the stretches the host left alone.
//!
//! On a shared virtual machine the hypervisor periodically runs other
//! tenants on this machine's CPUs ("steal", counted in `/proc/stat`).
//! While it does, every wake-up and every parallel join waits, and a
//! closed loop slows by far more than the stolen share: one serve run
//! went from 1,777 to 619 items/s between slices with 6% and 27% steal.
//! Steal comes in bursts of a fraction of a second, so the phase is cut
//! into many short slices and the figures are measured over the
//! least-stolen fifth of them: rates and latencies the program reached
//! while the host took (almost) nothing. Every op of every slice is
//! still run and checked.

use std::io;
use std::time::Instant;

use crate::procfs;
use crate::stats::{self, Latency};

/// Set-up repetitions per timed phase, one before each of this many
/// equal groups of ops.
pub const SETUP_REPS: usize = 20;
/// Set-up repetitions whose median is reported: those before the
/// least-stolen half of the groups (more when groups tie).
pub const SETUP_KEEP: usize = SETUP_REPS / 2;
/// Slices the figures are chosen from (one per op in shorter phases).
pub const SLICES: usize = 400;
/// The figures come from `1 / KEEP_DIV` of the slices, the least-stolen
/// (more when slices tie).
pub const KEEP_DIV: usize = 5;

/// One timed op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    /// Items the op completed.
    pub items: usize,
    /// Wall seconds.
    pub secs: f64,
    /// CPU nanoseconds of the analysing process.
    pub cpu_ns: u64,
    /// Clock ticks the hypervisor stole meanwhile.
    pub steal_ticks: u64,
    /// All clock ticks meanwhile.
    pub ticks: u64,
    /// The op's latency, ms; `None` when it failed.
    pub latency_ms: Option<f64>,
}

/// `stolen / all` ticks, 0 when no tick passed.
pub fn steal_share((stolen, all): (u64, u64)) -> f64 {
    stolen as f64 / all.max(1) as f64
}

/// Runs ops `0..n` in order. `items(i)` is op `i`'s item count,
/// `op(i)` runs it and returns its latency (`None` when it failed),
/// `cpu()` reads the analysing process's CPU nanoseconds, and
/// `before_group()` runs before the first op of each of the
/// [`SETUP_REPS`] groups (the set-up repetitions, which thereby sample
/// the same stretches of host steal as the ops). CPU time and steal are
/// read between consecutive ops, so work the daemon finishes after a
/// reply is charged to the next op, not lost; `before_group` is charged
/// to none.
///
/// # Errors
///
/// A failed CPU or steal read.
pub fn run(
    n: usize,
    items: impl Fn(usize) -> usize,
    mut cpu: impl FnMut() -> io::Result<u64>,
    mut op: impl FnMut(usize) -> Option<f64>,
    mut before_group: impl FnMut(),
) -> io::Result<Vec<Op>> {
    let starts: Vec<usize> = stats::slices(n, SETUP_REPS).iter().map(|s| s.0).collect();
    let mut ops = Vec::with_capacity(n);
    let (mut last_cpu, mut last_ticks) = (0, (0, 0));
    for i in 0..n {
        if starts.contains(&i) {
            before_group();
            (last_cpu, last_ticks) = (cpu()?, procfs::steal_ticks()?);
        }
        let t = Instant::now();
        let latency_ms = op(i);
        let secs = t.elapsed().as_secs_f64();
        let (now_cpu, now_ticks) = (cpu()?, procfs::steal_ticks()?);
        ops.push(Op {
            items: items(i),
            secs,
            cpu_ns: now_cpu - last_cpu,
            steal_ticks: now_ticks.0 - last_ticks.0,
            ticks: now_ticks.1 - last_ticks.1,
            latency_ms,
        });
        (last_cpu, last_ticks) = (now_cpu, now_ticks);
    }
    Ok(ops)
}

/// The indices of the `keep` least-stolen of `slices`, and of every
/// other slice with no more steal than the last of them: on a quiet
/// host many slices have none, and all of those are kept.
fn least_stolen(slices: &[Slice], keep: usize) -> Vec<usize> {
    let shares: Vec<f64> = slices.iter().map(|s| steal_share(s.ticks)).collect();
    let mut sorted = shares.clone();
    sorted.sort_by(f64::total_cmp);
    let Some(&limit) = sorted.get(keep.min(sorted.len()).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..shares.len()).filter(|&i| shares[i] <= limit).collect()
}

/// Median of the set-up repetitions (one per group, in group order)
/// that ran just before the [`SETUP_KEEP`] least-stolen groups.
pub fn setup_seconds(reps: &[f64], ops: &[Op]) -> Option<f64> {
    let groups = slices(ops, SETUP_REPS);
    let kept = least_stolen(&groups[..groups.len().min(reps.len())], SETUP_KEEP);
    (!kept.is_empty()).then(|| stats::median(&kept.iter().map(|&i| reps[i]).collect::<Vec<_>>()))
}

/// Totals of a run of consecutive ops.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// First op and one past the last.
    pub bounds: (usize, usize),
    /// Items per wall second.
    pub rate: f64,
    /// CPU ms per item.
    pub cpu_ms_per_item: f64,
    /// Stolen and all clock ticks.
    pub ticks: (u64, u64),
}

/// Groups ops into (at most) `k` consecutive slices.
pub fn slices(ops: &[Op], k: usize) -> Vec<Slice> {
    stats::slices(ops.len(), k)
        .into_iter()
        .map(|(a, b)| {
            let part = &ops[a..b];
            let items = part.iter().map(|o| o.items).sum::<usize>() as f64;
            Slice {
                bounds: (a, b),
                rate: items / part.iter().map(|o| o.secs).sum::<f64>(),
                cpu_ms_per_item: part.iter().map(|o| o.cpu_ns).sum::<u64>() as f64 / 1e6 / items,
                ticks: part
                    .iter()
                    .fold((0, 0), |t, o| (t.0 + o.steal_ticks, t.1 + o.ticks)),
            }
        })
        .collect()
}

/// End-to-end figures of a phase, from the kept slices.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Median of the slices' items per wall second.
    pub throughput: f64,
    /// Median of the slices' CPU ms per item.
    pub cpu_ms_per_item: f64,
    /// Latency of every succeeded op of the slices.
    pub latency: Latency,
    /// Steal share of the kept slices.
    pub steal_kept: f64,
    /// Steal share of all slices.
    pub steal_all: f64,
    /// Slices kept, and slices in all.
    pub kept: (usize, usize),
    /// Ops kept.
    pub ops_kept: usize,
}

/// Figures from the least-stolen `1 / KEEP_DIV` of the (at most)
/// [`SLICES`] slices, and every slice tied with them. `None` when no
/// kept op succeeded.
pub fn figures(ops: &[Op]) -> Option<Figures> {
    let total = |set: &[Slice]| {
        steal_share(
            set.iter()
                .fold((0, 0), |t, s| (t.0 + s.ticks.0, t.1 + s.ticks.1)),
        )
    };
    let every = slices(ops, SLICES);
    let steal_all = total(&every);
    let order: Vec<Slice> = least_stolen(&every, every.len().div_ceil(KEEP_DIV))
        .into_iter()
        .map(|i| every[i])
        .collect();
    let kept: Vec<&Op> = order
        .iter()
        .flat_map(|s| &ops[s.bounds.0..s.bounds.1])
        .collect();
    let latencies: Vec<f64> = kept.iter().filter_map(|o| o.latency_ms).collect();
    if latencies.is_empty() {
        return None;
    }
    // The tail percentile follows from the fewest ops the kept slices can
    // hold, not from how many were kept, so it does not switch between
    // runs that were stolen from more or less.
    let fewest = every.len().div_ceil(KEEP_DIV) * (ops.len() / every.len());
    let median = |f: fn(&Slice) -> f64| stats::median(&order.iter().map(f).collect::<Vec<_>>());
    Some(Figures {
        throughput: median(|s| s.rate),
        cpu_ms_per_item: median(|s| s.cpu_ms_per_item),
        latency: Latency::of(&latencies, stats::tail_percentile(fewest)),
        steal_kept: total(&order),
        steal_all,
        kept: (order.len(), every.len()),
        ops_kept: kept.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(secs: f64, stolen: u64) -> Op {
        Op {
            items: 2,
            secs,
            cpu_ns: 4_000_000,
            steal_ticks: stolen,
            ticks: 100,
            latency_ms: Some(secs * 1e3),
        }
    }

    #[test]
    fn figures_come_from_the_least_stolen_slices() {
        // 2000 ops, five per slice: the first 1600 are stolen from and
        // twice as slow.
        let ops: Vec<Op> = (0..2000)
            .map(|i| if i < 1600 { op(0.2, 30) } else { op(0.1, 0) })
            .collect();
        let f = figures(&ops).unwrap();
        assert_eq!((f.kept, f.ops_kept), ((80, 400), 400));
        assert!((f.throughput - 20.0).abs() < 1e-9);
        assert_eq!(f.cpu_ms_per_item, 2.0);
        assert_eq!((f.latency.n, f.latency.p50), (400, 100.0));
        // At least 80 slices of five ops are kept: 400 samples, so p90.
        assert_eq!(
            (f.latency.tail_p_milli, f.latency.tail_beyond),
            (90_000, 40)
        );
        assert_eq!((f.steal_kept, f.steal_all), (0.0, 0.24));
        // Only 79 slices are quiet: the least-stolen of the others, part
        // slow, makes up the kept fifth, and moves no median.
        let ops: Vec<Op> = (0..2000)
            .map(|i| if i < 1603 { op(0.2, 30) } else { op(0.1, 0) })
            .collect();
        let f = figures(&ops).unwrap();
        assert_eq!((f.kept.0, f.latency.n, f.latency.p50), (80, 400, 100.0));
        assert!((f.throughput - 20.0).abs() < 1e-9 && f.steal_kept > 0.0);
    }

    #[test]
    fn short_phases_slice_per_op() {
        let ops: Vec<Op> = (0..20).map(|i| op(0.1, i % 4)).collect();
        let f = figures(&ops).unwrap();
        // A fifth is four slices; the fifth without steal ties with them.
        assert_eq!((f.kept, f.ops_kept), ((5, 20), 5));
        assert_eq!(f.steal_kept, 0.0);
        // Four kept ops at the least: too few for any tail but the median.
        assert_eq!(f.latency.tail_p_milli, 50_000);
    }

    #[test]
    fn failed_ops_count_in_time_but_not_in_latency() {
        let mut ops = vec![op(0.1, 0); 10];
        ops[0].latency_ms = None;
        let f = figures(&ops).unwrap();
        assert_eq!((f.ops_kept, f.latency.n), (10, 9));
        assert!(figures(&[]).is_none());
        let failed = vec![
            Op {
                latency_ms: None,
                ..op(0.1, 0)
            };
            4
        ];
        assert!(figures(&failed).is_none());
    }

    #[test]
    fn set_up_comes_from_the_repetitions_before_quiet_groups() {
        // One op per group; groups 1 and 3 are stolen from.
        let mut ops = vec![op(0.1, 0), op(0.2, 40), op(0.1, 1), op(0.2, 30)];
        ops.resize(SETUP_REPS, op(0.1, 0));
        let mut reps = vec![1.0; SETUP_REPS];
        reps[1] = 9.0;
        reps[3] = 9.0;
        assert_eq!(setup_seconds(&reps, &ops), Some(1.0));
        assert_eq!(setup_seconds(&reps[..2], &ops), Some(5.0));
        assert_eq!(setup_seconds(&[], &ops), None);
        assert_eq!(steal_share((1, 4)), 0.25);
        assert_eq!(steal_share((0, 0)), 0.0);
    }

    #[test]
    fn a_phase_runs_every_op_once_in_order() {
        let seen = std::cell::RefCell::new(Vec::new());
        let ops = run(
            45,
            |_| 2,
            || Ok(0),
            |i| {
                seen.borrow_mut().push(i as i64);
                Some(1.0)
            },
            || seen.borrow_mut().push(-1),
        )
        .unwrap();
        let seen = seen.into_inner();
        let ops_seen: Vec<i64> = seen.iter().copied().filter(|&i| i >= 0).collect();
        assert_eq!(ops_seen, (0..45).collect::<Vec<_>>());
        assert_eq!(seen.iter().filter(|&&i| i < 0).count(), SETUP_REPS);
        assert_eq!(seen[0], -1, "a set-up precedes the first group");
        assert_eq!(ops.len(), 45);
        assert_eq!(slices(&ops, SLICES).len(), 45);
    }
}
