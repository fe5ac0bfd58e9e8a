//! One benchmark run: set up the store, drive the workload, verify, and
//! collect the metrics — end-to-end ones untraced, per-layer ones in a
//! separate traced run.

use std::sync::Arc;
use std::time::Duration;

use li_core::Index;

use crate::ladder;
use crate::spans::{self, Clock, SpanBuf};
use crate::stats::{self, median_f64, Summary};
use crate::sut::{self, Store};
use crate::values::{self, Ledger, WriteIndex};
use crate::workload::{self, Plan, Target, WorkerOut, Workload};

/// Store builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share by which the ladder rung that takes the workload's own path may
/// differ from the untraced loop's p50, unless the measured tracing
/// overhead is larger. They time the same calls on different samples
/// seconds apart: the host drifts by 5–10% in that time, and the loop's
/// PUTs on `store_write` often run while the other writer is stalled in a
/// checkpoint, so they meet less WAL contention than the rung's.
const AGREEMENT: f64 = 0.15;
/// Insert-pool share each worker's warm-up may use.
const WARMUP_POOL_SHARE: f64 = 0.03;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Key-set size: [`KEYS`] from the command line; tests set a smaller one.
    pub keys: usize,
}

/// Key-set size of every workload.
pub const KEYS: usize = 1_000_000;

pub const USAGE: &str = "usage: layerbench --workload <store_read|store_write|edge_mix> \
    --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: invalid {what} {val:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&val).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(val.parse().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s: f64 = val.parse().map_err(|_| bad("duration"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("duration"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            keys: KEYS,
        })
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Metrics reported beside them but not in the result line.
    pub extra: Vec<Metric>,
    pub report: Vec<String>,
    pub mismatches: Vec<String>,
    /// Span buffers to write out, tagged.
    pub spans: Vec<(String, SpanBuf)>,
}

/// One closed-loop phase's figures over its metrics window.
struct PhaseStats {
    ops_per_s: f64,
    window_s: f64,
    /// Whether the window runs between checkpoint completions.
    aligned: bool,
    /// Whole-window latency distributions, for the report.
    get: Summary,
    put: Summary,
    /// Per-second-slice medians of p50 and p99: the reported percentiles.
    get_sliced: (Option<u64>, Option<u64>),
    put_sliced: (Option<u64>, Option<u64>),
    attempted: u64,
    failed: u64,
    put_bytes_acked: u64,
    /// Stream ran out before the deadline (insert pool spent).
    exhausted: bool,
    /// Wall time from the first worker's start to the last op's end (s).
    wall_s: f64,
    /// Mean op latency (ns) with the slowest [`TAIL`] left out, which
    /// takes checkpoint stalls and host stalls with it. Where checkpoints
    /// take most of the window (`store_write`) this is the gated figure
    /// the write path moves.
    op_mean_ns: f64,
    /// Mean time (ns) between a client's consecutive op completions, the
    /// slowest [`TAIL`] left out: the loop's time per op, which the
    /// tracing overhead is measured on.
    loop_mean_ns: f64,
}

/// Length of the slices latency percentiles are taken over.
const SLICE_US: u64 = 1_000_000;

/// The median over one-second slices of each slice's `q`-quantile, over
/// the slices holding enough samples for it (ten beyond it); the whole
/// window's quantile when no slice does. A stall of the host that lasts
/// part of a second then moves one slice, not the reported figure.
fn sliced_quantile(samples: &[(u64, u64)], lo: u64, q: f64) -> Option<u64> {
    let mut slices: Vec<Vec<u64>> = Vec::new();
    for &(end, dur) in samples {
        let i = (end.saturating_sub(lo) / SLICE_US) as usize;
        if slices.len() <= i {
            slices.resize_with(i + 1, Vec::new);
        }
        slices[i].push(dur);
    }
    let per: Vec<f64> = slices
        .iter_mut()
        .filter(|s| stats::beyond(s.len(), q) >= 10)
        .filter_map(|s| stats::quantile(s, q))
        .map(|v| v as f64)
        .collect();
    match median_f64(&per) {
        Some(m) => Some(m.round() as u64),
        None => stats::quantile(&mut samples.iter().map(|s| s.1).collect::<Vec<_>>(), q),
    }
}

/// Share of the slowest ops or gaps the means leave out.
const TAIL: f64 = 0.01;

/// The metrics window: between the first and last checkpoint completions
/// when at least two landed in the phase (a checkpoint stall dominates
/// whichever op hits it, so a window cut mid-cycle would swing ops/s by
/// a whole cycle's ops), otherwise from start to deadline.
fn phase_stats(outs: &[WorkerOut], duration: Duration) -> PhaseStats {
    let start_us = outs.iter().map(|o| o.start_ns / 1000).min().unwrap_or(0);
    let mut limit = start_us + duration.as_micros() as u64;
    let exhausted = outs.iter().filter_map(|o| o.exhausted_ns).min();
    if let Some(e) = exhausted {
        limit = limit.min(e / 1000);
    }
    let mut b: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.boundaries.iter().map(|&x| u64::from(x)))
        .filter(|&x| x > start_us && x <= limit)
        .collect();
    b.sort_unstable();
    let (lo, hi, aligned) = match (b.first(), b.last()) {
        (Some(&f), Some(&l)) if l > f => (f, l, true),
        _ => (start_us, limit, false),
    };
    let inside = |s: &&workload::Sample| {
        let e = u64::from(s.end_us);
        e > lo && e <= hi || (!aligned && e == lo)
    };
    let pick = |which: fn(&WorkerOut) -> &Vec<workload::Sample>| -> Vec<(u64, u64)> {
        outs.iter()
            .flat_map(|o| {
                which(o).iter().filter(inside).map(|s| (u64::from(s.end_us), u64::from(s.dur_ns)))
            })
            .collect()
    };
    let (gets, puts) = (pick(|o| &o.gets), pick(|o| &o.puts));
    let summary = |v: &[(u64, u64)]| Summary::of(&mut v.iter().map(|s| s.1).collect::<Vec<_>>());
    let sliced = |v: &[(u64, u64)]| (sliced_quantile(v, lo, 0.5), sliced_quantile(v, lo, 0.99));
    let window_s = (hi - lo).max(1) as f64 / 1e6;
    let mut durations: Vec<u64> = gets.iter().chain(&puts).map(|s| s.1).collect();
    let mut gaps: Vec<u64> = Vec::new();
    for o in outs {
        let mut ends: Vec<u64> =
            o.gets.iter().chain(&o.puts).filter(inside).map(|s| u64::from(s.end_us)).collect();
        ends.sort_unstable();
        gaps.extend(ends.windows(2).map(|w| (w[1] - w[0]) * 1000));
    }
    let last_end = outs
        .iter()
        .flat_map(|o| o.gets.last().into_iter().chain(o.puts.last()))
        .map(|s| u64::from(s.end_us))
        .max()
        .unwrap_or(start_us);
    let ops = (gets.len() + puts.len()) as f64;
    PhaseStats {
        ops_per_s: ops / window_s,
        window_s,
        aligned,
        get: summary(&gets),
        put: summary(&puts),
        get_sliced: sliced(&gets),
        put_sliced: sliced(&puts),
        attempted: outs.iter().map(|o| o.attempted).sum(),
        failed: outs.iter().map(|o| o.failed).sum(),
        put_bytes_acked: outs.iter().map(|o| o.put_bytes_acked).sum(),
        exhausted: exhausted.is_some(),
        wall_s: last_end.saturating_sub(start_us) as f64 / 1e6,
        op_mean_ns: stats::trimmed_mean(&mut durations, TAIL).unwrap_or(f64::NAN),
        loop_mean_ns: stats::trimmed_mean(&mut gaps, TAIL).unwrap_or(f64::NAN),
    }
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e3)
}

/// What one closed loop measured.
struct Loop {
    outs: Vec<WorkerOut>,
    stats: PhaseStats,
    checkpoints: u64,
    nvm_bytes_written: u64,
}

/// One closed loop's settings: `phase` separates its seed streams and
/// writer ids from other loops', `share` is the insert-pool share each
/// measured worker takes.
struct LoopSpec {
    phase: u32,
    share: f64,
    duration: Duration,
    trace: bool,
}

/// Runs a warm-up then a measured phase. The warm-up streams come from
/// their own salts and pool slices, disjoint from the measured ones, and
/// are checked but not measured.
fn closed_loop(
    plan: &mut Plan,
    target: Target<'_>,
    clock: &Clock,
    spec: &LoopSpec,
    ledgers: &mut Vec<Ledger>,
) -> std::io::Result<Loop> {
    let LoopSpec { phase, share: measured_share, duration, trace } = *spec;
    let store = target.store();
    let threads = plan.workload.threads();
    let salt = u64::from(phase) << 8;
    let writers =
        |offset: u32| (0..threads as u32).map(move |w| Ledger::new(phase * 64 + offset + w));
    let warm: Vec<_> = (0..threads)
        .map(|w| {
            let pool = plan.take_pool(WARMUP_POOL_SHARE);
            plan.stream(salt + w as u64, if plan.pool.is_empty() { &[] } else { &pool })
        })
        .collect();
    let outs =
        workload::run_phase(target, &warm, writers(0).collect(), clock, plan.warmup(), false)?;
    ledgers.extend(outs.into_iter().map(|o| o.ledger));

    let streams: Vec<_> = (0..threads)
        .map(|w| {
            let pool = plan.take_pool(measured_share);
            plan.stream(salt + 32 + w as u64, if plan.pool.is_empty() { &[] } else { &pool })
        })
        .collect();
    let gen0 = store.checkpoint_generation();
    let dev0 = store.heap().device().stats_snapshot();
    let mut outs =
        workload::run_phase(target, &streams, writers(32).collect(), clock, duration, trace)?;
    let dev1 = store.heap().device().stats_snapshot();
    let stats = phase_stats(&outs, duration);
    for o in &mut outs {
        ledgers.push(std::mem::take(&mut o.ledger));
    }
    Ok(Loop {
        outs,
        stats,
        checkpoints: store.checkpoint_generation() - gen0,
        nvm_bytes_written: dev1.bytes_written - dev0.bytes_written,
    })
}

/// The correctness gate: every checked value matched and no op failed,
/// typed errors included.
fn passes(mismatches: u64, failed: u64) -> bool {
    mismatches == 0 && failed == 0
}

/// The verify pass after timing: every read already checked against the
/// writes of its own worker is now checked against every worker's; every
/// written key is re-read and must hold the last write of some worker
/// that wrote it; and the store must hold exactly the loaded keys plus
/// the acknowledged inserts.
fn verify(store: &Store, loaded: usize, ledgers: &mut [Ledger]) -> (u64, Vec<String>) {
    let index = WriteIndex::new(ledgers);
    index.check_foreign(ledgers);
    let mut gate = Ledger::new(u32::MAX);
    let mut buf = vec![0u8; store.heap().layout().value_size];
    for (key, candidates) in index.finals() {
        if !store.get(key, &mut buf) {
            gate.mismatch(format!("verify: acknowledged key {key} is missing"));
            continue;
        }
        match values::check_record(key, &buf) {
            Ok(s) if candidates.contains(&s) => {}
            Ok(s) => {
                gate.mismatch(format!("verify: key {key} holds stamp {s:#x}, not a last write"))
            }
            Err(e) => gate.mismatch(format!("verify: {e}")),
        }
    }
    let inserted: u64 = ledgers.iter().map(|l| l.inserted).sum();
    let want = loaded as u64 + inserted;
    if store.len() as u64 != want {
        gate.mismatch(format!(
            "verify: len() = {}, want {loaded} loaded + {inserted} inserted",
            store.len()
        ));
    }
    let mut first: Vec<String> = ledgers.iter().flat_map(|l| l.first_mismatches.clone()).collect();
    first.extend(gate.first_mismatches);
    let total = ledgers.iter().map(|l| l.mismatches).sum::<u64>() + gate.mismatches;
    (total, first)
}

/// Insert-pool share each worker's measured phase takes, after warm-ups
/// and `reserve` (the ladder's share) are set aside.
fn measured_share(plan: &Plan, reserve: f64, loops: usize) -> f64 {
    if plan.pool.is_empty() {
        return 0.0;
    }
    let left = plan.pool_left() as f64 / plan.pool.len() as f64;
    let warm = WARMUP_POOL_SHARE * (plan.workload.threads() * loops) as f64;
    ((left - reserve - warm) / (plan.workload.threads() * loops) as f64).max(0.0)
}

fn describe_phase(label: &str, s: &PhaseStats, checkpoints: u64, traced: bool) -> Vec<String> {
    vec![
        format!(
            "{label}: {:.1} ops/s over a {:.3} s window ({}), {checkpoints} checkpoints, \
             {} attempted, {} failed{}",
            s.ops_per_s,
            s.window_s,
            if s.aligned { "checkpoint to checkpoint" } else { "start to deadline" },
            s.attempted,
            s.failed,
            if s.exhausted { ", insert pool spent before the deadline" } else { "" },
        ),
        format!(
            "  get {}; per-second medians p50 {:.3} us, p99 {:.3} us",
            s.get.describe(traced),
            us(s.get_sliced.0),
            us(s.get_sliced.1)
        ),
        format!(
            "  put {}; per-second medians p50 {:.3} us, p99 {:.3} us",
            s.put.describe(traced),
            us(s.put_sliced.0),
            us(s.put_sliced.1)
        ),
    ]
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(args: &Args) -> std::io::Result<Outcome> {
    let w = args.workload;
    let mut plan = Plan::new(w, args.seed, args.keys, args.seconds);
    let clock = Clock::new();
    let (store, setups) =
        sut::load_repeated(&plan.loaded, plan.keys, w.wal_records(), SETUP_REPEATS);
    let store = Arc::new(store);
    let (server, spawn_s) = if w.edge() {
        let (s, t) = sut::serve(&store)?;
        (Some(s), t)
    } else {
        (None, 0.0)
    };
    let setup_s = median_f64(&setups).unwrap_or(f64::NAN) + spawn_s;
    let target = match &server {
        Some(s) => Target::Edge(s.local_addr(), &store),
        None => Target::Store(&store),
    };
    let duration = Duration::from_secs_f64(args.seconds);
    let mut ledgers = Vec::new();
    let share = measured_share(&plan, 0.0, 1);
    let run = closed_loop(
        &mut plan,
        target,
        &clock,
        &LoopSpec { phase: 0, share, duration, trace: false },
        &mut ledgers,
    )?;
    let (mismatches, first) = verify(&store, plan.loaded.len(), &mut ledgers);
    let index_bytes = Index::index_size_bytes(store.index()) as f64 / store.len().max(1) as f64;
    if let Some(s) = server {
        s.shutdown();
    }
    let s = &run.stats;
    let mut report = vec![
        format!(
            "{}: {} keys ({} loaded), WAL ring {} records, {} client(s), {} s",
            w.name(),
            plan.keys,
            plan.loaded.len(),
            w.wal_records(),
            w.threads(),
            args.seconds
        ),
        format!("setup: builds {setups:.3?} s, server spawn {spawn_s:.4} s"),
    ];
    report.extend(describe_phase("measured", s, run.checkpoints, false));
    if !plan.pool.is_empty() {
        let inserted: u64 = ledgers.iter().map(|l| l.inserted).sum();
        report.push(format!("inserts acknowledged: {inserted} of a {}-key pool", plan.pool.len()));
    }
    let metrics = vec![
        ("ops_per_s", s.ops_per_s, "1/s"),
        ("op_mean_us", s.op_mean_ns / 1e3, "us"),
        ("get_p50_us", us(s.get_sliced.0), "us"),
        ("get_p99_us", us(s.get_sliced.1), "us"),
        ("setup_s", setup_s, "s"),
        ("index_bytes_per_key", index_bytes, "B/key"),
    ];
    let extra = vec![
        ("put_p50_us", us(s.put_sliced.0), "us"),
        ("put_p99_us", us(s.put_sliced.1), "us"),
        ("error_frac", s.failed as f64 / s.attempted.max(1) as f64, "ratio"),
        ("nvm_write_amp", run.nvm_bytes_written as f64 / s.put_bytes_acked as f64, "ratio"),
        ("checkpoints", run.checkpoints as f64, "count"),
    ];
    Ok(Outcome {
        correct: passes(mismatches, s.failed),
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        extra,
        report,
        mismatches: first,
        spans: Vec::new(),
    })
}

/// The traced run: the workload untraced and traced back to back (their
/// ratio is the tracing overhead), then the layer ladder, then the drain.
pub fn traced(args: &Args) -> std::io::Result<Outcome> {
    let w = args.workload;
    let mut plan = Plan::new(w, args.seed, args.keys, args.seconds);
    let clock = Clock::new();
    let store = Arc::new(sut::load_served(&plan.loaded, plan.keys, w.wal_records()));
    let mut server = if w.edge() { Some(sut::serve(&store)?.0) } else { None };
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let rung_budget = Duration::from_secs_f64((args.seconds * 0.03).clamp(0.05, 0.75));
    let reserve = ladder::pool_reserve(&plan);
    let share = measured_share(&plan, reserve, 2);
    let mut ledgers = Vec::new();
    let target = match &server {
        Some(s) => Target::Edge(s.local_addr(), &store),
        None => Target::Store(&store),
    };
    let plain = closed_loop(
        &mut plan,
        target,
        &clock,
        &LoopSpec { phase: 1, share, duration: half, trace: false },
        &mut ledgers,
    )?;
    let traced = closed_loop(
        &mut plan,
        target,
        &clock,
        &LoopSpec { phase: 2, share, duration: half, trace: true },
        &mut ledgers,
    )?;

    let server = match server.take() {
        Some(s) => s,
        None => sut::serve(&store)?.0,
    };
    let mut ladder = ladder::run(&mut plan, &store, server.local_addr(), &clock, rung_budget)?;
    ledgers.append(&mut ladder.served_ledgers);

    // Closing drain: li-server's shutdown writes the store's checkpoint.
    let d0 = clock.now();
    let drain = server.shutdown();
    let d1 = clock.now();

    let (mismatches, mut first) = verify(&store, plan.loaded.len(), &mut ledgers);
    first.extend(ladder.first_mismatches.iter().cloned());

    let charged: Vec<(u64, u64)> =
        traced.outs.iter().flat_map(|o| o.charged.iter().copied()).collect();
    let loop_start = traced.outs.iter().map(|o| o.start_ns).min().unwrap_or(0);
    let busy_ns = spans::covered(loop_start, u64::MAX, charged.into_iter()) + (d1 - d0);
    let wall_s = traced.stats.wall_s + (d1 - d0) as f64 / 1e9;
    let count = traced.checkpoints + u64::from(drain.checkpointed);
    let overhead = traced.stats.loop_mean_ns / plain.stats.loop_mean_ns - 1.0;

    let mut metrics: Vec<Metric> = ladder.metrics.iter().map(|(&n, &(v, u))| (n, v, u)).collect();
    metrics.push(("checkpoint.count", count as f64, "count"));
    metrics.push(("checkpoint.busy_s", busy_ns as f64 / 1e9, "s"));
    metrics.push(("checkpoint.share", busy_ns as f64 / 1e9 / wall_s, "ratio"));
    metrics.push(("trace.overhead_frac", overhead, "ratio"));
    metrics.sort_by(|a, b| a.0.cmp(b.0));

    let mut report = vec![format!(
        "{} traced: {} keys, WAL ring {} records, {} client(s), loops of {:.1} s, rungs of {:.2} s",
        w.name(),
        plan.keys,
        w.wal_records(),
        w.threads(),
        half.as_secs_f64(),
        rung_budget.as_secs_f64()
    )];
    report.extend(describe_phase("untraced loop", &plain.stats, plain.checkpoints, true));
    report.extend(describe_phase("traced loop", &traced.stats, traced.checkpoints, true));
    report.push(format!(
        "drain: {:.3} s, checkpoint written: {}, {} completed, {} cancelled",
        (d1 - d0) as f64 / 1e9,
        drain.checkpointed,
        drain.completed,
        drain.cancelled
    ));
    report.extend(ladder.table.iter().cloned());
    // The layer self times sum to the top rung by construction (each is a
    // difference of rungs). What can disagree is the ladder and the
    // workload: the rung that takes the workload's own path must match
    // the untraced loop's p50 per op type.
    let own = if w.edge() { "server" } else { "wal" };
    let tolerance = AGREEMENT.max(overhead.abs());
    for (put, loop_p50) in [(false, plain.stats.get.p50), (true, plain.stats.put.p50)] {
        let Some(p50) = loop_p50 else { continue };
        let rung = ladder.rungs.iter().find(|r| r.name == own && r.put == put);
        let median = rung.map_or(f64::NAN, ladder::Rung::median);
        let off = median / p50 as f64 - 1.0;
        report.push(format!(
            "{}: {own} rung median {:.3} us vs untraced loop p50 {:.3} us: {:+.1}% \
             (tracing overhead {:.1}%), within {:.1}%: {}",
            if put { "put" } else { "get" },
            median / 1e3,
            p50 as f64 / 1e3,
            off * 100.0,
            overhead * 100.0,
            tolerance * 100.0,
            if off.abs() <= tolerance { "yes" } else { "no" }
        ));
    }

    let mut spans: Vec<(String, SpanBuf)> = Vec::new();
    for (i, o) in traced.outs.into_iter().enumerate() {
        if let Some(b) = o.spans {
            spans.push((format!("loop.worker{i}"), b));
        }
    }
    let attempted = plain.stats.attempted + traced.stats.attempted + ladder.attempted;
    let failed = plain.stats.failed + traced.stats.failed + ladder.failed;
    let correct = passes(mismatches + ladder.mismatches, failed);
    for r in ladder.rungs {
        let tag = format!("{}.{}", r.name, if r.put { "put" } else { "get" });
        for b in r.spans {
            spans.push((tag.clone(), b));
        }
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra: Vec::new(),
        report,
        mismatches: first,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_KEYS: usize = 20_000;

    fn args(workload: Workload, trace: bool) -> Args {
        Args { workload, seed: 7, seconds: 0.4, trace, keys: TINY_KEYS }
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = Args::parse(
            ["--workload", "edge_mix", "--seed", "3", "--seconds", "10", "--trace", "1"]
                .into_iter()
                .map(String::from),
        )
        .expect("valid flags");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.keys),
            (Workload::EdgeMix, 3, 10.0, true, KEYS)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--trace", "2"],
            &["--keys", "20000"],
            &["--frob", "1"],
        ] {
            assert!(Args::parse(bad.iter().map(|s| s.to_string())).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn smoke_every_workload_untraced() {
        for w in Workload::ALL {
            let out = end_to_end(&args(w, false)).expect("run");
            assert!(out.correct, "{}: {:?}", w.name(), out.mismatches);
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.attempted > 100, "{}", w.name());
            let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            assert_eq!(
                names,
                [
                    "ops_per_s",
                    "op_mean_us",
                    "get_p50_us",
                    "get_p99_us",
                    "setup_s",
                    "index_bytes_per_key"
                ]
            );
            assert!(
                out.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{}: {:?}",
                w.name(),
                out.metrics
            );
        }
    }

    #[test]
    fn smoke_every_workload_traced() {
        for w in Workload::ALL {
            let out = traced(&args(w, true)).expect("run");
            assert!(out.correct, "{}: {:?}", w.name(), out.mismatches);
            assert_eq!(out.failed, 0, "{}", w.name());
            let get = |name: &str| out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            assert_eq!(get("index.hit_ratio"), Some(1.0), "{}", w.name());
            assert_eq!(get("nvm.reads_per_get"), Some(2.0), "{}", w.name());
            assert!(
                get("checkpoint.count").is_some_and(|c| c >= 1.0),
                "{}: the drain checkpoints",
                w.name()
            );
            assert!(out.metrics.iter().all(|m| m.1.is_finite()), "{}: {:?}", w.name(), out.metrics);
            assert!(out.spans.iter().all(|(_, b)| b.complete()));
        }
    }

    #[test]
    fn sliced_percentiles_ignore_a_stalled_second() {
        let mut v = Vec::new();
        for sec in 0..5u64 {
            for i in 0..2000u64 {
                let dur = if sec == 2 { 1000 } else { 10 + i % 3 };
                v.push((sec * SLICE_US + i, dur));
            }
        }
        assert_eq!(sliced_quantile(&v, 0, 0.99), Some(12));
        assert_eq!(sliced_quantile(&v, 0, 0.5), Some(11));
        let mut whole: Vec<u64> = v.iter().map(|s| s.1).collect();
        assert_eq!(stats::quantile(&mut whole, 0.99), Some(1000));
        // Too few samples per slice: the whole window's quantile.
        assert_eq!(sliced_quantile(&v[..50], 0, 0.99), Some(12));
    }

    /// A wrong value planted in the store must fail the gate.
    #[test]
    fn gate_rejects_a_planted_wrong_value() {
        let mut plan = Plan::new(Workload::StoreRead, 7, TINY_KEYS, 0.3);
        let store = sut::load_served(&plan.loaded, plan.keys, Workload::StoreRead.wal_records());
        let mut wrong = vec![0u8; store.heap().layout().value_size];
        for pair in plan.loaded.chunks(100) {
            // Another key's correctly framed value.
            values::record(pair[1], 0, &mut wrong);
            store.put(pair[0], &wrong).expect("plant");
        }
        let clock = Clock::new();
        let mut ledgers = Vec::new();
        let target = Target::Store(&store);
        let spec =
            LoopSpec { phase: 0, share: 0.0, duration: Duration::from_millis(300), trace: false };
        let run = closed_loop(&mut plan, target, &clock, &spec, &mut ledgers).expect("run");
        assert!(run.stats.attempted > 1000);
        let (mismatches, first) = verify(&store, plan.loaded.len(), &mut ledgers);
        assert!(mismatches > 0, "the gate accepted planted values");
        assert!(first[0].contains("value bytes differ"), "{first:?}");
        assert!(!passes(mismatches, run.stats.failed));
    }

    /// Typed errors fail the gate even when every value read matched.
    #[test]
    fn gate_rejects_typed_errors() {
        use li_telemetry::Recorder;
        use li_viper::{BreakerConfig, CircuitBreaker};

        let mut plan = Plan::new(Workload::StoreWrite, 7, TINY_KEYS, 0.3);
        let mut store =
            sut::load_served(&plan.loaded, plan.keys, Workload::StoreWrite.wal_records());
        // An open circuit breaker sheds every put with a typed error.
        let cfg = BreakerConfig::default();
        let breaker = CircuitBreaker::new(cfg, Recorder::disabled());
        for _ in 0..cfg.sustain_ticks {
            breaker.observe(cfg.depth_open, 0);
        }
        assert!(breaker.is_open());
        store.set_circuit_breaker(Arc::new(breaker));
        let clock = Clock::new();
        let mut ledgers = Vec::new();
        let target = Target::Store(&store);
        let spec =
            LoopSpec { phase: 0, share: 0.05, duration: Duration::from_millis(300), trace: false };
        let run = closed_loop(&mut plan, target, &clock, &spec, &mut ledgers).expect("run");
        assert!(run.stats.failed > 0, "no put was shed");
        let (mismatches, first) = verify(&store, plan.loaded.len(), &mut ledgers);
        assert_eq!(mismatches, 0, "{first:?}");
        assert!(!passes(mismatches, run.stats.failed), "the gate accepted typed errors");
    }
}
