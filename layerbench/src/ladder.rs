//! The layer ladder: the same op mix timed at each rung, from the index
//! alone up to li-server over loopback, plus a raw TCP echo floor.
//!
//! Every rung times calls the benchmark makes into one layer's public
//! functions; nothing is traced inside the program. A layer's self time is
//! its rung's median minus the median of the rung below, except where the
//! benchmark itself calls the layer's parts in sequence (the service rung),
//! which records child spans and subtracts their coverage.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Duration;

use li_core::ConcurrentIndex;
use li_proto::{
    decode_request, decode_response, encode_request, encode_response, split_frame, Body, Command,
    Request, Response,
};
use li_telemetry::{Event, Recorder};
use lip::AnyConcurrentIndex;

use crate::echo::{EchoClient, EchoServer};
use crate::spans::{self, Clock, Span, SpanBuf, ROOT};
use crate::stats::{median_f64, Summary};
use crate::sut::{self, Store};
use crate::values::{self, Ledger};
use crate::workload::{self, BenchOp, Plan, Stream, Target};

/// GETs per worker per rung; rungs also stop at their time budget, which
/// in-process GET rungs reach first.
const RUNG_GETS: usize = 100_000;
/// Updates per worker per PUT rung (also stopped by the time budget).
const RUNG_PUTS: usize = 20_000;
/// Insert-pool share per worker per PUT rung, when the workload inserts.
const RUNG_POOL_SHARE: f64 = 0.005;
/// Ops at the start of each worker's round that no rung median counts:
/// the round's fresh connections and cold caches. Rounds of fewer than
/// four times as many ops (tiny test runs) give up a quarter instead.
const ROUND_WARMUP: usize = 32;

/// Whether a root span times a PUT (root names end in the op type).
fn is_put(name: &str) -> bool {
    name.ends_with(".put") || name.ends_with(".insert")
}

/// Insert-pool share the ladder's six PUT rungs take.
pub fn pool_reserve(plan: &Plan) -> f64 {
    if plan.pool.is_empty() {
        return 0.0;
    }
    6.0 * plan.workload.threads() as f64 * RUNG_POOL_SHARE
}

/// Everything one rung recorded.
pub struct Rung {
    pub name: &'static str,
    pub put: bool,
    pub spans: Vec<SpanBuf>,
    pub attempted: u64,
    /// PUTs among the attempted ops.
    pub puts: u64,
    pub failed: u64,
    /// Index probes that found their key (index rung only).
    pub found: u64,
    /// Device reads, bytes read, bytes written and flushes of the store
    /// the rung drives, over its rounds.
    pub nvm: [u64; 4],
    /// The served store's WAL appends and group commits over its rounds.
    pub wal: [u64; 2],
}

impl Rung {
    fn empty(name: &'static str, put: bool) -> Self {
        Rung {
            name,
            put,
            spans: Vec::new(),
            attempted: 0,
            puts: 0,
            failed: 0,
            found: 0,
            nvm: [0; 4],
            wal: [0; 2],
        }
    }

    /// Folds one round's results in.
    fn absorb(&mut self, round: Rung) {
        self.spans.extend(round.spans);
        self.attempted += round.attempted;
        self.puts += round.puts;
        self.failed += round.failed;
        self.found += round.found;
    }

    /// The timed ops of the rung's own op type, past each round's warm-up.
    fn ops(&self) -> Vec<(Span, Vec<Span>)> {
        self.spans
            .iter()
            .flat_map(|b| {
                let ops = b.ops();
                let warm = ROUND_WARMUP.min(ops.len() / 4);
                ops.into_iter().skip(warm)
            })
            .filter(|(root, _)| is_put(root.name) == self.put)
            .collect()
    }

    /// Median root-span duration (ns).
    pub fn median(&self) -> f64 {
        let d: Vec<f64> = self.ops().iter().map(|(r, _)| r.duration() as f64).collect();
        median_f64(&d).unwrap_or(f64::NAN)
    }

    /// Median over ops of the time covered by children named in `names`.
    pub fn part(&self, names: &[&str]) -> f64 {
        let d: Vec<f64> = self
            .ops()
            .iter()
            .map(|(r, c)| {
                let picked = c.iter().filter(|s| names.contains(&s.name)).map(|s| (s.start, s.end));
                spans::covered(r.start, r.end, picked) as f64
            })
            .collect();
        median_f64(&d).unwrap_or(f64::NAN)
    }

    pub fn summary(&self) -> Summary {
        let mut d: Vec<u64> = self.ops().iter().map(|(r, _)| r.duration()).collect();
        Summary::of(&mut d)
    }
}

/// How one op of a benchmark-driven rung ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Done,
    /// An index probe found its key.
    Found,
    /// A typed error.
    Failed,
}

/// Per-worker state of a rung the benchmark drives op by op.
type Step<'a> =
    Box<dyn FnMut(u64, BenchOp, &mut SpanBuf, &mut Ledger) -> std::io::Result<Outcome> + 'a>;

/// Runs `make(worker)`'s step over each worker's ops until they run out
/// or `budget` passes. A step records its own spans.
fn custom<'a>(
    name: &'static str,
    put: bool,
    ops: &[Vec<BenchOp>],
    ledgers: &mut Vec<Ledger>,
    clock: &Clock,
    budget: Duration,
    make: impl Fn(usize) -> std::io::Result<Step<'a>> + Sync,
) -> std::io::Result<Rung> {
    let start = Barrier::new(ops.len());
    let taken: Vec<Ledger> = std::mem::take(ledgers);
    type Tally = (SpanBuf, Ledger, [u64; 4]);
    let results: Vec<std::io::Result<Tally>> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .zip(taken)
            .enumerate()
            .map(|(w, (ops, mut ledger))| {
                let (start, make) = (&start, &make);
                s.spawn(move || {
                    let step = make(w);
                    start.wait();
                    let mut step = step?;
                    let mut buf = SpanBuf::with_capacity(ops.len() * 6 + 16);
                    let deadline = clock.now() + budget.as_nanos() as u64;
                    // Attempted, PUTs, found, failed.
                    let mut n = [0u64; 4];
                    for (i, &op) in ops.iter().enumerate() {
                        let id = (u64::from(ledger.writer) << 40) | i as u64;
                        match step(id, op, &mut buf, &mut ledger)? {
                            Outcome::Done => {}
                            Outcome::Found => n[2] += 1,
                            Outcome::Failed => n[3] += 1,
                        }
                        n[0] += 1;
                        n[1] += u64::from(matches!(op, BenchOp::Put { .. }));
                        if clock.now() >= deadline {
                            break;
                        }
                    }
                    Ok((buf, ledger, n))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rung worker panicked")).collect()
    });
    let mut rung = Rung::empty(name, put);
    for r in results {
        let (buf, ledger, [attempted, puts, found, failed]) = r?;
        rung.spans.push(buf);
        ledgers.push(ledger);
        rung.attempted += attempted;
        rung.puts += puts;
        rung.found += found;
        rung.failed += failed;
    }
    Ok(rung)
}

/// A rung that runs the workload's own closed loop against a
/// session target (store in process, or li-server).
fn session_rung(
    name: &'static str,
    put: bool,
    target: Target<'_>,
    ops: &[Vec<BenchOp>],
    ledgers: &mut Vec<Ledger>,
    clock: &Clock,
    budget: Duration,
) -> std::io::Result<Rung> {
    let streams: Vec<Stream> =
        ops.iter().map(|o| Stream { ops: o.clone(), wraps: false }).collect();
    let outs = workload::run_phase(target, &streams, std::mem::take(ledgers), clock, budget, true)?;
    let mut rung = Rung::empty(name, put);
    for o in outs {
        rung.attempted += o.attempted;
        rung.puts += o.puts.len() as u64;
        rung.failed += o.failed;
        rung.spans.push(o.spans.expect("traced phase records spans"));
        ledgers.push(o.ledger);
    }
    Ok(rung)
}

/// Wire sizes of an edge request/response pair for `put`.
fn frame_sizes(put: bool, payload: usize) -> (usize, usize) {
    let (cmd, body) = if put {
        (Command::Put { key: 1, value: vec![0; payload] }, Body::Ok)
    } else {
        (Command::Get { key: 1 }, Body::Value(vec![0; payload]))
    };
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    encode_request(&Request { id: 1, deadline_us: 0, cmd }, &mut req).expect("encodable request");
    encode_response(&Response { id: 1, body }, &mut resp).expect("encodable response");
    (req.len(), resp.len())
}

fn decode_err(e: li_proto::ProtoError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// What the ladder measured.
pub struct LadderOut {
    pub rungs: Vec<Rung>,
    /// Per-layer metrics: name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Writers that touched the served store, for the final verify pass.
    pub served_ledgers: Vec<Ledger>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub first_mismatches: Vec<String>,
    /// Human-readable ladder table.
    pub table: Vec<String>,
}

/// Which store a rung drives: its device counters are charged to the rung.
#[derive(Clone, Copy, PartialEq, Eq)]
enum On {
    Twin,
    Served,
    Neither,
}

/// Runs one round's slice of a rung's ops. The WAL-free twin store is
/// passed in rather than captured, so the ladder can switch its recorder
/// between rungs.
type RunFn<'a> =
    Box<dyn Fn(&Store, &[Vec<BenchOp>], &mut Vec<Ledger>, Duration) -> std::io::Result<Rung> + 'a>;

/// One rung of the ladder with every worker's ops for all rounds.
struct Spec<'a> {
    name: &'static str,
    put: bool,
    on: On,
    /// Whether the twin's recorder is on while this rung runs.
    recorder: bool,
    ops: Vec<Vec<BenchOp>>,
    run: RunFn<'a>,
}

/// Rounds each rung's ops are split into. A round runs every rung once in
/// ladder order, so adjacent rungs sample the same stretches of time and
/// host drift largely cancels out of their differences.
const ROUNDS: usize = 5;

/// Runs every rung for GETs and PUTs. `served` is the system under test,
/// reachable through li-server at `addr`; the lower rungs run on a
/// WAL-free twin store and a separate index built from the same keys.
pub fn run(
    plan: &mut Plan,
    served: &Store,
    addr: SocketAddr,
    clock: &Clock,
    budget: Duration,
) -> std::io::Result<LadderOut> {
    let threads = plan.workload.threads();
    let mut twin = sut::load(&plan.loaded, plan.keys, None);
    let pairs: Vec<(u64, u64)> =
        plan.loaded.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let index_copy: AnyConcurrentIndex = sut::build_index(&pairs);
    drop(pairs);
    let payload_len = served.heap().layout().value_size - values::VLEN_HEADER;
    let echo = EchoServer::spawn()?;
    let echo_addr = echo.addr();

    let mut salt = 0x1add_0000u64;
    let mut next_ops = |plan: &mut Plan, put: bool| -> Vec<Vec<BenchOp>> {
        (0..threads)
            .map(|_| {
                salt += 1;
                let pool = if put { plan.take_pool(RUNG_POOL_SHARE) } else { Vec::new() };
                plan.rung_ops(salt, put, &pool, if put { RUNG_PUTS } else { RUNG_GETS })
            })
            .collect()
    };
    let index_ref = &index_copy;
    let mut specs: Vec<Spec<'_>> = Vec::new();

    // Index: router + ALEX probes, and inserts into a separate copy.
    specs.push(Spec {
        name: "index",
        put: false,
        on: On::Twin,
        recorder: false,
        ops: next_ops(plan, false),
        run: Box::new(move |twin, ops, ledgers, budget| {
            custom("index", false, ops, ledgers, clock, budget, |_| {
                Ok(Box::new(move |id, op, buf: &mut SpanBuf, _l: &mut Ledger| {
                    let t0 = clock.now();
                    let hit = black_box(ConcurrentIndex::get(twin.index(), black_box(op.key())));
                    let t1 = clock.now();
                    buf.push(Span { op: id, parent: ROOT, name: "index.get", start: t0, end: t1 });
                    Ok(if hit.is_some() { Outcome::Found } else { Outcome::Done })
                }))
            })
        }),
    });
    specs.push(Spec {
        name: "index",
        put: true,
        on: On::Neither,
        recorder: false,
        ops: next_ops(plan, true),
        run: Box::new(move |_twin, ops, ledgers, budget| {
            custom("index", true, ops, ledgers, clock, budget, |_| {
                Ok(Box::new(move |id, op, buf: &mut SpanBuf, _l: &mut Ledger| {
                    let t0 = clock.now();
                    let name = match op {
                        BenchOp::Get(key) => {
                            black_box(ConcurrentIndex::get(index_ref, black_box(key)));
                            "index.get"
                        }
                        BenchOp::Put { key, .. } => {
                            black_box(ConcurrentIndex::insert(index_ref, black_box(key), id));
                            "index.insert"
                        }
                    };
                    let t1 = clock.now();
                    buf.push(Span { op: id, parent: ROOT, name, start: t0, end: t1 });
                    Ok(Outcome::Done)
                }))
            })
        }),
    });
    // Heap: the probe, then the record read, as the store does them, timed
    // as one span like the store rung's calls so the two compare.
    specs.push(Spec {
        name: "heap",
        put: false,
        on: On::Twin,
        recorder: false,
        ops: next_ops(plan, false),
        run: Box::new(move |twin, ops, ledgers, budget| {
            custom("heap", false, ops, ledgers, clock, budget, |_| {
                let mut vbuf = vec![0u8; twin.heap().layout().value_size];
                Ok(Box::new(move |id, op, buf: &mut SpanBuf, l: &mut Ledger| {
                    let k = op.key();
                    let t0 = clock.now();
                    let off = ConcurrentIndex::get(twin.index(), k);
                    if let Some(off) = off {
                        black_box(twin.heap().read(off, &mut vbuf));
                    }
                    let t1 = clock.now();
                    buf.push(Span { op: id, parent: ROOT, name: "heap.get", start: t0, end: t1 });
                    let read = match off {
                        Some(_) => values::check_record(k, &vbuf).map(Some),
                        None => Ok(None),
                    };
                    l.observe(k, read);
                    Ok(Outcome::Done)
                }))
            })
        }),
    });
    // Store: the WAL-free twin with its recorder off, then on (telemetry).
    for (name, recorder) in [("store", false), ("telemetry", true)] {
        for put in [false, true] {
            specs.push(Spec {
                name,
                put,
                on: On::Twin,
                recorder,
                ops: next_ops(plan, put),
                run: Box::new(move |twin, ops, ledgers, budget| {
                    session_rung(name, put, Target::Store(twin), ops, ledgers, clock, budget)
                }),
            });
        }
    }
    // The served store: WAL on, recorder on.
    for put in [false, true] {
        specs.push(Spec {
            name: "wal",
            put,
            on: On::Served,
            recorder: false,
            ops: next_ops(plan, put),
            run: Box::new(move |_twin, ops, ledgers, budget| {
                session_rung("wal", put, Target::Store(served), ops, ledgers, clock, budget)
            }),
        });
    }
    // service::execute with the li-proto codec on both sides, no socket.
    for put in [false, true] {
        specs.push(Spec {
            name: "service",
            put,
            on: On::Served,
            recorder: false,
            ops: next_ops(plan, put),
            run: Box::new(move |_twin, ops, ledgers, budget| {
                custom("service", put, ops, ledgers, clock, budget, |_| {
                    let (mut wire, mut back) = (Vec::with_capacity(256), Vec::with_capacity(256));
                    Ok(Box::new(move |id, op, buf: &mut SpanBuf, l: &mut Ledger| {
                        let is_put = matches!(op, BenchOp::Put { .. });
                        let cmd = match op {
                            BenchOp::Get(key) => Command::Get { key },
                            BenchOp::Put { key, .. } => {
                                let mut value = vec![0u8; payload_len];
                                values::payload(key, l.issue(key), &mut value);
                                Command::Put { key, value }
                            }
                        };
                        wire.clear();
                        back.clear();
                        let t0 = clock.now();
                        encode_request(&Request { id, deadline_us: 0, cmd }, &mut wire)
                            .map_err(decode_err)?;
                        let t1 = clock.now();
                        let (range, _) =
                            split_frame(&wire).map_err(decode_err)?.expect("one whole frame");
                        let req = decode_request(&wire[range]).map_err(decode_err)?;
                        let t2 = clock.now();
                        let body = li_server::service::execute(served, &req.cmd);
                        let t3 = clock.now();
                        encode_response(&Response { id, body }, &mut back).map_err(decode_err)?;
                        let t4 = clock.now();
                        let (range, _) =
                            split_frame(&back).map_err(decode_err)?.expect("one whole frame");
                        let resp = decode_response(&back[range]).map_err(decode_err)?;
                        let t5 = clock.now();
                        let name = if is_put { "service.put" } else { "service.get" };
                        let root =
                            buf.push(Span { op: id, parent: ROOT, name, start: t0, end: t5 });
                        for (name, start, end) in [
                            ("proto.encode_request", t0, t1),
                            ("proto.decode_request", t1, t2),
                            ("service.execute", t2, t3),
                            ("proto.encode_response", t3, t4),
                            ("proto.decode_response", t4, t5),
                        ] {
                            buf.push(Span { op: id, parent: root, name, start, end });
                        }
                        let reply = workload::reply_of(op, &resp.body);
                        let failed = workload::settle(l, op, reply, |k| {
                            workload::check_body(k, &resp.body, payload_len)
                        });
                        Ok(if failed { Outcome::Failed } else { Outcome::Done })
                    }))
                })
            }),
        });
    }
    // li-server over loopback.
    for put in [false, true] {
        specs.push(Spec {
            name: "server",
            put,
            on: On::Served,
            recorder: false,
            ops: next_ops(plan, put),
            run: Box::new(move |_twin, ops, ledgers, budget| {
                session_rung("server", put, Target::Edge(addr, served), ops, ledgers, clock, budget)
            }),
        });
    }
    // The transport floor, at the edge frame sizes; the ops only count
    // calls, so they take no pool keys.
    for put in [false, true] {
        let (req, resp) = frame_sizes(put, payload_len);
        specs.push(Spec {
            name: "echo",
            put,
            on: On::Neither,
            recorder: false,
            ops: next_ops(plan, false),
            run: Box::new(move |_twin, ops, ledgers, budget| {
                custom("echo", put, ops, ledgers, clock, budget, |_| {
                    let mut c = EchoClient::connect(echo_addr, req, resp)?;
                    Ok(Box::new(move |id, _op, buf: &mut SpanBuf, _l: &mut Ledger| {
                        let t0 = clock.now();
                        c.call()?;
                        let t1 = clock.now();
                        let name = if put { "echo.put" } else { "echo.get" };
                        buf.push(Span { op: id, parent: ROOT, name, start: t0, end: t1 });
                        Ok(Outcome::Done)
                    }))
                })
            }),
        });
    }

    // Empty the served store's WAL ring first if the PUT rungs could fill
    // it, so no checkpoint lands inside a rung.
    let planned = specs
        .iter()
        .filter(|s| s.put && s.on == On::Served)
        .flat_map(|s| s.ops.iter().flatten())
        .filter(|op| matches!(op, BenchOp::Put { .. }))
        .count();
    if served.wal_lag() + planned as u64 >= plan.workload.wal_records() {
        served.checkpoint_now().map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    }

    let mut writer = 1000u32;
    let mut fresh = || {
        (0..threads)
            .map(|_| {
                writer += 1;
                Ledger::new(writer)
            })
            .collect::<Vec<_>>()
    };
    let (mut twin_ledgers, mut served_ledgers, mut spare) = (fresh(), fresh(), fresh());
    let mut rungs: Vec<Rung> = specs.iter().map(|s| Rung::empty(s.name, s.put)).collect();
    let mut recorder_on = false;
    for round in 0..ROUNDS {
        for (spec, acc) in specs.iter().zip(&mut rungs) {
            if spec.on == On::Twin && spec.recorder != recorder_on {
                recorder_on = spec.recorder;
                twin.set_recorder(if recorder_on {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                });
            }
            let slice: Vec<Vec<BenchOp>> = spec
                .ops
                .iter()
                .map(|o| o[o.len() * round / ROUNDS..o.len() * (round + 1) / ROUNDS].to_vec())
                .collect();
            let (ledgers, device) = match spec.on {
                On::Twin => (&mut twin_ledgers, Some(twin.heap().device())),
                On::Served => (&mut served_ledgers, Some(served.heap().device())),
                On::Neither => (&mut spare, None),
            };
            let dev0 = device.map(li_nvm::NvmDevice::stats_snapshot);
            let wal0 = wal_events(served);
            let rung = (spec.run)(&twin, &slice, ledgers, budget / ROUNDS as u32)?;
            if let (Some(d), Some(before)) = (device, dev0) {
                let after = d.stats_snapshot();
                acc.nvm[0] += after.reads - before.reads;
                acc.nvm[1] += after.bytes_read - before.bytes_read;
                acc.nvm[2] += after.bytes_written - before.bytes_written;
                acc.nvm[3] += after.flushes - before.flushes;
            }
            let wal1 = wal_events(served);
            acc.wal[0] += wal1[0] - wal0[0];
            acc.wal[1] += wal1[1] - wal0[1];
            acc.absorb(rung);
        }
    }
    drop(specs);
    echo.shutdown()?;

    let mut metrics: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let find = |name: &str, put: bool| {
        rungs.iter().find(|r| r.name == name && r.put == put).expect("every rung ran")
    };
    let heap = find("heap", false);
    let gets = heap.attempted.max(1) as f64;
    metrics.insert("nvm.reads_per_get", (heap.nvm[0] as f64 / gets, "count"));
    metrics.insert("nvm.bytes_read_per_get", (heap.nvm[1] as f64 / gets, "B"));
    let wal_put = find("wal", true);
    let acked = wal_put.puts.saturating_sub(wal_put.failed).max(1) as f64;
    metrics.insert("nvm.bytes_written_per_put", (wal_put.nvm[2] as f64 / acked, "B"));
    metrics.insert("nvm.flushes_per_put", (wal_put.nvm[3] as f64 / acked, "count"));
    let fences = wal_put.wal[1].max(1) as f64;
    metrics.insert("wal.puts_per_fence", (wal_put.wal[0] as f64 / fences, "ratio"));

    // Reads of the twin must agree with the twin's own writers.
    values::WriteIndex::new(&twin_ledgers).check_foreign(&mut twin_ledgers);
    let mut out = LadderOut {
        attempted: rungs.iter().map(|r| r.attempted).sum(),
        failed: rungs.iter().map(|r| r.failed).sum(),
        rungs,
        metrics,
        served_ledgers,
        mismatches: twin_ledgers.iter().map(|l| l.mismatches).sum(),
        first_mismatches: twin_ledgers.iter().flat_map(|l| l.first_mismatches.clone()).collect(),
        table: Vec::new(),
    };
    derive(&mut out);
    Ok(out)
}

/// The served store's WAL appends and group commits so far.
fn wal_events(served: &Store) -> [u64; 2] {
    let r = served.recorder();
    [r.event_count(Event::WalAppend), r.event_count(Event::GroupCommit)]
}

/// Turns rung medians and spans into the per-layer metrics and the table.
fn derive(out: &mut LadderOut) {
    let find = |name: &str, put: bool| {
        out.rungs.iter().find(|r| r.name == name && r.put == put).expect("every rung ran")
    };
    let mut m = BTreeMap::new();
    let mut table = Vec::new();
    for put in [false, true] {
        let op = if put { "put" } else { "get" };
        let index = find("index", put).median();
        let store = find("store", put).median();
        let telemetry = find("telemetry", put).median();
        let wal = find("wal", put).median();
        let service = find("service", put);
        let execute = service.part(&["service.execute"]);
        let codec = service.part(&[
            "proto.encode_request",
            "proto.decode_request",
            "proto.encode_response",
            "proto.decode_response",
        ]);
        let server = find("server", put);
        let rtt = server.median();
        let echo = find("echo", put).median();
        // Below the store: the index alone, then (GET only) probe + read.
        let below_store = if put { index } else { find("heap", false).median() };
        let heap_read = below_store - index;
        let server_self = rtt - execute - codec - echo;
        let mut rows: Vec<(&str, f64, f64)> = vec![
            ("index", index, index),
            ("heap", if put { f64::NAN } else { below_store }, heap_read),
            ("store", store, store - below_store),
            ("telemetry", telemetry, telemetry - store),
            ("wal", wal, wal - telemetry),
            ("service", service.median(), execute - wal),
            ("proto", f64::NAN, codec),
            ("server", rtt, server_self),
            ("transport", echo, echo),
        ];
        if put {
            rows.retain(|r| r.0 != "heap");
        }
        table.push(format!("ladder ({op}): rung, rung median ns, layer self ns"));
        for (name, median, own) in &rows {
            table.push(format!("  {name:<10} {median:>12.1} {own:>12.1}"));
        }
        for r in out.rungs.iter().filter(|r| r.put == put) {
            table.push(format!("  {:<10} {}", r.name, r.summary().describe(true)));
        }
        if put {
            m.insert("index.insert_ns", (index, "ns"));
            m.insert("store.put_ns", (store - index, "ns"));
            m.insert("wal.put_ns", (wal - telemetry, "ns"));
        } else {
            m.insert("index.get_ns", (index, "ns"));
            m.insert("heap.read_ns", (heap_read, "ns"));
            m.insert("store.get_ns", (store - below_store, "ns"));
            m.insert("telemetry.get_ns", (telemetry - store, "ns"));
            m.insert("proto.codec_ns", (codec, "ns"));
            m.insert("service.execute_ns", (execute - wal, "ns"));
            m.insert("server.rtt_us", (rtt / 1e3, "us"));
            m.insert("server.self_us", (server_self / 1e3, "us"));
            m.insert("transport.echo_rtt_us", (echo / 1e3, "us"));
        }
    }
    let probes = find("index", false);
    m.insert("index.hit_ratio", (probes.found as f64 / probes.attempted.max(1) as f64, "ratio"));
    let typed: u64 = out.rungs.iter().filter(|r| r.name == "server").map(|r| r.failed).sum();
    m.insert("server.typed_errors", (typed as f64, "count"));
    out.metrics.extend(m);
    out.table = table;
}
