//! Workloads, their seeded op streams, and the closed loop that runs them.

use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

use li_core::Key;
use li_proto::{Body, Command};
use li_server::Client;
use li_workloads::ops::AccessDistribution;
use li_workloads::{generate_keys, Dataset, Op, WorkloadSpec};

use crate::spans::{Clock, Span, SpanBuf, ROOT};
use crate::sut::Store;
use crate::values::{self, Ledger};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process uniform GETs over every loaded key, one thread.
    StoreRead,
    /// In-process, two threads: 50% inserts of withheld keys, 50% zipfian GETs.
    StoreWrite,
    /// li-server over loopback, two connections: 90% GET / 10% PUT, zipfian.
    EdgeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::StoreRead, Workload::StoreWrite, Workload::EdgeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreRead => "store_read",
            Workload::StoreWrite => "store_write",
            Workload::EdgeMix => "edge_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop clients: threads in process, or connections at the edge.
    pub fn threads(self) -> usize {
        match self {
            Workload::StoreRead => 1,
            Workload::StoreWrite | Workload::EdgeMix => 2,
        }
    }

    pub fn edge(self) -> bool {
        self == Workload::EdgeMix
    }

    /// Share of the key set withheld from the bulk load as the insert pool.
    fn insert_fraction(self) -> f64 {
        match self {
            Workload::StoreWrite => 0.2,
            Workload::StoreRead | Workload::EdgeMix => 0.0,
        }
    }

    /// WAL ring size in records. `store_write` fills its ring several
    /// times a run, so WAL-full inline checkpoints happen in the measured
    /// window; the other two use a ring no run fills, so checkpoints stay
    /// out of workloads meant to isolate reads and the network edge.
    pub fn wal_records(self) -> u64 {
        match self {
            Workload::StoreWrite => 8 * 1024,
            Workload::StoreRead | Workload::EdgeMix => 1 << 20,
        }
    }

    pub fn spec(self) -> WorkloadSpec {
        let mix = |name, read, update, insert, dist| WorkloadSpec {
            name,
            read,
            update,
            insert,
            rmw: 0.0,
            scan: 0.0,
            dist,
        };
        match self {
            Workload::StoreRead => WorkloadSpec::read_only_uniform(),
            Workload::StoreWrite => mix("STORE_WRITE", 0.5, 0.0, 0.5, AccessDistribution::Zipfian),
            Workload::EdgeMix => mix("EDGE_MIX", 0.9, 0.1, 0.0, AccessDistribution::Zipfian),
        }
    }
}

/// Everything one run derives from its seed.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Total key-set size (loaded plus insert pool).
    pub keys: usize,
    /// Bulk-loaded keys, ascending.
    pub loaded: Vec<Key>,
    /// Withheld keys in a seeded random order: any prefix is spread
    /// across the whole key space.
    pub pool: Vec<Key>,
    pool_next: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, keys: usize, seconds: f64) -> Self {
        let all = generate_keys(Dataset::OsmLike, keys, seed);
        let (loaded, mut pool) = li_workloads::split_load_insert(&all, workload.insert_fraction());
        let mut rng = seed ^ 0x9001;
        for i in (1..pool.len()).rev() {
            pool.swap(i, (values::splitmix64(&mut rng) % (i as u64 + 1)) as usize);
        }
        Plan { workload, seed, seconds, keys, loaded, pool, pool_next: 0 }
    }

    /// Warm-up time before each measured phase.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).min(1.0))
    }

    /// Takes the next `share` of the insert pool (at least one key when
    /// the pool is not empty).
    pub fn take_pool(&mut self, share: f64) -> Vec<Key> {
        let want = ((self.pool.len() as f64 * share) as usize).max(1);
        let end = (self.pool_next + want).min(self.pool.len());
        let out = self.pool[self.pool_next..end].to_vec();
        self.pool_next = end;
        out
    }

    pub fn pool_left(&self) -> usize {
        self.pool.len() - self.pool_next
    }

    /// One worker's op stream. `salt` separates streams (warm-up and
    /// measured phases, workers, rungs) drawn from the same seed.
    pub fn stream(&self, salt: u64, pool: &[Key]) -> Stream {
        const CAP: usize = 1 << 21;
        let spec = self.workload.spec();
        let count =
            if spec.insert > 0.0 { (pool.len() as f64 / spec.insert) as usize + 64 } else { CAP };
        Stream { ops: self.mix(salt, pool, count), wraps: spec.insert == 0.0 }
    }

    /// Up to `count` ops of the workload's own mix, inserting `pool` keys.
    fn mix(&self, salt: u64, pool: &[Key], count: usize) -> Vec<BenchOp> {
        let spec = self.workload.spec();
        let mut ops = Vec::with_capacity(count);
        for op in li_workloads::generate_ops(&spec, &self.loaded, pool, count, self.sub_seed(salt))
        {
            ops.push(match op {
                Op::Read(k) => BenchOp::Get(k),
                Op::Insert(k, _) => BenchOp::Put { key: k, insert: true },
                // With inserts in the mix an update means the pool ran out:
                // the stream ends there instead of changing its mix.
                Op::Update(_, _) if spec.insert > 0.0 => break,
                Op::Update(k, _) => BenchOp::Put { key: k, insert: false },
                Op::ReadModifyWrite(..) | Op::Scan(..) => unreachable!("no rmw/scan in the mix"),
            });
        }
        ops
    }

    /// Ops for one ladder rung: `n` GETs drawn like the workload's reads
    /// over the loaded keys, or PUTs. A workload that mixes reads with
    /// inserts keeps its mix in PUT rungs — the `pool` keys inserted among
    /// its own reads — so writers contend as they do in the workload; the
    /// rung times only the PUTs. Otherwise PUT rungs are inserts of the
    /// `pool` keys or `n` updates drawn like the reads, with no reads
    /// between: an in-process GET racing an update of the same key can
    /// read a torn record, which li-server's same-shard ordering rules out
    /// on the served path.
    pub fn rung_ops(&self, salt: u64, put: bool, pool: &[Key], n: usize) -> Vec<BenchOp> {
        let mixed = self.workload.spec();
        if put && mixed.read > 0.0 && mixed.insert > 0.0 {
            return self.mix(salt, pool, (pool.len() as f64 / mixed.insert) as usize);
        }
        if put && !pool.is_empty() {
            return pool.iter().map(|&key| BenchOp::Put { key, insert: true }).collect();
        }
        let spec = WorkloadSpec {
            name: "RUNG",
            read: if put { 0.0 } else { 1.0 },
            update: if put { 1.0 } else { 0.0 },
            insert: 0.0,
            rmw: 0.0,
            scan: 0.0,
            dist: self.workload.spec().dist,
        };
        li_workloads::generate_ops(&spec, &self.loaded, &[], n, self.sub_seed(salt))
            .into_iter()
            .map(|op| match op {
                Op::Read(k) => BenchOp::Get(k),
                other => BenchOp::Put { key: other.key(), insert: false },
            })
            .collect()
    }

    fn sub_seed(&self, salt: u64) -> u64 {
        self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt.wrapping_mul(0x9e37_79b9)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchOp {
    Get(Key),
    Put { key: Key, insert: bool },
}

impl BenchOp {
    pub fn key(self) -> Key {
        match self {
            BenchOp::Get(k) | BenchOp::Put { key: k, .. } => k,
        }
    }
}

pub struct Stream {
    pub ops: Vec<BenchOp>,
    /// Streams without inserts repeat from the start when they run out;
    /// streams with inserts end (their pool is spent).
    pub wraps: bool,
}

/// What a call returned, before value checking.
pub enum Reply {
    Acked,
    Found,
    Missing,
    /// A typed error: the op failed.
    Failed(String),
}

/// One closed-loop client: the store in process, or a li-server connection.
pub enum Session<'a> {
    Store { store: &'a Store, buf: Vec<u8>, rec: Vec<u8> },
    Edge { client: Client<TcpStream>, last: Body, payload: Vec<u8> },
}

impl<'a> Session<'a> {
    pub fn store(store: &'a Store) -> Self {
        let size = store.heap().layout().value_size;
        Session::Store { store, buf: vec![0; size], rec: vec![0; size] }
    }

    pub fn edge(addr: SocketAddr, value_size: usize) -> std::io::Result<Self> {
        let client = Client::connect(addr, Duration::from_secs(30))?;
        Ok(Session::Edge {
            client,
            last: Body::Ok,
            payload: vec![0; value_size - values::VLEN_HEADER],
        })
    }

    /// Prepares the value of the next put (outside the timed call).
    pub fn prepare_put(&mut self, key: Key, stamp: u64) {
        match self {
            Session::Store { rec, .. } => values::record(key, stamp, rec),
            Session::Edge { payload, .. } => values::payload(key, stamp, payload),
        }
    }

    /// The timed call.
    pub fn call(&mut self, op: BenchOp) -> std::io::Result<Reply> {
        match self {
            Session::Store { store, buf, rec } => Ok(match op {
                BenchOp::Get(k) => {
                    if store.get(k, buf) {
                        Reply::Found
                    } else {
                        Reply::Missing
                    }
                }
                BenchOp::Put { key, .. } => match store.put(key, rec) {
                    Ok(()) => Reply::Acked,
                    Err(e) => Reply::Failed(format!("{e:?}")),
                },
            }),
            Session::Edge { client, last, payload } => {
                let cmd = match op {
                    BenchOp::Get(key) => Command::Get { key },
                    BenchOp::Put { key, .. } => Command::Put { key, value: payload.clone() },
                };
                *last = client.call(cmd, 0)?;
                Ok(reply_of(op, last))
            }
        }
    }

    /// The stamp of the value the last `Found` get returned, checked byte
    /// for byte.
    pub fn check_found(&self, key: Key) -> Result<Option<u64>, String> {
        match self {
            Session::Store { buf, .. } => values::check_record(key, buf).map(Some),
            Session::Edge { last, payload, .. } => check_body(key, last, payload.len()),
        }
    }

    /// User value bytes one put carries.
    pub fn put_bytes(&self) -> u64 {
        match self {
            Session::Store { rec, .. } => rec.len() as u64,
            Session::Edge { payload, .. } => payload.len() as u64,
        }
    }
}

/// Classifies a protocol response to `op`.
pub fn reply_of(op: BenchOp, body: &Body) -> Reply {
    match (op, body) {
        (_, Body::Err { kind, .. }) => Reply::Failed(kind.name().to_string()),
        (BenchOp::Get(_), Body::Value(_)) => Reply::Found,
        (BenchOp::Get(_), Body::NotFound) => Reply::Missing,
        (BenchOp::Put { .. }, Body::Ok) => Reply::Acked,
        (_, other) => Reply::Failed(format!("unexpected reply {other:?}")),
    }
}

/// The stamp of the client value in a GET response, checked byte for byte.
pub fn check_body(key: Key, body: &Body, payload_len: usize) -> Result<Option<u64>, String> {
    match body {
        Body::Value(v) => values::check_payload(key, v, payload_len).map(Some),
        other => Err(format!("key {key}: no value to check in {other:?}")),
    }
}

/// Applies a reply to the ledger; returns whether the op failed.
pub fn settle(
    ledger: &mut Ledger,
    op: BenchOp,
    reply: Reply,
    check_found: impl FnOnce(Key) -> Result<Option<u64>, String>,
) -> bool {
    match (op, reply) {
        (BenchOp::Get(k), Reply::Found) => {
            ledger.observe(k, check_found(k));
            false
        }
        (BenchOp::Get(k), Reply::Missing) => {
            ledger.observe(k, Ok(None));
            false
        }
        (BenchOp::Put { key, insert }, Reply::Acked) => {
            ledger.settle(key, true, insert);
            false
        }
        (op, Reply::Failed(_)) => {
            if let BenchOp::Put { key, insert } = op {
                ledger.settle(key, false, insert);
            }
            true
        }
        (op, _) => {
            ledger.mismatch(format!("key {}: reply of the wrong kind", op.key()));
            false
        }
    }
}

/// One timed op: end time in microseconds since the clock's epoch and
/// duration in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_us: u32,
    pub dur_ns: u32,
}

/// What one closed-loop worker did in one phase.
pub struct WorkerOut {
    pub gets: Vec<Sample>,
    pub puts: Vec<Sample>,
    /// End times (us) of ops during which the store's checkpoint
    /// generation advanced.
    pub boundaries: Vec<u32>,
    /// Intervals (ns) of those ops: the time charged to checkpoints.
    pub charged: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub put_bytes_acked: u64,
    pub start_ns: u64,
    /// When a non-wrapping stream ran out before the deadline.
    pub exhausted_ns: Option<u64>,
    pub ledger: Ledger,
    pub spans: Option<SpanBuf>,
}

/// Span capacity per traced worker: bounds memory on long loops.
const TRACE_SPANS: usize = 1 << 20;

/// Runs one closed-loop worker until `duration` has passed since its
/// start or its stream ends. `gen_store` is read around every op to see
/// checkpoints complete; `trace` records a root span per op and a
/// `checkpoint` child over ops a checkpoint completed during.
pub fn drive(
    session: &mut Session<'_>,
    stream: &Stream,
    mut ledger: Ledger,
    clock: &Clock,
    duration: Duration,
    gen_store: &Store,
    trace: bool,
) -> std::io::Result<WorkerOut> {
    let mut out = WorkerOut {
        gets: Vec::new(),
        puts: Vec::new(),
        boundaries: Vec::new(),
        charged: Vec::new(),
        attempted: 0,
        failed: 0,
        put_bytes_acked: 0,
        start_ns: clock.now(),
        exhausted_ns: None,
        ledger: Ledger::default(),
        spans: trace.then(|| SpanBuf::with_capacity(TRACE_SPANS)),
    };
    let deadline = out.start_ns + duration.as_nanos() as u64;
    let mut i = 0usize;
    let mut op_id = (u64::from(ledger.writer)) << 40;
    loop {
        if i == stream.ops.len() {
            if !stream.wraps || stream.ops.is_empty() {
                out.exhausted_ns = Some(clock.now());
                break;
            }
            i = 0;
        }
        let op = stream.ops[i];
        i += 1;
        op_id += 1;
        if let BenchOp::Put { key, .. } = op {
            let stamp = ledger.issue(key);
            session.prepare_put(key, stamp);
        }
        let g0 = gen_store.checkpoint_generation();
        let t0 = clock.now();
        let reply = session.call(op)?;
        let t1 = clock.now();
        let checkpointed = gen_store.checkpoint_generation() != g0;
        if let Some(buf) = &mut out.spans {
            let name = if matches!(op, BenchOp::Get(_)) { "op.get" } else { "op.put" };
            let root = buf.push(Span { op: op_id, parent: ROOT, name, start: t0, end: t1 });
            if checkpointed {
                buf.push(Span { op: op_id, parent: root, name: "checkpoint", start: t0, end: t1 });
            }
        }
        if checkpointed {
            out.boundaries.push((t1 / 1000) as u32);
            out.charged.push((t0, t1));
        }
        let sample = Sample {
            end_us: (t1 / 1000) as u32,
            dur_ns: (t1 - t0).min(u64::from(u32::MAX)) as u32,
        };
        let acked = matches!(reply, Reply::Acked);
        match op {
            BenchOp::Get(_) => out.gets.push(sample),
            BenchOp::Put { .. } => out.puts.push(sample),
        }
        if acked {
            out.put_bytes_acked += session.put_bytes();
        }
        out.attempted += 1;
        out.failed += u64::from(settle(&mut ledger, op, reply, |k| session.check_found(k)));
        if t1 >= deadline {
            break;
        }
    }
    out.ledger = ledger;
    Ok(out)
}

/// Where a phase's workers send their ops.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    Store(&'a Store),
    Edge(SocketAddr, &'a Store),
}

impl<'a> Target<'a> {
    pub fn store(&self) -> &'a Store {
        match *self {
            Target::Store(s) | Target::Edge(_, s) => s,
        }
    }

    fn session(&self) -> std::io::Result<Session<'a>> {
        match *self {
            Target::Store(s) => Ok(Session::store(s)),
            Target::Edge(addr, s) => Session::edge(addr, s.heap().layout().value_size),
        }
    }
}

/// Runs one closed-loop phase: one worker per stream, all started
/// together, each with its own ledger.
pub fn run_phase(
    target: Target<'_>,
    streams: &[Stream],
    ledgers: Vec<Ledger>,
    clock: &Clock,
    duration: Duration,
    trace: bool,
) -> std::io::Result<Vec<WorkerOut>> {
    let start = Barrier::new(streams.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(ledgers)
            .map(|(stream, ledger)| {
                let start = &start;
                s.spawn(move || {
                    let session = target.session();
                    start.wait();
                    drive(&mut session?, stream, ledger, clock, duration, target.store(), trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("workload worker panicked")).collect()
    })
}
