//! The system under test: `ConcurrentViperStore<AnyConcurrentIndex>` with
//! ALEX over the default 16-shard router, `StoreConfig::paper` (Optane
//! latency model, 200-byte values), WAL + checkpoints on and the telemetry
//! recorder enabled — the store as li-server serves it.

use std::sync::Arc;
use std::time::Instant;

use li_core::{Key, KeyValue};
use li_server::{Server, ServiceConfig};
use li_telemetry::Recorder;
use li_viper::{ConcurrentViperStore, DurabilityConfig, StoreConfig};
use lip::{AnyConcurrentIndex, ConcurrentKind, IndexKind};

use crate::values;

pub type Store = ConcurrentViperStore<AnyConcurrentIndex>;

pub fn kind() -> ConcurrentKind {
    ConcurrentKind::of(IndexKind::Alex).expect("ALEX supports inserts")
}

pub fn build_index(pairs: &[KeyValue]) -> AnyConcurrentIndex {
    AnyConcurrentIndex::build(kind(), pairs)
}

/// Bulk-loads `loaded` (ascending) with every value at stamp 0 into a store
/// sized for `capacity` records. `wal_records: None` builds the WAL-free
/// store the ladder's lower rungs use.
pub fn load(loaded: &[Key], capacity: usize, wal_records: Option<u64>) -> Store {
    let mut cfg = StoreConfig::paper(capacity);
    if let Some(ring) = wal_records {
        cfg = cfg.with_durability(DurabilityConfig::sized_for(capacity + 1024, ring));
    }
    Store::bulk_load_shared(cfg, loaded, |k, buf| values::record(k, 0, buf), build_index)
}

/// The served store: WAL on, recorder on, service ladder installed.
pub fn load_served(loaded: &[Key], capacity: usize, wal_records: u64) -> Store {
    let mut store = load(loaded, capacity, Some(wal_records));
    store.set_recorder(Recorder::enabled());
    ServiceConfig::default().install(&mut store);
    store
}

/// Builds the served store `repeats` times and keeps the last one;
/// returns it with each build's wall time in seconds. Earlier builds are
/// dropped before the next starts, so at most two are alive at once.
pub fn load_repeated(
    loaded: &[Key],
    capacity: usize,
    wal_records: u64,
    repeats: usize,
) -> (Store, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let store = load_served(loaded, capacity, wal_records);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(store);
    }
    (kept.expect("at least one build"), times)
}

/// li-server over loopback with `ServiceConfig::default()`; returns the
/// server and its spawn time in seconds.
pub fn serve(store: &Arc<Store>) -> std::io::Result<(Server<AnyConcurrentIndex>, f64)> {
    let t = Instant::now();
    let server = Server::spawn(Arc::clone(store), ServiceConfig::default(), "127.0.0.1:0")?;
    Ok((server, t.elapsed().as_secs_f64()))
}
