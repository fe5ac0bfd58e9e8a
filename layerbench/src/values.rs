//! Value bytes and the correctness gate.
//!
//! Every value the benchmark writes is a pure function of `(key, stamp)`:
//! a 4-byte length header (the framing `li_server::service` expects, so an
//! edge GET of a bulk-loaded record unframes cleanly), then the key, the
//! stamp and a key-and-stamp-derived fill. A read is checked byte for byte
//! against the value its embedded stamp names, and the stamp is then
//! checked against the writes the benchmark issued. Stamp 0 is the
//! bulk-loaded value; a write stamp is `(writer + 1) << 40 | seq`, unique
//! per issued write.

use std::collections::{HashMap, HashSet};

use li_core::Key;

/// Length header carved out of each fixed-size record by the service.
pub const VLEN_HEADER: usize = 4;

const STAMP_SHIFT: u32 = 40;

/// SplitMix64 step: the benchmark's one source of derived bytes.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stamp of the `seq`-th write issued by `writer`.
pub fn stamp(writer: u32, seq: u64) -> u64 {
    ((u64::from(writer) + 1) << STAMP_SHIFT) | (seq & ((1 << STAMP_SHIFT) - 1))
}

/// Writer that issued `stamp` (`None` for the bulk-loaded stamp 0).
pub fn writer_of(stamp: u64) -> Option<u32> {
    (stamp >> STAMP_SHIFT).checked_sub(1).map(|w| w as u32)
}

/// Fills `out` with the client payload for `(key, stamp)`: key, stamp,
/// then derived bytes. `out` must hold at least 16 bytes.
pub fn payload(key: Key, stamp: u64, out: &mut [u8]) {
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&stamp.to_le_bytes());
    let mut s = key ^ stamp.rotate_left(29) ^ 0x5eed;
    for chunk in out[16..].chunks_mut(8) {
        let word = splitmix64(&mut s).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Fills `out` (one whole store record value) with the framed value for
/// `(key, stamp)`: length header, then [`payload`].
pub fn record(key: Key, stamp: u64, out: &mut [u8]) {
    let len = (out.len() - VLEN_HEADER) as u32;
    out[..VLEN_HEADER].copy_from_slice(&len.to_le_bytes());
    payload(key, stamp, &mut out[VLEN_HEADER..]);
}

/// Checks a client payload read back for `key`; returns its stamp.
pub fn check_payload(key: Key, got: &[u8], want_len: usize) -> Result<u64, String> {
    if got.len() != want_len || got.len() < 16 {
        return Err(format!("key {key}: payload of {} bytes, want {want_len}", got.len()));
    }
    let mut s = [0u8; 8];
    s.copy_from_slice(&got[8..16]);
    let stamp = u64::from_le_bytes(s);
    let mut want = vec![0u8; got.len()];
    payload(key, stamp, &mut want);
    if got != want.as_slice() {
        return Err(format!("key {key}: value bytes differ from value(key, stamp {stamp:#x})"));
    }
    Ok(stamp)
}

/// Checks a whole store record value read back for `key`; returns its stamp.
pub fn check_record(key: Key, got: &[u8]) -> Result<u64, String> {
    let mut h = [0u8; VLEN_HEADER];
    h.copy_from_slice(&got[..VLEN_HEADER]);
    let len = u32::from_le_bytes(h) as usize;
    if len != got.len() - VLEN_HEADER {
        return Err(format!("key {key}: length header {len}, want {}", got.len() - VLEN_HEADER));
    }
    check_payload(key, &got[VLEN_HEADER..], len)
}

/// One worker's record of what it wrote and read: the per-worker half of
/// the correctness gate. Writes by a single worker are sequential, so a
/// worker must read back its own last write of a key (or a later write by
/// another worker); reads of other workers' stamps are checked after the
/// run against their write logs.
#[derive(Debug, Default)]
pub struct Ledger {
    pub writer: u32,
    seq: u64,
    /// Last stamp this worker issued per key.
    last: HashMap<Key, u64>,
    /// Keys whose last write by this worker failed: their state is not
    /// determined, so reads and the final pass skip them.
    uncertain: HashSet<Key>,
    /// Every issued write, in issue order.
    pub issued: Vec<(Key, u64)>,
    /// Acknowledged inserts of keys that were not bulk-loaded.
    pub inserted: u64,
    /// Reads that returned another worker's stamp, checked post hoc.
    foreign: Vec<(Key, u64)>,
    pub mismatches: u64,
    pub first_mismatches: Vec<String>,
}

impl Ledger {
    pub fn new(writer: u32) -> Self {
        Ledger { writer, ..Ledger::default() }
    }

    /// Allocates the stamp of this worker's next write to `key`.
    pub fn issue(&mut self, key: Key) -> u64 {
        self.seq += 1;
        let s = stamp(self.writer, self.seq);
        self.issued.push((key, s));
        self.last.insert(key, s);
        s
    }

    /// Records the outcome of the write just issued to `key`.
    pub fn settle(&mut self, key: Key, ok: bool, insert: bool) {
        if ok {
            self.uncertain.remove(&key);
            self.inserted += u64::from(insert);
        } else {
            self.uncertain.insert(key);
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.first_mismatches.len() < 8 {
            self.first_mismatches.push(what);
        }
    }

    /// Checks one read of `key`: `Ok(Some(stamp))` found, `Ok(None)` not
    /// found, `Err` value bytes that failed [`check_record`].
    pub fn observe(&mut self, key: Key, read: Result<Option<u64>, String>) {
        let got = match read {
            Ok(Some(s)) => s,
            Ok(None) => return self.mismatch(format!("key {key}: not found")),
            Err(e) => return self.mismatch(e),
        };
        if self.uncertain.contains(&key) {
            return;
        }
        let mine = self.last.get(&key).copied();
        match writer_of(got) {
            None if mine.is_none() => {}
            Some(w) if w == self.writer && Some(got) == mine => {}
            Some(w) if w != self.writer => self.foreign.push((key, got)),
            _ => self.mismatch(format!(
                "key {key}: read stamp {got:#x}, but this worker last wrote {mine:?}"
            )),
        }
    }
}

/// Cross-worker checks over every ledger that touched one store.
pub struct WriteIndex {
    /// Per key: every stamp issued to it, and the last stamp per writer.
    by_key: HashMap<Key, (HashSet<u64>, HashMap<u32, u64>)>,
    uncertain: HashSet<Key>,
}

impl WriteIndex {
    pub fn new(ledgers: &[Ledger]) -> Self {
        let mut by_key: HashMap<Key, (HashSet<u64>, HashMap<u32, u64>)> = HashMap::new();
        let mut uncertain = HashSet::new();
        for l in ledgers {
            for &(k, s) in &l.issued {
                let e = by_key.entry(k).or_default();
                e.0.insert(s);
                e.1.insert(l.writer, s);
            }
            uncertain.extend(l.uncertain.iter().copied());
        }
        WriteIndex { by_key, uncertain }
    }

    /// Reads of another worker's stamp must name a write that worker
    /// issued to the same key.
    pub fn check_foreign(&self, ledgers: &mut [Ledger]) {
        for l in ledgers.iter_mut() {
            for (k, s) in std::mem::take(&mut l.foreign) {
                let known = self.by_key.get(&k).is_some_and(|(all, _)| all.contains(&s));
                if !known {
                    l.mismatch(format!("key {k}: read stamp {s:#x} that no worker wrote"));
                }
            }
        }
    }

    /// Keys written at least once, with the stamps their final value may
    /// carry: the last write of each worker that wrote them.
    pub fn finals(&self) -> impl Iterator<Item = (Key, Vec<u64>)> + '_ {
        self.by_key
            .iter()
            .filter(|(k, _)| !self.uncertain.contains(k))
            .map(|(&k, (_, last))| (k, last.values().copied().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_names_its_stamp() {
        let mut buf = vec![0u8; 200];
        record(42, stamp(3, 7), &mut buf);
        assert_eq!(check_record(42, &buf), Ok(stamp(3, 7)));
        assert_eq!(writer_of(stamp(3, 7)), Some(3));
        assert_eq!(writer_of(0), None);
        assert_eq!(check_payload(42, &buf[VLEN_HEADER..], 196), Ok(stamp(3, 7)));
    }

    #[test]
    fn planted_wrong_values_are_rejected() {
        let mut buf = vec![0u8; 200];
        // Another key's record.
        record(43, 0, &mut buf);
        assert!(check_record(42, &buf).is_err());
        // One flipped byte in the fill.
        record(42, 0, &mut buf);
        buf[150] ^= 1;
        assert!(check_record(42, &buf).is_err());
        // A missing length header (an unframed value).
        record(42, 0, &mut buf);
        buf[..VLEN_HEADER].fill(0);
        assert!(check_record(42, &buf).is_err());
    }

    #[test]
    fn ledger_rejects_stale_reads_of_own_writes() {
        let mut l = Ledger::new(0);
        l.observe(5, Ok(Some(0)));
        let s = l.issue(5);
        l.settle(5, true, false);
        l.observe(5, Ok(Some(s)));
        assert_eq!(l.mismatches, 0);
        l.observe(5, Ok(Some(0)));
        l.observe(6, Ok(None));
        assert_eq!(l.mismatches, 2);
    }

    #[test]
    fn foreign_reads_must_name_an_issued_write() {
        let mut a = Ledger::new(0);
        let mut b = Ledger::new(1);
        let s = a.issue(9);
        a.settle(9, true, false);
        b.observe(9, Ok(Some(s)));
        b.observe(9, Ok(Some(stamp(0, 99))));
        let mut ledgers = vec![a, b];
        WriteIndex::new(&ledgers).check_foreign(&mut ledgers);
        assert_eq!(ledgers[1].mismatches, 1);
    }
}
