//! The persistent slot table: layout, stamping, and image readback.
//!
//! The table is `clients × ring` fixed-size records living in the
//! simulated heap. Request ids carry their client in the high 16 bits
//! (`rid = client << 48 | seq`); a record's home slot is
//! `(client mod clients, seq mod ring)`, so a client with at most
//! `ring` requests in flight never overwrites a slot it still needs.
//!
//! Each record is [`RECORD_WORDS`] words:
//!
//! ```text
//! +0  rid   — written LAST, with a release store (the stamp)
//! +8  key   — plain
//! +16 meta  — plain: outcome, batch, and an 8-bit fold of rid
//! ```
//!
//! The meta word's rid tag makes torn cross-generation records
//! detectable: [`SlotRecord::decode`] rejects a record whose tag does
//! not match its rid, and the reader counts it as torn instead of
//! resolving it. Tearing needs only slot reuse, under any discipline:
//! release ordering persists a stamp *after* its own payload, but lets
//! a re-stamped slot's new plain payload persist *before* its new rid,
//! so a cut can hold the old rid over the new payload.

use lrp_exec::{DirectCtx, PmemCtx};
use lrp_lfds::MemImage;
use lrp_model::{Addr, Trace};

/// Root name under which the table's base address is registered.
pub const ROOT_BASE: &str = "det_base";
/// Root name carrying the number of client rows (scalar root).
pub const ROOT_CLIENTS: &str = "det_clients";
/// Root name carrying the per-client ring size (scalar root).
pub const ROOT_RING: &str = "det_ring";

/// Words per slot record: `[rid, key, meta]`.
pub const RECORD_WORDS: usize = 3;

const RID_SEQ_BITS: u32 = 48;
const RID_SEQ_MASK: u64 = (1 << RID_SEQ_BITS) - 1;

/// The client/channel id a request id carries (high 16 bits).
pub fn rid_client(rid: u64) -> u64 {
    rid >> RID_SEQ_BITS
}

/// The per-client sequence number a request id carries (low 48 bits).
pub fn rid_seq(rid: u64) -> u64 {
    rid & RID_SEQ_MASK
}

/// An 8-bit fold of the whole rid, stored in the meta word so a record
/// mixing words from two different stamps of the same slot is caught.
fn rid_tag(rid: u64) -> u64 {
    rid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56
}

/// Table geometry: `clients` rows of `ring` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSpec {
    /// Client rows. Distinct clients land on distinct rows as long as
    /// at most `clients` client ids are live (row = client mod clients).
    pub clients: u64,
    /// Slots per row. Must be at least the per-client in-flight window,
    /// or a stamp may overwrite a slot whose request is still uncertain.
    pub ring: u64,
}

impl Default for SlotSpec {
    fn default() -> Self {
        SlotSpec {
            clients: 64,
            ring: 32,
        }
    }
}

impl SlotSpec {
    /// Total records in the table.
    pub fn records(&self) -> u64 {
        self.clients * self.ring
    }

    /// Total heap words the table occupies.
    pub fn words(&self) -> usize {
        (self.records() as usize) * RECORD_WORDS
    }

    /// The record index a request id stamps.
    pub fn index_for(&self, rid: u64) -> u64 {
        let row = rid_client(rid) % self.clients;
        let slot = rid_seq(rid) % self.ring;
        row * self.ring + slot
    }

    /// Byte address of record `idx` in a table based at `base`.
    pub fn record_addr(&self, base: Addr, idx: u64) -> Addr {
        debug_assert!(idx < self.records());
        base + idx * (RECORD_WORDS as u64) * 8
    }
}

/// The operation class a slot record checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// An insert.
    Put,
    /// A delete.
    Del,
}

impl SlotKind {
    fn code(self) -> u64 {
        match self {
            SlotKind::Put => 1,
            SlotKind::Del => 2,
        }
    }

    fn from_code(c: u64) -> Option<SlotKind> {
        match c {
            1 => Some(SlotKind::Put),
            2 => Some(SlotKind::Del),
            _ => None,
        }
    }
}

/// One decoded slot record: everything the resolver needs to answer
/// "did request `rid` happen, and what did it do?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// The stamped request id.
    pub rid: u64,
    /// Key the operation targeted.
    pub key: u64,
    /// Operation class.
    pub kind: SlotKind,
    /// Functional outcome (`false` = key was already present/absent).
    pub applied: bool,
    /// Shard batch that executed the operation.
    pub batch: u64,
}

impl SlotRecord {
    /// Encodes the meta word: `tag << 56 | batch << 8 | kind << 1 |
    /// applied` (batch saturates at 48 bits).
    pub fn meta(&self) -> u64 {
        (rid_tag(self.rid) << 56)
            | ((self.batch & 0xFFFF_FFFF_FFFF) << 8)
            | (self.kind.code() << 1)
            | u64::from(self.applied)
    }

    /// Decodes raw `[rid, key, meta]` words back into a record.
    /// `None` when the words cannot be a coherent stamp: poisoned or
    /// zero rid, poisoned payload, unknown kind code, or a meta tag
    /// that does not fold from this rid (a cross-generation tear).
    pub fn decode(rid: u64, key: u64, meta: u64) -> Option<SlotRecord> {
        if rid == 0 || rid == Trace::POISON || key == Trace::POISON || meta == Trace::POISON {
            return None;
        }
        if meta >> 56 != rid_tag(rid) {
            return None;
        }
        let kind = SlotKind::from_code((meta >> 1) & 0x3)?;
        Some(SlotRecord {
            rid,
            key,
            kind,
            applied: meta & 1 == 1,
            batch: (meta >> 8) & 0xFFFF_FFFF_FFFF,
        })
    }
}

/// The volatile mirror of the table's durable contents, read back from
/// the shard's durable image after every commit and re-written when the
/// shard builds a fresh image (at start-up and at compaction), so
/// committed stamps survive into it.
#[derive(Debug, Clone)]
pub struct SlotTable {
    spec: SlotSpec,
    recs: Vec<Option<SlotRecord>>,
}

impl SlotTable {
    /// An empty table of the given geometry.
    pub fn new(spec: SlotSpec) -> SlotTable {
        SlotTable {
            spec,
            recs: vec![None; spec.records() as usize],
        }
    }

    /// The geometry.
    pub fn spec(&self) -> SlotSpec {
        self.spec
    }

    /// Occupied records.
    pub fn occupied(&self) -> u64 {
        self.recs.iter().filter(|r| r.is_some()).count() as u64
    }

    /// Iterates the occupied records.
    pub fn iter(&self) -> impl Iterator<Item = &SlotRecord> {
        self.recs.iter().filter_map(|r| r.as_ref())
    }

    /// The record currently homed at `rid`'s slot, if any.
    pub fn get(&self, rid: u64) -> Option<&SlotRecord> {
        self.recs[self.spec.index_for(rid) as usize].as_ref()
    }

    /// Installs `rec` at its home slot (newest stamp wins).
    pub fn put(&mut self, rec: SlotRecord) {
        let idx = self.spec.index_for(rec.rid) as usize;
        self.recs[idx] = Some(rec);
    }
}

/// Stamps one operation's slot record through a [`PmemCtx`]: payload
/// words plain, then the rid word with a **release** store. The release
/// is the whole trick — it persist-orders the payload *and* every
/// program-order-earlier write of the operation body before the stamp,
/// so a recovered stamp certifies the outcome it encodes.
pub async fn stamp<C: PmemCtx>(c: &mut C, base: Addr, spec: &SlotSpec, rec: &SlotRecord) {
    let a = spec.record_addr(base, spec.index_for(rec.rid));
    c.write(a + 8, rec.key).await;
    c.write(a + 16, rec.meta()).await;
    c.write_rel(a, rec.rid).await;
}

/// Re-writes a table's committed records while a fresh image is built
/// (those writes are the image's contents, durable by construction).
/// Empty slots are left unwritten and read back as poison.
pub fn write_table_setup(c: &mut DirectCtx, base: Addr, table: &SlotTable) {
    let spec = table.spec;
    for rec in table.iter() {
        let a = spec.record_addr(base, spec.index_for(rec.rid));
        c.write(a, rec.rid);
        c.write(a + 8, rec.key);
        c.write(a + 16, rec.meta());
    }
}

/// Finds the table's base address and geometry among a trace's
/// registered roots. `None` when the trace carries no slot table.
pub fn table_roots(roots: &[(String, Addr)]) -> Option<(Addr, SlotSpec)> {
    let find = |name: &str| roots.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let base = find(ROOT_BASE)?;
    let clients = find(ROOT_CLIENTS)?;
    let ring = find(ROOT_RING)?;
    if clients == 0 || ring == 0 {
        return None;
    }
    Some((base, SlotSpec { clients, ring }))
}

/// Outcome of reading a table back from a (crash-cut) memory image.
#[derive(Debug, Clone)]
pub struct TableScan {
    /// The coherently-recovered records.
    pub table: SlotTable,
    /// Slots whose rid word was written but whose record did not decode
    /// — a torn stamp. Any discipline tears a slot being re-stamped
    /// (old rid over new payload); a table with no reuse stays at zero
    /// under a sound one.
    pub torn: u64,
}

/// Reads the slot table out of a raw memory image. Total: never fails,
/// never panics — incoherent slots are counted, not resolved.
pub fn read_table(image: &MemImage, base: Addr, spec: SlotSpec) -> TableScan {
    let mut table = SlotTable::new(spec);
    let mut torn = 0;
    for idx in 0..spec.records() {
        let a = spec.record_addr(base, idx);
        let rid = image.read(a);
        if rid == Trace::POISON || rid == 0 {
            continue; // never stamped
        }
        match SlotRecord::decode(rid, image.read(a + 8), image.read(a + 16)) {
            // A record homed at the wrong slot is a corrupt image, not
            // a stamp we can trust.
            Some(rec) if spec.index_for(rec.rid) == idx => table.put(rec),
            _ => torn += 1,
        }
    }
    TableScan { table, torn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_model::{Annot, EventKind};

    fn rid(client: u64, seq: u64) -> u64 {
        (client << 48) | seq
    }

    fn rec(client: u64, seq: u64, key: u64) -> SlotRecord {
        SlotRecord {
            rid: rid(client, seq),
            key,
            kind: if seq.is_multiple_of(2) {
                SlotKind::Put
            } else {
                SlotKind::Del
            },
            applied: seq.is_multiple_of(3),
            batch: seq / 4,
        }
    }

    #[test]
    fn indexing_separates_clients_and_wraps_rings() {
        let spec = SlotSpec {
            clients: 4,
            ring: 8,
        };
        assert_eq!(spec.index_for(rid(1, 0)), 8);
        assert_eq!(spec.index_for(rid(1, 7)), 15);
        assert_eq!(spec.index_for(rid(1, 8)), 8, "ring wraps");
        assert_eq!(spec.index_for(rid(5, 0)), 8, "rows wrap at clients");
        assert_ne!(spec.index_for(rid(2, 3)), spec.index_for(rid(3, 3)));
    }

    #[test]
    fn meta_round_trips_every_field() {
        for client in [1, 7, 65535] {
            for seq in 0..16 {
                let r = rec(client, seq, 1000 + seq);
                let back = SlotRecord::decode(r.rid, r.key, r.meta()).expect("coherent record");
                assert_eq!(back, r);
            }
        }
    }

    #[test]
    fn decode_rejects_poison_zero_and_mismatched_tags() {
        let r = rec(3, 5, 42);
        assert_eq!(SlotRecord::decode(0, r.key, r.meta()), None);
        assert_eq!(SlotRecord::decode(Trace::POISON, r.key, r.meta()), None);
        assert_eq!(SlotRecord::decode(r.rid, Trace::POISON, r.meta()), None);
        assert_eq!(SlotRecord::decode(r.rid, r.key, Trace::POISON), None);
        // A meta word folded from a different rid is a torn record.
        let other = rec(3, 5 + 32, 42);
        assert_ne!(rid_tag(r.rid), rid_tag(other.rid), "tags distinguish");
        assert_eq!(SlotRecord::decode(r.rid, r.key, other.meta()), None);
    }

    #[test]
    fn stamp_emits_payload_then_release_on_the_rid_word() {
        let spec = SlotSpec::default();
        let r = rec(2, 9, 77);
        let trace = lrp_exec::run(
            &lrp_exec::ExecConfig::new(1),
            |_| {},
            vec![lrp_exec::body(move |mut c| async move {
                let base = c.alloc(spec.words());
                stamp(&mut c, base, &spec, &r).await;
            })],
        );
        let events = trace.events;
        // Worker 0's arena is the first in the heap.
        let base = lrp_exec::ctx::HEAP_BASE;
        assert_eq!(events.len(), 3);
        assert!(events[..2]
            .iter()
            .all(|e| e.kind == EventKind::Write && e.annot == Annot::Plain));
        let last = &events[2];
        assert_eq!(last.annot, Annot::Release, "the stamp is a release");
        assert_eq!(last.addr, spec.record_addr(base, spec.index_for(r.rid)));
        assert_eq!(last.wval, r.rid);
    }

    #[test]
    fn table_round_trips_through_a_memory_image() {
        let mut c = DirectCtx::new(1, 1);
        let spec = SlotSpec {
            clients: 8,
            ring: 4,
        };
        let base = c.alloc(spec.words());
        let mut table = SlotTable::new(spec);
        for client in 1..=6 {
            for seq in 0..3 {
                table.put(rec(client, seq, client * 100 + seq));
            }
        }
        write_table_setup(&mut c, base, &table);
        let image = MemImage::new(c.mem.snapshot());
        let scan = read_table(&image, base, spec);
        assert_eq!(scan.torn, 0);
        assert_eq!(scan.table.occupied(), 18);
        for r in table.iter() {
            assert_eq!(scan.table.get(r.rid), Some(r));
        }
        // Untouched slots stay empty.
        assert_eq!(scan.table.get(rid(7, 0)), None);
    }

    #[test]
    fn torn_records_are_counted_not_resolved() {
        let spec = SlotSpec {
            clients: 2,
            ring: 2,
        };
        let base = 0x5000;
        let r = rec(1, 1, 9);
        let a = spec.record_addr(base, spec.index_for(r.rid));
        // rid persisted but the payload never did: torn.
        let image = MemImage::new([(a, r.rid)]);
        let scan = read_table(&image, base, spec);
        assert_eq!(scan.torn, 1);
        assert_eq!(scan.table.occupied(), 0);
    }

    #[test]
    fn roots_round_trip() {
        let spec = SlotSpec {
            clients: 16,
            ring: 8,
        };
        let roots = vec![
            ("head".to_string(), 0x40u64),
            (ROOT_BASE.to_string(), 0x9000),
            (ROOT_CLIENTS.to_string(), spec.clients),
            (ROOT_RING.to_string(), spec.ring),
        ];
        assert_eq!(table_roots(&roots), Some((0x9000, spec)));
        assert_eq!(table_roots(&roots[..1]), None);
    }
}
