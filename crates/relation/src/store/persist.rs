//! Durable on-disk format for columnar relation snapshots.
//!
//! A persisted relation is a directory of *segment files*, each carrying a
//! 16-byte header (magic `DQSG`, format version, segment kind, payload
//! length) and a trailing FNV-1a checksum:
//!
//! ```text
//! <dir>/
//!   MANIFEST            schema, identity, shard layout, dictionary chains
//!   col<i>.dict.<k>     dictionary chain segment k of column i (values in
//!                       id order; later segments are append-only overlays)
//!   col<i>.shard.<j>    the ids of shard j of column i (u32 LE, 4-aligned)
//!   rows.seg            explicit tuple ids (absent when row == tuple id)
//! ```
//!
//! The `MANIFEST` is written last via an atomic rename, so a crashed or
//! interrupted save never yields a readable-but-wrong relation: either the
//! old manifest still describes the old (complete) segment set, or no
//! manifest exists and the open fails cleanly.
//!
//! [`ColumnarStore::save_to`] persists a snapshot; when the target directory
//! already holds an earlier snapshot of the same instance and the instance
//! only grew since (an empty journaled delta), the save is *incremental*: only shards past
//! the old high-water mark are written and each dictionary spills just its
//! overlay (the entries interned since the previous save) as a new chain
//! segment.  [`open_mmap`] re-hydrates a [`MappedRelation`]: dictionaries
//! are decoded once (`O(distinct values)`), id segments are memory-mapped
//! ([`super::mmap`]) and paged in on demand, and the result serves the
//! shard-cursor execution paths through [`ShardSource`].

use super::columnar::{Column, ColumnarStore, MappedIds, SHARD_ROWS};
use super::fx::FxHashMap;
use super::interner::{DictValues, ValueId, ValueInterner};
use super::mmap::MappedBytes;
use super::shard::ShardSource;
use crate::error::{DqError, DqResult};
use crate::instance::{RelationInstance, TupleId};
use crate::par::{available_threads, parallel_map};
use crate::schema::{Attribute, Domain, RelationSchema};
use crate::value::Value;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"DQSG";
const HEADER_LEN: usize = 16;
/// Id payloads carry an 16-byte preamble (count + padding) so the raw ids
/// start at file offset 32 — a multiple of the `u32` alignment, which is
/// what lets mapped segments be reinterpreted as `&[ValueId]` zero-copy.
const ID_PREAMBLE: usize = 16;

/// Segment kinds (the `kind` field of the header).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Manifest = 1,
    Dict = 2,
    ShardIds = 3,
    TupleIds = 4,
}

// ---------------------------------------------------------------------------
// Checksums and primitive encoding
// ---------------------------------------------------------------------------

/// Incremental FNV-1a (64-bit) hasher.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn io_err(path: &Path, e: std::io::Error) -> DqError {
    DqError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> DqError {
    DqError::CorruptSegment {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Encoded size of one value (tag byte + payload).
fn value_encoded_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Real(_) => 9,
        Value::Str(s) => 1 + 4 + s.len(),
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            out.push(3);
            out.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_domain(d: &Domain, out: &mut Vec<u8>) {
    match d {
        Domain::Int => out.push(0),
        Domain::Real => out.push(1),
        Domain::Text => out.push(2),
        Domain::Bool => out.push(3),
        Domain::Finite(vs) => {
            out.push(4);
            out.extend_from_slice(&(vs.len() as u64).to_le_bytes());
            for v in vs.iter() {
                encode_value(v, out);
            }
        }
    }
}

/// Bounds-checked little-endian reader over a segment payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Cursor { buf, pos: 0, path }
    }

    fn take(&mut self, n: usize) -> DqResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(corrupt(self.path, "payload truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> DqResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DqResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> DqResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> DqResult<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| corrupt(self.path, "invalid utf-8 string"))
    }

    fn value(&mut self) -> DqResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))),
            3 => Ok(Value::Real(f64::from_bits(self.u64()?))),
            4 => Ok(Value::str(self.str()?)),
            tag => Err(corrupt(self.path, format!("unknown value tag {tag}"))),
        }
    }

    fn domain(&mut self) -> DqResult<Domain> {
        match self.u8()? {
            0 => Ok(Domain::Int),
            1 => Ok(Domain::Real),
            2 => Ok(Domain::Text),
            3 => Ok(Domain::Bool),
            4 => {
                let n = self.u64()? as usize;
                let mut vs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    vs.push(self.value()?);
                }
                Ok(Domain::Finite(vs.into()))
            }
            tag => Err(corrupt(self.path, format!("unknown domain tag {tag}"))),
        }
    }

    fn finish(self) -> DqResult<()> {
        if self.pos != self.buf.len() {
            return Err(corrupt(self.path, "trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Segment writing and reading
// ---------------------------------------------------------------------------

/// Streams one segment to disk: header first (the payload length must be
/// known up front), payload in chunks, checksum trailer last.
struct SegmentWriter {
    out: BufWriter<File>,
    hash: Fnv,
    path: PathBuf,
    remaining: u64,
}

impl SegmentWriter {
    fn create(path: &Path, kind: Kind, payload_len: u64) -> DqResult<Self> {
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&(kind as u16).to_le_bytes());
        header[8..16].copy_from_slice(&payload_len.to_le_bytes());
        let mut hash = Fnv::new();
        hash.update(&header);
        let mut out = BufWriter::new(file);
        out.write_all(&header).map_err(|e| io_err(path, e))?;
        Ok(SegmentWriter {
            out,
            hash,
            path: path.to_path_buf(),
            remaining: payload_len,
        })
    }

    fn write(&mut self, bytes: &[u8]) -> DqResult<()> {
        debug_assert!(bytes.len() as u64 <= self.remaining, "payload overflow");
        self.remaining -= bytes.len() as u64;
        self.hash.update(bytes);
        self.out.write_all(bytes).map_err(|e| io_err(&self.path, e))
    }

    /// Writes the checksum trailer and flushes.  Returns total file bytes.
    fn finish(mut self) -> DqResult<u64> {
        assert_eq!(self.remaining, 0, "payload shorter than declared");
        let sum = self.hash.finish().to_le_bytes();
        self.out
            .write_all(&sum)
            .map_err(|e| io_err(&self.path, e))?;
        self.out.flush().map_err(|e| io_err(&self.path, e))?;
        let len = self
            .out
            .get_ref()
            .metadata()
            .map_err(|e| io_err(&self.path, e))?
            .len();
        dq_obs::add("store.io.save_bytes", len);
        dq_obs::inc("store.io.segments_written");
        Ok(len)
    }
}

/// Writes a fully buffered segment in one go.
fn write_segment(path: &Path, kind: Kind, payload: &[u8]) -> DqResult<u64> {
    let mut w = SegmentWriter::create(path, kind, payload.len() as u64)?;
    w.write(payload)?;
    w.finish()
}

/// An opened, header-validated segment: the mapped file plus its payload
/// range.
struct Segment {
    bytes: Arc<MappedBytes>,
    payload: Range<usize>,
}

impl Segment {
    fn payload(&self) -> &[u8] {
        &self.bytes[self.payload.clone()]
    }
}

/// Opens and validates one segment.  The header (magic, format version,
/// kind, length) is always validated; the payload checksum is verified only
/// when `verify` is set — id segments skip it by default so opening a
/// multi-gigabyte relation doesn't fault every page in just to add bytes
/// up.
fn open_segment(path: &Path, kind: Kind, verify: bool) -> DqResult<Segment> {
    let start = std::time::Instant::now();
    let bytes = Arc::new(MappedBytes::open(path).map_err(|e| io_err(path, e))?);
    if bytes.len() < HEADER_LEN + 8 {
        return Err(corrupt(path, "file shorter than segment header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(DqError::VersionMismatch {
            path: path.display().to_string(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let found_kind = u16::from_le_bytes([bytes[6], bytes[7]]);
    if found_kind != kind as u16 {
        return Err(corrupt(
            path,
            format!("expected segment kind {}, found {found_kind}", kind as u16),
        ));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    if HEADER_LEN + payload_len + 8 != bytes.len() {
        return Err(corrupt(path, "declared payload length disagrees with file"));
    }
    if verify {
        let mut hash = Fnv::new();
        hash.update(&bytes[..HEADER_LEN + payload_len]);
        let stored = u64::from_le_bytes(bytes[HEADER_LEN + payload_len..].try_into().unwrap());
        if hash.finish() != stored {
            return Err(corrupt(path, "checksum mismatch"));
        }
    }
    dq_obs::inc("store.io.segments_loaded");
    dq_obs::record(
        "store.io.segment_load_ns",
        start.elapsed().as_nanos() as u64,
    );
    Ok(Segment {
        bytes,
        payload: HEADER_LEN..HEADER_LEN + payload_len,
    })
}

// ---------------------------------------------------------------------------
// File naming
// ---------------------------------------------------------------------------

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

fn dict_path(dir: &Path, attr: usize, seg: usize) -> PathBuf {
    dir.join(format!("col{attr}.dict.{seg}"))
}

fn shard_path(dir: &Path, attr: usize, shard: usize) -> PathBuf {
    dir.join(format!("col{attr}.shard.{shard}"))
}

fn rows_path(dir: &Path) -> PathBuf {
    dir.join("rows.seg")
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Decoded MANIFEST contents.
#[derive(Clone, Debug)]
struct Manifest {
    schema: Arc<RelationSchema>,
    instance_id: u64,
    version: u64,
    shard_rows: usize,
    rows: usize,
    /// `true` when tuple ids are the identity of row positions (no
    /// `rows.seg`).
    identity_rows: bool,
    /// Per column: entry count of each dictionary chain segment.
    dict_chains: Vec<Vec<u64>>,
}

impl Manifest {
    fn shard_count(&self) -> usize {
        self.rows.div_ceil(self.shard_rows.max(1)).max(1)
    }

    fn shard_len(&self, shard: usize) -> usize {
        let start = (shard * self.shard_rows).min(self.rows);
        let end = ((shard + 1) * self.shard_rows).min(self.rows);
        end - start
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_str(self.schema.name(), &mut out);
        out.extend_from_slice(&(self.schema.arity() as u64).to_le_bytes());
        for attr in self.schema.attributes() {
            encode_str(&attr.name, &mut out);
            encode_domain(&attr.domain, &mut out);
        }
        out.extend_from_slice(&self.instance_id.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.shard_rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        out.push(u8::from(self.identity_rows));
        for chain in &self.dict_chains {
            out.extend_from_slice(&(chain.len() as u64).to_le_bytes());
            for &count in chain {
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        out
    }

    fn decode(payload: &[u8], path: &Path) -> DqResult<Manifest> {
        let mut c = Cursor::new(payload, path);
        let name = c.str()?;
        let arity = c.u64()? as usize;
        if arity > 1 << 20 {
            return Err(corrupt(path, "implausible arity"));
        }
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            let attr_name = c.str()?;
            let domain = c.domain()?;
            attrs.push(Attribute::new(attr_name, domain));
        }
        let schema = Arc::new(RelationSchema::new(
            name,
            attrs.into_iter().map(|a| (a.name, a.domain)),
        ));
        let instance_id = c.u64()?;
        let version = c.u64()?;
        let shard_rows = c.u64()? as usize;
        let rows = c.u64()? as usize;
        if shard_rows == 0 {
            return Err(corrupt(path, "zero shard size"));
        }
        let identity_rows = c.u8()? != 0;
        let mut dict_chains = Vec::with_capacity(arity);
        for _ in 0..arity {
            let segs = c.u64()? as usize;
            if segs > 1 << 20 {
                return Err(corrupt(path, "implausible dictionary chain length"));
            }
            let mut chain = Vec::with_capacity(segs);
            for _ in 0..segs {
                chain.push(c.u64()?);
            }
            dict_chains.push(chain);
        }
        c.finish()?;
        Ok(Manifest {
            schema,
            instance_id,
            version,
            shard_rows,
            rows,
            identity_rows,
            dict_chains,
        })
    }

    /// Writes the manifest atomically: temp file, then rename over.
    fn write(&self, dir: &Path) -> DqResult<u64> {
        let tmp = dir.join("MANIFEST.tmp");
        let len = write_segment(&tmp, Kind::Manifest, &self.encode())?;
        fs::rename(&tmp, manifest_path(dir)).map_err(|e| io_err(&tmp, e))?;
        Ok(len)
    }

    fn read(dir: &Path) -> DqResult<Manifest> {
        let path = manifest_path(dir);
        let seg = open_segment(&path, Kind::Manifest, true)?;
        Manifest::decode(seg.payload(), &path)
    }
}

// ---------------------------------------------------------------------------
// Low-level payload writers
// ---------------------------------------------------------------------------

/// Writes one shard's ids segment from (possibly several) id slices.
fn write_ids_segment(path: &Path, slices: &[&[ValueId]]) -> DqResult<u64> {
    let count: usize = slices.iter().map(|s| s.len()).sum();
    let payload_len = (ID_PREAMBLE + count * 4) as u64;
    let mut w = SegmentWriter::create(path, Kind::ShardIds, payload_len)?;
    let mut preamble = [0u8; ID_PREAMBLE];
    preamble[0..8].copy_from_slice(&(count as u64).to_le_bytes());
    w.write(&preamble)?;
    let mut buf = Vec::with_capacity(4 << 10);
    for slice in slices {
        for id in *slice {
            buf.extend_from_slice(&id.0.to_le_bytes());
            if buf.len() >= (4 << 10) {
                w.write(&buf)?;
                buf.clear();
            }
        }
    }
    w.write(&buf)?;
    w.finish()
}

/// Writes one dictionary chain segment (values in id order).
fn write_dict_segment(path: &Path, values: DictValues<'_>) -> DqResult<u64> {
    let payload_len = 8 + values.iter().map(value_encoded_len).sum::<usize>();
    let mut w = SegmentWriter::create(path, Kind::Dict, payload_len as u64)?;
    w.write(&(values.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(16 << 10);
    for v in values {
        encode_value(v, &mut buf);
        if buf.len() >= (16 << 10) {
            w.write(&buf)?;
            buf.clear();
        }
    }
    w.write(&buf)?;
    dq_obs::add("store.io.spill_dict_entries", values.len() as u64);
    w.finish()
}

/// Writes the explicit tuple-id segment: `count` ids, read from `rows` in
/// order.
fn write_rows_segment(
    path: &Path,
    count: usize,
    rows: impl Iterator<Item = TupleId>,
) -> DqResult<u64> {
    let mut w = SegmentWriter::create(path, Kind::TupleIds, (8 + count * 8) as u64)?;
    w.write(&(count as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(8 << 10);
    for id in rows {
        buf.extend_from_slice(&(id.0 as u64).to_le_bytes());
        if buf.len() >= (8 << 10) {
            w.write(&buf)?;
            buf.clear();
        }
    }
    w.write(&buf)?;
    w.finish()
}

/// Opens one shard ids segment, returning the mapped view of its ids.
fn open_ids_segment(path: &Path, expected: usize, verify: bool) -> DqResult<MappedIds> {
    let seg = open_segment(path, Kind::ShardIds, verify)?;
    let payload = seg.payload();
    if payload.len() < ID_PREAMBLE {
        return Err(corrupt(path, "ids payload shorter than preamble"));
    }
    let count = u64::from_le_bytes(payload[0..8].try_into().unwrap()) as usize;
    if count != expected {
        return Err(corrupt(
            path,
            format!("shard carries {count} ids, manifest expects {expected}"),
        ));
    }
    if payload.len() != ID_PREAMBLE + count * 4 {
        return Err(corrupt(path, "ids payload length disagrees with count"));
    }
    Ok(MappedIds {
        offset: seg.payload.start + ID_PREAMBLE,
        count,
        bytes: seg.bytes,
    })
}

/// Opens a dictionary chain, returning the interner (all entries frozen).
fn open_dict_chain(dir: &Path, attr: usize, chain: &[u64]) -> DqResult<ValueInterner> {
    let total: u64 = chain.iter().sum();
    let mut values = Vec::with_capacity(total as usize);
    for (k, &expected) in chain.iter().enumerate() {
        let path = dict_path(dir, attr, k);
        let seg = open_segment(&path, Kind::Dict, true)?;
        let payload = seg.payload();
        let mut c = Cursor::new(payload, &path);
        let count = c.u64()?;
        if count != expected {
            return Err(corrupt(
                &path,
                format!("dictionary segment carries {count} entries, manifest expects {expected}"),
            ));
        }
        for _ in 0..count {
            values.push(c.value()?);
        }
        c.finish()?;
    }
    dq_obs::add("store.io.open_dict_entries", values.len() as u64);
    Ok(ValueInterner::from_frozen(values))
}

// ---------------------------------------------------------------------------
// Saving a ColumnarStore
// ---------------------------------------------------------------------------

/// Counters describing one [`ColumnarStore::save_to`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaveStats {
    /// Rows described by the new manifest.
    pub rows: usize,
    /// Shard segments (re)written — on an incremental save, only the shards
    /// past the previous high-water mark.
    pub shards_written: usize,
    /// Dictionary entries spilled — on an incremental save, only each
    /// column's overlay.
    pub dict_entries_spilled: usize,
    /// Total bytes written, including the manifest.
    pub bytes_written: u64,
    /// Did the save extend an earlier snapshot instead of rewriting?
    pub incremental: bool,
}

impl ColumnarStore {
    /// Persists this snapshot into `dir` (created if missing) under the
    /// default [`SHARD_ROWS`] shard size.  See
    /// [`save_to_with_shard_rows`](Self::save_to_with_shard_rows).
    pub fn save_to(&self, instance: &RelationInstance, dir: &Path) -> DqResult<SaveStats> {
        self.save_to_with_shard_rows(instance, dir, SHARD_ROWS)
    }

    /// Persists this snapshot into `dir` with an explicit shard size (the
    /// bench smoke paths shrink it to exercise multi-shard layouts on small
    /// data).
    ///
    /// `dir` is managed exclusively by the persist layer.  When it already
    /// holds a snapshot of the *same instance* at the *same shard size* and
    /// the instance's delta journal shows no net cell change and no removal
    /// since that snapshot ([`RelationInstance::delta_since`] is empty), the
    /// persisted rows are a prefix of the current ones and the save is
    /// incremental: unchanged complete shards and already-spilled
    /// dictionary prefixes are left untouched.  Any other situation (first
    /// save, different instance, edits or deletions in between, a gap the
    /// journal no longer covers) rewrites the directory from scratch.
    pub fn save_to_with_shard_rows(
        &self,
        instance: &RelationInstance,
        dir: &Path,
        shard_rows: usize,
    ) -> DqResult<SaveStats> {
        let _span = dq_obs::span!("store.io.save");
        let shard_rows = shard_rows.max(1);
        let identity_rows = self.rows().enumerate().all(|(row, id)| id.0 == row);
        let prev = Manifest::read(dir).ok();
        let incremental = prev.as_ref().is_some_and(|m| {
            m.instance_id == self.instance_id()
                && m.shard_rows == shard_rows
                && m.rows <= self.len()
                && m.identity_rows == identity_rows
                && m.schema.as_ref() == instance.schema().as_ref()
                && instance
                    .delta_since(m.version)
                    .is_some_and(|d| d.is_empty())
        });
        if !incremental && dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;

        let arity = instance.schema().arity();
        let columns: Vec<Arc<Column>> = (0..arity).map(|a| self.column(instance, a)).collect();
        let mut stats = SaveStats {
            rows: self.len(),
            incremental,
            ..SaveStats::default()
        };

        // Shards: everything on a fresh save; only the shards at or past the
        // previous (possibly partial) last shard on an incremental one.
        let shard_count = self.len().div_ceil(shard_rows).max(1);
        let first_shard = match &prev {
            Some(m) if incremental => m.rows / shard_rows,
            _ => 0,
        };
        for shard in first_shard..shard_count {
            let range =
                (shard * shard_rows).min(self.len())..((shard + 1) * shard_rows).min(self.len());
            if range.is_empty() && shard > 0 {
                continue;
            }
            for (attr, col) in columns.iter().enumerate() {
                let slices = col.shard_ids(range.clone());
                stats.bytes_written += write_ids_segment(&shard_path(dir, attr, shard), &slices)?;
                stats.shards_written += usize::from(attr == 0);
            }
        }

        // Dictionaries: the full dictionary as segment 0 on a fresh save;
        // only the overlay past the previously persisted prefix on an
        // incremental one.
        let mut dict_chains: Vec<Vec<u64>> = match &prev {
            Some(m) if incremental => m.dict_chains.clone(),
            _ => vec![Vec::new(); arity],
        };
        for (attr, col) in columns.iter().enumerate() {
            let persisted: u64 = dict_chains[attr].iter().sum();
            let values = col.interner().values();
            debug_assert!(persisted as usize <= values.len());
            let overlay = values.slice(persisted as usize..values.len());
            if !overlay.is_empty() || dict_chains[attr].is_empty() {
                let seg = dict_chains[attr].len();
                stats.bytes_written += write_dict_segment(&dict_path(dir, attr, seg), overlay)?;
                stats.dict_entries_spilled += overlay.len();
                dict_chains[attr].push(overlay.len() as u64);
            }
        }

        if !identity_rows {
            stats.bytes_written += write_rows_segment(&rows_path(dir), self.len(), self.rows())?;
        }

        let manifest = Manifest {
            schema: Arc::clone(instance.schema()),
            instance_id: self.instance_id(),
            version: self.version(),
            shard_rows,
            rows: self.len(),
            identity_rows,
            dict_chains,
        };
        stats.bytes_written += manifest.write(dir)?;
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

/// Streams rows into a persisted relation without materializing an instance
/// or an in-RAM store: cells are interned straight into per-column
/// dictionaries, shard id buffers are flushed to disk as they fill, and
/// dictionaries spill once at [`finish`](Self::finish).  Used by
/// [`crate::csv::stream_into_store`] and the chunked bulk-load paths; peak
/// memory is O(dictionaries + one shard).
///
/// [`RelationWriter::append_to`] re-opens an existing relation for further
/// appends: the persisted dictionaries are re-hydrated *frozen*
/// ([`ValueInterner::from_frozen`]), so only genuinely new values are
/// interned and only they are spilled again — the on-disk dictionary prefix
/// is never rewritten.
pub struct RelationWriter {
    dir: PathBuf,
    schema: Arc<RelationSchema>,
    shard_rows: usize,
    dicts: Vec<ValueInterner>,
    dict_chains: Vec<Vec<u64>>,
    /// Id buffer of the current (partial) shard, per column.
    buf: Vec<Vec<ValueId>>,
    /// Rows in fully flushed shards.
    flushed_rows: usize,
    shards_flushed: usize,
    bytes_written: u64,
    /// Identity carried into the manifest (provenance only).
    instance_id: u64,
    version: u64,
}

impl RelationWriter {
    /// Starts a fresh relation at `dir` (wiping whatever was there).
    pub fn create(
        dir: &Path,
        schema: Arc<RelationSchema>,
        shard_rows: usize,
    ) -> DqResult<RelationWriter> {
        if dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let arity = schema.arity();
        Ok(RelationWriter {
            dir: dir.to_path_buf(),
            schema,
            shard_rows: shard_rows.max(1),
            dicts: (0..arity).map(|_| ValueInterner::new()).collect(),
            dict_chains: vec![Vec::new(); arity],
            buf: vec![Vec::new(); arity],
            flushed_rows: 0,
            shards_flushed: 0,
            bytes_written: 0,
            instance_id: 0,
            version: 0,
        })
    }

    /// Re-opens the relation at `dir` for appending.  The persisted
    /// dictionaries load frozen (only new values will be interned); a
    /// partial trailing shard is read back into the buffer and will be
    /// rewritten on the next flush.
    pub fn append_to(dir: &Path) -> DqResult<RelationWriter> {
        let manifest = Manifest::read(dir)?;
        if !manifest.identity_rows {
            return Err(corrupt(
                &manifest_path(dir),
                "cannot append to a relation with explicit tuple ids",
            ));
        }
        let arity = manifest.schema.arity();
        let mut dicts = Vec::with_capacity(arity);
        for attr in 0..arity {
            dicts.push(open_dict_chain(dir, attr, &manifest.dict_chains[attr])?);
        }
        // A partial last shard is pulled back into the buffer; complete
        // shards stay on disk untouched.
        let full_shards = manifest.rows / manifest.shard_rows;
        let tail = manifest.rows % manifest.shard_rows;
        let mut buf = vec![Vec::new(); arity];
        if tail > 0 {
            for (attr, b) in buf.iter_mut().enumerate() {
                let mapped = open_ids_segment(&shard_path(dir, attr, full_shards), tail, true)?;
                let raw = &mapped.bytes[mapped.offset..mapped.offset + mapped.count * 4];
                b.extend(
                    raw.chunks_exact(4)
                        .map(|c| ValueId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))),
                );
            }
        }
        Ok(RelationWriter {
            dir: dir.to_path_buf(),
            schema: manifest.schema,
            shard_rows: manifest.shard_rows,
            dicts,
            dict_chains: manifest.dict_chains,
            buf,
            flushed_rows: full_shards * manifest.shard_rows,
            shards_flushed: full_shards,
            bytes_written: 0,
            instance_id: manifest.instance_id,
            version: manifest.version,
        })
    }

    /// Sets the instance identity recorded in the manifest (provenance for
    /// incremental saves).
    pub fn set_identity(&mut self, instance_id: u64, version: u64) {
        self.instance_id = instance_id;
        self.version = version;
    }

    /// The schema being written.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// Rows accepted so far (flushed plus buffered).
    pub fn rows(&self) -> usize {
        self.flushed_rows + self.buf.first().map_or(0, Vec::len)
    }

    /// Appends one row.  Cells are validated against the schema domains and
    /// interned immediately — no tuple is ever materialized.
    pub fn push_row<I>(&mut self, values: I) -> DqResult<()>
    where
        I: IntoIterator<Item = Value>,
    {
        let mut count = 0usize;
        for (attr, value) in values.into_iter().enumerate() {
            if attr >= self.schema.arity() {
                count += 1;
                continue;
            }
            if !self.schema.domain(attr).contains(&value) {
                return Err(DqError::DomainViolation {
                    relation: self.schema.name().to_string(),
                    attribute: self.schema.attr_name(attr).to_string(),
                    value: value.to_string(),
                });
            }
            self.buf[attr].push(self.dicts[attr].intern(&value));
            count += 1;
        }
        if count != self.schema.arity() {
            // Roll back the partial row so the buffers stay rectangular.
            let filled = count.min(self.schema.arity());
            for b in self.buf.iter_mut().take(filled) {
                b.pop();
            }
            return Err(DqError::ArityMismatch {
                relation: self.schema.name().to_string(),
                expected: self.schema.arity(),
                actual: count,
            });
        }
        self.flush_if_full()
    }

    /// Rows the current shard still has room for (at least 1).
    pub(crate) fn shard_room(&self) -> usize {
        self.shard_rows - self.buf.first().map_or(0, Vec::len)
    }

    /// Appends a batch of at most [`shard_room`](Self::shard_room) rows
    /// column by column: `intern(attr, dict, ids)` parses column `attr`'s
    /// cells of the batch in row order, interning each into the column
    /// dictionary `dict` and appending its id to `ids`, or returns the batch
    /// row of its first bad cell with the error.  Columns run one per
    /// worker on up to `threads` workers; as each column is interned in row
    /// order, dictionaries come out exactly as row-at-a-time
    /// [`push_row`](Self::push_row)s leave them.  On failure the error of
    /// the first bad cell in (row, column) order — the one `push_row` would
    /// have raised — is returned and the id buffers are rolled back (as
    /// with `push_row`, dictionaries may keep values interned before the
    /// failure).  Cells must already lie in their domains; the full shard is
    /// left for [`flush_if_full`](Self::flush_if_full).
    pub(crate) fn push_columns<F>(&mut self, threads: usize, intern: F) -> DqResult<()>
    where
        F: Fn(usize, &mut ValueInterner, &mut Vec<ValueId>) -> Result<(), (usize, DqError)> + Sync,
    {
        let before = self.buf.first().map_or(0, Vec::len);
        let columns: Vec<Mutex<(&mut ValueInterner, &mut Vec<ValueId>)>> = self
            .dicts
            .iter_mut()
            .zip(self.buf.iter_mut())
            .map(Mutex::new)
            .collect();
        let attrs: Vec<usize> = (0..columns.len()).collect();
        let outcomes = parallel_map(&attrs, threads, |&attr| {
            let mut column = columns[attr].lock().expect("column slot poisoned");
            let (dict, ids) = &mut *column;
            intern(attr, dict, ids)
        });
        drop(columns);
        let first = outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(attr, outcome)| outcome.err().map(|(row, e)| (row, attr, e)))
            .min_by_key(|&(row, attr, _)| (row, attr));
        if let Some((_, _, e)) = first {
            for ids in &mut self.buf {
                ids.truncate(before);
            }
            return Err(e);
        }
        let after = self.buf.first().map_or(0, Vec::len);
        debug_assert!(after <= self.shard_rows, "batch overflows the shard");
        debug_assert!(
            self.buf.iter().all(|ids| ids.len() == after),
            "ragged batch"
        );
        Ok(())
    }

    /// Flushes the current shard to disk once it holds `shard_rows` rows.
    pub(crate) fn flush_if_full(&mut self) -> DqResult<()> {
        if self.buf.first().map_or(0, Vec::len) == self.shard_rows {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> DqResult<()> {
        let rows = self.buf.first().map_or(0, Vec::len);
        if rows == 0 {
            return Ok(());
        }
        for (attr, ids) in self.buf.iter_mut().enumerate() {
            let path = shard_path(&self.dir, attr, self.shards_flushed);
            self.bytes_written += write_ids_segment(&path, &[ids])?;
            ids.clear();
        }
        self.flushed_rows += rows;
        self.shards_flushed += 1;
        Ok(())
    }

    /// Flushes the trailing partial shard, spills each dictionary's overlay
    /// and writes the manifest.  Returns the save counters.
    pub fn finish(mut self) -> DqResult<SaveStats> {
        let _span = dq_obs::span!("store.io.save");
        let total_rows = self.rows();
        let partial = self.buf.first().map_or(0, Vec::len);
        if partial > 0 {
            self.flush_shard()?;
        }
        let mut dict_entries_spilled = 0usize;
        for (attr, dict) in self.dicts.iter_mut().enumerate() {
            let overlay = dict.overlay();
            if !overlay.is_empty() || self.dict_chains[attr].is_empty() {
                let seg = self.dict_chains[attr].len();
                self.bytes_written +=
                    write_dict_segment(&dict_path(&self.dir, attr, seg), overlay)?;
                dict_entries_spilled += overlay.len();
                self.dict_chains[attr].push(overlay.len() as u64);
            }
            dict.mark_frozen();
        }
        let manifest = Manifest {
            schema: Arc::clone(&self.schema),
            instance_id: self.instance_id,
            version: self.version,
            shard_rows: self.shard_rows,
            rows: total_rows,
            identity_rows: true,
            dict_chains: self.dict_chains.clone(),
        };
        self.bytes_written += manifest.write(&self.dir)?;
        Ok(SaveStats {
            rows: total_rows,
            shards_written: self.shards_flushed,
            dict_entries_spilled,
            bytes_written: self.bytes_written,
            incremental: false,
        })
    }
}

// ---------------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------------

/// A persisted relation re-opened with memory-mapped id segments.
///
/// Dictionaries are fully resident (`O(distinct values)`); ids fault in
/// page-by-page as the shard-cursor paths scan them and can be dropped by
/// the kernel (or explicitly via [`ShardSource::release_shard`]) behind the
/// cursor.  Implements [`ShardSource`], so detection and discovery run over
/// it with the same code — and byte-identical output — as over an in-RAM
/// snapshot.
#[derive(Debug)]
pub struct MappedRelation {
    dir: PathBuf,
    schema: Arc<RelationSchema>,
    instance_id: u64,
    version: u64,
    shard_rows: usize,
    rows: usize,
    columns: Vec<Arc<Column>>,
    /// Explicit tuple ids, when row positions are not the identity.
    tuple_ids: Option<Vec<TupleId>>,
    row_lookup: OnceLock<FxHashMap<usize, usize>>,
}

/// Opens the persisted relation at `dir`.  Manifest, dictionary and
/// tuple-id segments are checksum-verified; shard id segments are
/// header-validated only (pass `verify = true` to
/// [`open_mmap_verified`] to fault every page in and verify them too).
pub fn open_mmap(dir: &Path) -> DqResult<MappedRelation> {
    open_relation(dir, false)
}

/// [`open_mmap`] with full payload checksum verification of every segment.
pub fn open_mmap_verified(dir: &Path) -> DqResult<MappedRelation> {
    open_relation(dir, true)
}

fn open_relation(dir: &Path, verify: bool) -> DqResult<MappedRelation> {
    let _span = dq_obs::span!("store.io.open");
    let manifest = Manifest::read(dir)?;
    let arity = manifest.schema.arity();
    // Dictionaries decode column-parallel; their errors surface in the
    // column order the sequential open met them in.
    let attrs: Vec<usize> = (0..arity).collect();
    let dicts = parallel_map(&attrs, available_threads(), |&attr| {
        open_dict_chain(dir, attr, &manifest.dict_chains[attr])
    });
    let mut columns = Vec::with_capacity(arity);
    for (attr, interner) in dicts.into_iter().enumerate() {
        let interner = interner?;
        let mut segments = Vec::with_capacity(manifest.shard_count());
        for shard in 0..manifest.shard_count() {
            let expected = manifest.shard_len(shard);
            if expected == 0 && shard > 0 {
                continue;
            }
            segments.push(open_ids_segment(
                &shard_path(dir, attr, shard),
                expected,
                verify,
            )?);
        }
        let column = Column::from_mapped(interner, segments);
        if column.len() != manifest.rows {
            return Err(corrupt(
                &manifest_path(dir),
                format!(
                    "column {attr} carries {} rows, manifest expects {}",
                    column.len(),
                    manifest.rows
                ),
            ));
        }
        // Every id must resolve inside its dictionary; a cheap per-shard
        // max-check would fault everything in, so ids are validated lazily
        // by the resolving paths (out-of-range ids panic rather than read
        // out of bounds, because `ValueInterner::resolve` bounds-checks).
        columns.push(Arc::new(column));
    }
    let tuple_ids = if manifest.identity_rows {
        None
    } else {
        let path = rows_path(dir);
        let seg = open_segment(&path, Kind::TupleIds, true)?;
        let mut c = Cursor::new(seg.payload(), &path);
        let count = c.u64()? as usize;
        if count != manifest.rows {
            return Err(corrupt(&path, "tuple id count disagrees with manifest"));
        }
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            ids.push(TupleId(c.u64()? as usize));
        }
        c.finish()?;
        Some(ids)
    };
    Ok(MappedRelation {
        dir: dir.to_path_buf(),
        schema: manifest.schema,
        instance_id: manifest.instance_id,
        version: manifest.version,
        shard_rows: manifest.shard_rows,
        rows: manifest.rows,
        columns,
        tuple_ids,
        row_lookup: OnceLock::new(),
    })
}

impl MappedRelation {
    /// The directory this relation was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Identity of the instance the persisted snapshot was taken from.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Version of the instance the persisted snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All columns, by attribute position.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Are all columns' id segments actually memory-mapped (as opposed to
    /// decoded through the buffered fallback)?
    pub fn is_fully_mapped(&self) -> bool {
        self.columns.iter().all(|c| c.is_mapped())
    }

    /// Total bytes of the segment files on disk.
    pub fn disk_bytes(&self) -> u64 {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl ShardSource for MappedRelation {
    fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    fn column(&self, attr: usize) -> Arc<Column> {
        Arc::clone(&self.columns[attr])
    }

    fn tuple_id(&self, row: usize) -> TupleId {
        match &self.tuple_ids {
            None => TupleId(row),
            Some(ids) => ids[row],
        }
    }

    fn row_of(&self, id: TupleId) -> Option<usize> {
        match &self.tuple_ids {
            None => (id.0 < self.rows).then_some(id.0),
            Some(ids) => {
                let lookup = self
                    .row_lookup
                    .get_or_init(|| ids.iter().enumerate().map(|(row, t)| (t.0, row)).collect());
                lookup.get(&id.0).copied()
            }
        }
    }

    fn release_shard(&self, shard: usize) {
        // Segments are per-shard files, so releasing the shard's rows
        // releases exactly each column's segment for it.
        let rows = self.shard_range(shard);
        for col in &self.columns {
            col.release_rows(rows.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, RelationSchema};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dq_persist_test_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_instance(n: usize) -> RelationInstance {
        let schema = RelationSchema::new(
            "t",
            [("A", Domain::Int), ("B", Domain::Text), ("C", Domain::Real)],
        );
        let mut inst = RelationInstance::from_schema(schema);
        for i in 0..n {
            inst.insert_values([
                Value::int((i % 13) as i64),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("name-{}", i % 29))
                },
                Value::real(i as f64 * 0.5),
            ])
            .unwrap();
        }
        inst
    }

    fn assert_equals_store(
        mapped: &MappedRelation,
        instance: &RelationInstance,
        store: &ColumnarStore,
    ) {
        assert_eq!(mapped.len(), store.len());
        for attr in 0..instance.schema().arity() {
            let m = mapped.column(attr);
            let s = store.column(instance, attr);
            assert_eq!(m.len(), s.len());
            for row in 0..store.len() {
                assert_eq!(
                    m.interner().resolve(m.id_at(row)),
                    s.interner().resolve(s.id_at(row)),
                    "attr {attr} row {row}"
                );
            }
            // Ids themselves are identical too: first-seen order round-trips.
            assert_eq!(m.interner().values(), s.interner().values());
        }
        for row in 0..store.len() {
            assert_eq!(mapped.tuple_id(row), store.tuple_id(row), "row {row}");
        }
    }

    #[test]
    fn save_open_round_trip_is_byte_identical() {
        let dir = tmp_dir("roundtrip");
        let inst = sample_instance(500);
        let store = inst.columnar();
        let stats = store
            .save_to_with_shard_rows(&inst, &dir, 64)
            .expect("save");
        assert!(!stats.incremental);
        assert_eq!(stats.rows, 500);
        assert_eq!(stats.shards_written, 500usize.div_ceil(64));
        for verify in [false, true] {
            let mapped = if verify {
                open_mmap_verified(&dir).expect("open verified")
            } else {
                open_mmap(&dir).expect("open")
            };
            assert_eq!(mapped.schema().name(), "t");
            assert_eq!(mapped.shard_count(), 500usize.div_ceil(64));
            assert_equals_store(&mapped, &inst, &store);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_save_spills_only_the_overlay() {
        let dir = tmp_dir("incremental");
        let mut inst = sample_instance(100);
        let store = inst.columnar();
        store
            .save_to_with_shard_rows(&inst, &dir, 64)
            .expect("first save");
        // Append rows: some reuse dictionary entries, one brings new values.
        for i in 0..40 {
            inst.insert_values([
                Value::int((i % 13) as i64),
                Value::str(if i == 7 {
                    "brand-new".into()
                } else {
                    format!("name-{}", i % 29)
                }),
                Value::real(1.25),
            ])
            .unwrap();
        }
        let store2 = inst.columnar();
        let stats = store2
            .save_to_with_shard_rows(&inst, &dir, 64)
            .expect("second save");
        assert!(
            stats.incremental,
            "append-only extension saves incrementally"
        );
        // 100 rows = 1 full shard + 36-row partial; the partial shard and
        // the new one are rewritten, shard 0 is untouched.
        assert_eq!(stats.shards_written, 2);
        // Only genuinely new dictionary entries spill: "brand-new" plus the
        // new reals (1.25 and nothing else — 0.5-steps of the first 100 rows
        // covered many, but 1.25 arrived with the appends only if absent).
        assert!(stats.dict_entries_spilled < 10, "{stats:?}");
        let mapped = open_mmap_verified(&dir).expect("open after incremental");
        assert_equals_store(&mapped, &inst, &store2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edits_force_a_full_rewrite_that_still_round_trips() {
        use crate::instance::CellRef;
        let dir = tmp_dir("edits");
        let mut inst = sample_instance(80);
        inst.columnar()
            .save_to_with_shard_rows(&inst, &dir, 32)
            .unwrap();
        inst.update_cell(CellRef::new(TupleId(3), 1), Value::str("edited"))
            .unwrap();
        let store = inst.columnar();
        let stats = store.save_to_with_shard_rows(&inst, &dir, 32).unwrap();
        assert!(!stats.incremental, "a net edit forces a full rewrite");
        let mapped = open_mmap_verified(&dir).unwrap();
        assert_equals_store(&mapped, &inst, &store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reverted_edits_with_appends_save_incrementally() {
        use crate::instance::CellRef;
        let (dir, full) = (tmp_dir("reverted"), tmp_dir("reverted_full"));
        let mut inst = sample_instance(80);
        inst.columnar()
            .save_to_with_shard_rows(&inst, &dir, 32)
            .unwrap();
        // A→B→A on a persisted cell, with a snapshot taken while it holds B
        // (so the dictionary learns B), plus appends before and after.
        let cell = CellRef::new(TupleId(3), 1);
        let original = inst.cell(cell).unwrap().clone();
        inst.update_cell(cell, Value::str("interim")).unwrap();
        inst.columnar();
        inst.insert_values([Value::int(1), Value::str("tail"), Value::real(0.5)])
            .unwrap();
        inst.update_cell(cell, original).unwrap();
        inst.insert_values([Value::int(2), Value::str("end"), Value::real(9.0)])
            .unwrap();
        let store = inst.columnar();
        let stats = store.save_to_with_shard_rows(&inst, &dir, 32).unwrap();
        assert!(
            stats.incremental,
            "a net no-op edit keeps the save incremental"
        );
        assert_eq!(stats.shards_written, 1, "only the partial last shard");
        assert_equals_store(&open_mmap_verified(&dir).unwrap(), &inst, &store);
        // Every id segment equals a from-scratch save of the same snapshot.
        assert!(
            !store
                .save_to_with_shard_rows(&inst, &full, 32)
                .unwrap()
                .incremental
        );
        for attr in 0..3 {
            for shard in 0..82usize.div_ceil(32) {
                let path = |d: &Path| shard_path(d, attr, shard);
                assert_eq!(
                    fs::read(path(&dir)).unwrap(),
                    fs::read(path(&full)).unwrap()
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&full).unwrap();
    }

    #[test]
    fn deletions_persist_explicit_tuple_ids() {
        let dir = tmp_dir("deadrows");
        let mut inst = sample_instance(50);
        inst.remove(TupleId(10));
        inst.remove(TupleId(33));
        let store = inst.columnar();
        store.save_to_with_shard_rows(&inst, &dir, 16).unwrap();
        let mapped = open_mmap_verified(&dir).unwrap();
        assert_equals_store(&mapped, &inst, &store);
        assert_eq!(mapped.row_of(TupleId(10)), None);
        assert_eq!(mapped.row_of(TupleId(11)), store.row_of(TupleId(11)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_segment_is_a_typed_error_not_a_panic() {
        let dir = tmp_dir("corrupt");
        let inst = sample_instance(60);
        inst.columnar()
            .save_to_with_shard_rows(&inst, &dir, 16)
            .unwrap();
        // Flip a byte inside a dictionary payload.
        let dict = dict_path(&dir, 1, 0);
        let mut bytes = fs::read(&dict).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&dict, &bytes).unwrap();
        match open_mmap(&dir) {
            Err(DqError::CorruptSegment { path, .. }) => assert!(path.contains("col1.dict.0")),
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_is_a_typed_error() {
        let dir = tmp_dir("truncated");
        let inst = sample_instance(60);
        inst.columnar()
            .save_to_with_shard_rows(&inst, &dir, 16)
            .unwrap();
        let shard = shard_path(&dir, 0, 1);
        let bytes = fs::read(&shard).unwrap();
        fs::write(&shard, &bytes[..bytes.len() - 9]).unwrap();
        match open_mmap(&dir) {
            Err(DqError::CorruptSegment { .. }) => {}
            other => panic!("expected CorruptSegment, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let dir = tmp_dir("version");
        let inst = sample_instance(20);
        inst.columnar()
            .save_to_with_shard_rows(&inst, &dir, 16)
            .unwrap();
        let path = manifest_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        // Re-stamp the checksum so only the version differs.
        let payload_end = bytes.len() - 8;
        let mut hash = Fnv::new();
        hash.update(&bytes[..payload_end]);
        let sum = hash.finish().to_le_bytes();
        bytes[payload_end..].copy_from_slice(&sum);
        fs::write(&path, &bytes).unwrap();
        match open_mmap(&dir) {
            Err(DqError::VersionMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_clean_open_failure() {
        let dir = tmp_dir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        match open_mmap(&dir) {
            Err(DqError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_streams_rows_and_appends_with_frozen_dictionaries() {
        let dir = tmp_dir("writer");
        let inst = sample_instance(150);
        {
            let mut w =
                RelationWriter::create(&dir, Arc::clone(inst.schema()), 32).expect("create");
            for (_, tuple) in inst.iter() {
                w.push_row((0..3).map(|a| tuple.get(a).clone())).unwrap();
            }
            let stats = w.finish().unwrap();
            assert_eq!(stats.rows, 150);
        }
        let store = inst.columnar();
        let mapped = open_mmap_verified(&dir).unwrap();
        assert_equals_store(&mapped, &inst, &store);

        // Append through a re-opened writer: dictionaries come back frozen.
        {
            let mut w = RelationWriter::append_to(&dir).expect("append_to");
            assert_eq!(w.rows(), 150);
            w.push_row([Value::int(1), Value::str("name-1"), Value::real(0.5)])
                .unwrap();
            w.push_row([
                Value::int(2),
                Value::str("appended-only"),
                Value::real(9.75),
            ])
            .unwrap();
            let stats = w.finish().unwrap();
            assert_eq!(stats.rows, 152);
            // Only the two genuinely new values spilled ("appended-only",
            // 9.75): everything else was frozen on disk already.
            assert_eq!(stats.dict_entries_spilled, 2);
        }
        let mapped = open_mmap_verified(&dir).unwrap();
        assert_eq!(mapped.len(), 152);
        let b = mapped.column(1);
        assert_eq!(
            b.interner().resolve(b.id_at(151)),
            &Value::str("appended-only")
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let dir = tmp_dir("badrows");
        let schema = Arc::new(RelationSchema::new("r", [("A", Domain::Int)]));
        let mut w = RelationWriter::create(&dir, schema, 8).unwrap();
        assert!(matches!(
            w.push_row([Value::str("nope")]),
            Err(DqError::DomainViolation { .. })
        ));
        assert!(matches!(
            w.push_row([Value::int(1), Value::int(2)]),
            Err(DqError::ArityMismatch { .. })
        ));
        assert!(matches!(
            w.push_row(std::iter::empty()),
            Err(DqError::ArityMismatch { .. })
        ));
        w.push_row([Value::int(5)]).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.rows, 1);
        let mapped = open_mmap_verified(&dir).unwrap();
        assert_eq!(mapped.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
