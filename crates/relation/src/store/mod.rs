//! The interned, sharded columnar storage subsystem.
//!
//! The detection engine's scaling costs are dominated by building hash
//! indexes whose keys clone `Vec<Value>` per tuple.  This module replaces
//! that representation with three layers, mirroring how discovery-oriented
//! dependency systems get their scale from compact partition/id
//! representations:
//!
//! 1. [`ValueInterner`] — per-column dictionary encoding of [`crate::value::Value`]s
//!    into dense `u32` [`ValueId`]s, preserving `Eq`/`Ord`/`Hash` semantics
//!    (including `Null` and the IEEE-754 total order for `Real`);
//! 2. [`ColumnarStore`] / [`Column`] — a version-tagged columnar snapshot of
//!    a [`crate::instance::RelationInstance`] (one id sequence per
//!    attribute, held in `Arc`-shared copy-on-write chunks of
//!    [`CHUNK_ROWS`] and range-sharded into shards of [`SHARD_ROWS`]), living *behind* the row-oriented
//!    instance API: detectors, algebra and CSV I/O keep working unchanged
//!    and reach the snapshot through
//!    [`RelationInstance::columnar`](crate::instance::RelationInstance::columnar);
//! 3. [`InternedIndex`] — hash indexes keyed by packed id tuples (a single
//!    mixed-radix `u64` or shifted `u128` word for almost every real key)
//!    with CSR group storage and shard-parallel builds, so one huge
//!    dependency parallelizes within one index, not just across
//!    dependencies.
//!
//! [`crate::index::IndexPool`] memoizes interned indexes per
//! `(instance identity, version, attribute list)`.

mod chunks;
pub mod columnar;
pub mod distinct;
pub mod fx;
pub mod index;
pub mod interner;
pub mod mmap;
pub mod persist;
pub mod shard;

pub use chunks::CHUNK_ROWS;
pub use columnar::{Column, ColumnarStats, ColumnarStore, SHARD_ROWS};
pub use distinct::{DistinctSet, IdTranslation};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{InternedIndex, KeyCodec, ProjectionKey};
pub use interner::{DictValues, DuplicateEntry, InternerStats, ValueId, ValueInterner};
pub use mmap::MappedBytes;
pub use persist::{
    open_mmap, open_mmap_verified, MappedRelation, RelationWriter, SaveStats, FORMAT_VERSION,
};
pub use shard::{RowGroups, ShardSource, StoreShardSource};
