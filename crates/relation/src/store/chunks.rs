//! Fixed-size, `Arc`-shared, copy-on-write chunks: the owned storage of a
//! [`ColumnarStore`](super::ColumnarStore)'s rows, row index and column ids.
//!
//! A [`Chunks`] is a table of [`CHUNK_ROWS`]-long chunks, each behind its
//! own `Arc`; the last chunk is padded with copies of its last element.
//! Fixed-size chunks make a position a shift and a mask with a single
//! bounds check, on the chunk table.  Cloning the table clones
//! the `Arc`s, so a patched snapshot shares every chunk its patch did not
//! reach with its predecessor: [`Chunks::prefix`] shares every full chunk
//! below a row, [`Chunks::set`] copies a chunk on its first write while an
//! older table still holds it, and a [`ChunkWriter`] fills chunk-sized
//! buffers in bulk for builds and for the rebuilt tail of a patch.

use super::columnar::SHARD_ROWS;
use std::ops::Range;
use std::sync::Arc;

/// Number of rows per copy-on-write chunk: a power of two that divides
/// [`SHARD_ROWS`], small enough that a write round spread over a large
/// relation copies a few kilobytes per touched chunk, large enough that the
/// chunk table and its per-chunk overhead stay small.
pub const CHUNK_ROWS: usize = 1 << 10;

const _: () = assert!(CHUNK_ROWS.is_power_of_two() && SHARD_ROWS.is_multiple_of(CHUNK_ROWS));

const SHIFT: u32 = CHUNK_ROWS.trailing_zeros();
const MASK: usize = CHUNK_ROWS - 1;

/// One chunk: always [`CHUNK_ROWS`] elements long, so indexing it with a
/// masked position needs no bounds check.  Only the last chunk of a
/// [`Chunks`] may hold fewer live elements; it is padded with copies of its
/// last one, which no accessor hands out.
pub(crate) type Chunk<T> = Arc<[T; CHUNK_ROWS]>;

/// A sequence of `T` in `Arc`-shared chunks of [`CHUNK_ROWS`] elements.
#[derive(Clone, Debug)]
pub(crate) struct Chunks<T> {
    chunks: Vec<Chunk<T>>,
    len: usize,
}

impl<T: Copy> Chunks<T> {
    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The element at position `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "position {i} past length {}", self.len);
        self.chunks[i >> SHIFT][i & MASK]
    }

    /// The element at position `i`, if any.
    #[inline]
    pub(crate) fn try_get(&self, i: usize) -> Option<T> {
        (i < self.len).then(|| self.get(i))
    }

    /// Chunk `chunk` of the table.
    pub(crate) fn chunk(&self, chunk: usize) -> &Chunk<T> {
        &self.chunks[chunk]
    }

    /// Number of chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The elements of `range`, as one slice per chunk it overlaps.
    pub(crate) fn slices(&self, range: Range<usize>) -> impl Iterator<Item = &[T]> + '_ {
        let Range { start, end } = range;
        assert!(end <= self.len, "range end {end} past length {}", self.len);
        let chunks = match start < end {
            true => start >> SHIFT..end.div_ceil(CHUNK_ROWS),
            false => 0..0,
        };
        chunks.map(move |c| {
            let base = c << SHIFT;
            &self.chunks[c][start.max(base) - base..end.min(base + CHUNK_ROWS) - base]
        })
    }

    /// Every element, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.slices(0..self.len).flatten().copied()
    }

    /// The first position whose element fails `pred`, for a table
    /// partitioned by it (every element satisfying `pred` comes first).
    pub(crate) fn partition_point(&self, pred: impl Fn(&T) -> bool) -> usize {
        // The last chunk is padded with its last element, so every chunk
        // ends in the last element of its live part.
        let c = self.chunks.partition_point(|chunk| pred(&chunk[MASK]));
        match self.chunks.get(c) {
            Some(chunk) => ((c << SHIFT) + chunk.partition_point(pred)).min(self.len),
            None => self.len,
        }
    }

    /// A writer holding the first `n` elements: every full chunk below `n`
    /// shared by `Arc`, the part of the chunk holding element `n - 1`
    /// copied into the writer's open tail.
    pub(crate) fn prefix(&self, n: usize) -> ChunkWriter<T> {
        debug_assert!(n <= self.len);
        let full = n >> SHIFT;
        let mut writer = ChunkWriter {
            chunks: self.chunks[..full].to_vec(),
            tail: Vec::with_capacity(CHUNK_ROWS),
        };
        if n & MASK != 0 {
            writer
                .tail
                .extend_from_slice(&self.chunks[full][..n & MASK]);
        }
        writer
    }

    /// Overwrites the element at position `i`, copying its chunk first
    /// while another table still shares it.
    pub(crate) fn set(&mut self, i: usize, value: T) {
        Arc::make_mut(&mut self.chunks[i >> SHIFT])[i & MASK] = value;
    }

    /// Number of chunks this table holds as the same allocation as `other`
    /// at the same position.
    pub(crate) fn shared_with(&self, other: &Chunks<T>) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Approximate heap bytes of the chunks and the table.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.chunks.len() << SHIFT) * size_of::<T>()
            + self.chunks.capacity() * size_of::<Chunk<T>>()
    }
}

impl<T: Copy> FromIterator<T> for Chunks<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut writer = ChunkWriter::new();
        for item in items {
            writer.push(item);
        }
        writer.finish()
    }
}

/// Builds a [`Chunks`] by appending: elements go into an owned,
/// chunk-sized tail buffer, which is sealed into an `Arc`-shared chunk once
/// full and then reused for the next chunk.
#[derive(Debug)]
pub(crate) struct ChunkWriter<T> {
    chunks: Vec<Chunk<T>>,
    tail: Vec<T>,
}

impl<T: Copy> ChunkWriter<T> {
    /// An empty writer.
    pub(crate) fn new() -> Self {
        ChunkWriter {
            chunks: Vec::new(),
            tail: Vec::with_capacity(CHUNK_ROWS),
        }
    }

    /// Number of elements written so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        (self.chunks.len() << SHIFT) + self.tail.len()
    }

    /// Appends one element.
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.tail.push(item);
        if self.tail.len() == CHUNK_ROWS {
            self.seal();
        }
    }

    /// Appends a slice, copying it chunk-sized piece by piece.
    pub(crate) fn extend_from_slice(&mut self, mut items: &[T]) {
        while !items.is_empty() {
            let take = (CHUNK_ROWS - self.tail.len()).min(items.len());
            self.tail.extend_from_slice(&items[..take]);
            items = &items[take..];
            if self.tail.len() == CHUNK_ROWS {
                self.seal();
            }
        }
    }

    fn seal(&mut self) {
        let full: [T; CHUNK_ROWS] = self.tail[..].try_into().expect("the tail is full");
        self.chunks.push(Arc::new(full));
        self.tail.clear();
    }

    /// The finished table.
    pub(crate) fn finish(mut self) -> Chunks<T> {
        let len = self.len();
        if let Some(&pad) = self.tail.last() {
            self.tail.resize(CHUNK_ROWS, pad);
            self.seal();
        }
        Chunks {
            chunks: self.chunks,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u32) -> Chunks<u32> {
        (0..n).collect()
    }

    #[test]
    fn builds_full_chunks_and_a_partial_tail() {
        let n = 2 * CHUNK_ROWS as u32 + 5;
        let t = table(n);
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.chunk_count(), 3);
        assert_eq!(t.slices(2 * CHUNK_ROWS..t.len()).next().unwrap().len(), 5);
        assert!((0..n).all(|i| t.get(i as usize) == i));
        assert!(t.iter().eq(0..n));
        assert_eq!(t.try_get(n as usize), None);
        let exact = table(CHUNK_ROWS as u32);
        assert_eq!(exact.chunk_count(), 1);
        assert_eq!(table(0).chunk_count(), 0);
    }

    #[test]
    fn slices_split_at_chunk_boundaries() {
        let t = table(3 * CHUNK_ROWS as u32);
        let start = CHUNK_ROWS - 1;
        let end = 2 * CHUNK_ROWS + 1;
        let parts: Vec<&[u32]> = t.slices(start..end).collect();
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            [1, CHUNK_ROWS, 1]
        );
        assert!(parts.concat().into_iter().eq(start as u32..end as u32));
        assert_eq!(t.slices(7..7).count(), 0);
    }

    #[test]
    fn prefix_shares_full_chunks_and_copies_the_partial_one() {
        let t = table(2 * CHUNK_ROWS as u32 + 5);
        let mut w = t.prefix(CHUNK_ROWS + 3);
        w.extend_from_slice(&[7, 8]);
        w.push(9);
        let p = w.finish();
        assert_eq!(p.len(), CHUNK_ROWS + 6);
        assert!(Arc::ptr_eq(p.chunk(0), t.chunk(0)));
        assert!(!Arc::ptr_eq(p.chunk(1), t.chunk(1)));
        assert_eq!(p.shared_with(&t), 1);
        assert!(p.iter().eq((0..CHUNK_ROWS as u32 + 3).chain([7, 8, 9])));
        // The source is untouched.
        assert!(t.iter().eq(0..2 * CHUNK_ROWS as u32 + 5));
    }

    #[test]
    fn set_copies_a_shared_chunk_once() {
        let t = table(2 * CHUNK_ROWS as u32);
        let mut c = t.clone();
        c.set(CHUNK_ROWS, 99);
        assert!(Arc::ptr_eq(c.chunk(0), t.chunk(0)));
        assert!(!Arc::ptr_eq(c.chunk(1), t.chunk(1)));
        let copied = Arc::as_ptr(c.chunk(1));
        c.set(CHUNK_ROWS + 1, 98);
        assert_eq!(
            Arc::as_ptr(c.chunk(1)),
            copied,
            "an unshared chunk is written in place"
        );
        assert_eq!((c.get(CHUNK_ROWS), c.get(CHUNK_ROWS + 1)), (99, 98));
        assert_eq!(t.get(CHUNK_ROWS), CHUNK_ROWS as u32);
    }

    #[test]
    fn partition_point_crosses_chunks() {
        let t = table(3 * CHUNK_ROWS as u32 + 2);
        for split in [
            0,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            2 * CHUNK_ROWS + 7,
            t.len(),
        ] {
            assert_eq!(t.partition_point(|&x| (x as usize) < split), split);
        }
    }
}
