//! The one growable store that never copies what it holds.
//!
//! A `Vec` grows by doubling: the old block is copied into one twice its
//! size while both are live, and the new block is up to half empty. The
//! big observability stores — a sample's values, a span's row — and the
//! engine's per-flow lists grow here instead, in fixed chunks of
//! [`CHUNK_LEN`] items: growing opens one more chunk and moves nothing.
//! Item `i` lives at `(i >> CHUNK_SHIFT, i & MASK)`, so indices never
//! move, and a store whose old items are no longer read — the engine's
//! pending and finished flows — can free a whole chunk of them
//! ([`ChunkedVec::release_chunk`]) while the rest keep their indices.
//! A list that is often short — the attached flows of a network that has
//! only a handful — starts [`ChunkedVec::growing`]: its first chunk doubles
//! like a `Vec` until it holds a chunk, so it costs what it holds.

/// `log2` of the items a chunk holds.
pub(crate) const CHUNK_SHIFT: u32 = 12;
/// Items a chunk holds (`ChunkedVec::push_run` may open a larger one).
pub const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;
const MASK: usize = CHUNK_LEN - 1;

/// A sequence stored in fixed chunks that grows only at its end. Indices
/// are the ones [`ChunkedVec::push`] and `ChunkedVec::push_run` return: a
/// run never straddles two chunks, so the rest of a chunk too short for it
/// stays unused and the run starts the next one. A released chunk's items
/// are gone; every other index still answers.
#[derive(Debug)]
pub struct ChunkedVec<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec { chunks: Vec::new(), len: 0 }
    }
}

impl<T: Clone> Clone for ChunkedVec<T> {
    /// A copy whose last chunk keeps its full capacity, so the copy grows
    /// without copying too.
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                let mut copy = Vec::with_capacity(c.capacity());
                copy.extend_from_slice(c);
                copy
            })
            .collect();
        ChunkedVec { chunks, len: self.len }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Every item, in push order, in one `Vec` of exactly that length
    /// (without the items of released chunks).
    pub fn to_vec(&self) -> Vec<T> {
        let mut all = Vec::with_capacity(self.len);
        self.chunks.iter().for_each(|c| all.extend_from_slice(c));
        all
    }
}

impl<T> ChunkedVec<T> {
    /// An empty store; the first push opens the first chunk.
    pub fn new() -> Self {
        ChunkedVec::default()
    }

    /// An empty store whose first chunk starts empty and doubles (from 4
    /// items, like a `Vec`) up to [`CHUNK_LEN`]: only that chunk ever
    /// moves, and a short list holds no more than a `Vec` would.
    pub fn growing() -> Self {
        ChunkedVec { chunks: vec![Vec::new()], len: 0 }
    }

    /// Items pushed (the unused tails a run skipped are not counted;
    /// released items are).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index the next item gets if the last chunk has room for it.
    fn end(&self) -> usize {
        self.chunks.last().map_or(0, |c| ((self.chunks.len() - 1) << CHUNK_SHIFT) + c.len())
    }

    /// The last chunk, with room for `n` more items: a first chunk opened
    /// short ([`ChunkedVec::growing`]) doubles while they fit in
    /// [`CHUNK_LEN`]; otherwise a new chunk of `capacity` items is opened
    /// when the last has room for fewer than `n` more.
    fn room_for(&mut self, n: usize, capacity: usize) -> &mut Vec<T> {
        let first = self.chunks.len() == 1;
        match self.chunks.last_mut() {
            Some(c) if c.capacity() - c.len() >= n => {}
            Some(c) if first && c.len() + n <= CHUNK_LEN => {
                let to = (2 * c.capacity()).max(4).clamp(c.len() + n, CHUNK_LEN);
                c.reserve_exact(to - c.len());
            }
            _ => self.chunks.push(Vec::with_capacity(capacity)),
        }
        self.chunks.last_mut().expect("a chunk with room was just ensured")
    }

    /// Append `item`; returns its index.
    #[inline]
    pub fn push(&mut self, item: T) -> usize {
        let chunk = self.room_for(1, CHUNK_LEN);
        chunk.push(item);
        self.len += 1;
        self.end() - 1
    }

    /// Append `items` contiguously in one chunk; returns the index of the
    /// first ([`ChunkedVec::run`] reads them back). A run longer than a
    /// chunk gets a chunk of its own, as long as the run.
    pub(crate) fn push_run(&mut self, items: impl ExactSizeIterator<Item = T>) -> usize {
        let n = items.len();
        if n == 0 {
            return self.end();
        }
        let chunk = self.room_for(n, n.max(CHUNK_LEN));
        let start = chunk.len();
        chunk.extend(items);
        assert_eq!(chunk.len() - start, n, "an ExactSizeIterator yields its length");
        self.len += n;
        self.end() - n
    }

    /// The `n` items of the run that starts at `start`.
    pub(crate) fn run(&self, start: usize, n: usize) -> &[T] {
        if n == 0 {
            return &[];
        }
        &self.chunks[start >> CHUNK_SHIFT][start & MASK..][..n]
    }

    /// The item at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_SHIFT)?.get(i & MASK)
    }

    /// The item at `i`, to change in place.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.chunks.get_mut(i >> CHUNK_SHIFT)?.get_mut(i & MASK)
    }

    /// Take out and return the items of chunk `k` (those at indices
    /// `k * CHUNK_LEN ..`), freeing its memory; they answer `None` from
    /// then on and no other index moves. The last chunk is never released,
    /// since the next push may land in it: `None` then, as for a chunk
    /// already released.
    pub fn release_chunk(&mut self, k: usize) -> Option<Vec<T>> {
        if k + 1 >= self.chunks.len() || self.chunks[k].capacity() == 0 {
            return None;
        }
        Some(std::mem::take(&mut self.chunks[k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_address_items_across_chunks() {
        let mut v = ChunkedVec::new();
        for i in 0..3 * CHUNK_LEN + 5 {
            assert_eq!(v.push(i), i);
        }
        assert_eq!(v.len(), 3 * CHUNK_LEN + 5);
        *v.get_mut(2 * CHUNK_LEN + 1).unwrap() = 7;
        assert!(v.get_mut(3 * CHUNK_LEN + 5).is_none());
        assert_eq!(
            (v.get(2 * CHUNK_LEN + 1), v.get(CHUNK_LEN - 1)),
            (Some(&7), Some(&(CHUNK_LEN - 1)))
        );
        assert!(v.get(3 * CHUNK_LEN + 5).is_none());
        let all = v.to_vec();
        assert_eq!((all.len(), all[CHUNK_LEN], all[2 * CHUNK_LEN + 1]), (v.len(), CHUNK_LEN, 7));
    }

    #[test]
    fn a_run_never_straddles_and_a_long_run_gets_its_own_chunk() {
        let mut v = ChunkedVec::new();
        let width = CHUNK_LEN / 3 + 1;
        let starts: Vec<usize> =
            (0..4).map(|r| v.push_run((0..width).map(|k| r * 10 + k))).collect();
        // Two runs fit a chunk; the third starts the next one.
        assert_eq!(starts, [0, width, CHUNK_LEN, CHUNK_LEN + width]);
        assert_eq!(v.run(starts[2], width)[1], 21);
        let long = v.push_run(0..CHUNK_LEN + 1);
        assert_eq!(long, 2 * CHUNK_LEN);
        assert_eq!(v.run(long, CHUNK_LEN + 1).last(), Some(&CHUNK_LEN));
        // The chunk after the long one starts clean.
        assert_eq!(v.push(9), 3 * CHUNK_LEN);
        assert_eq!(v.push_run(std::iter::empty()), 3 * CHUNK_LEN + 1);
        assert!(v.run(3 * CHUNK_LEN + 1, 0).is_empty());
        assert_eq!(v.len(), 4 * width + CHUNK_LEN + 2);
        assert_eq!(v.to_vec().len(), v.len(), "skipped tails hold nothing");
    }

    #[test]
    fn a_growing_store_doubles_its_first_chunk_then_opens_full_ones() {
        let mut v = ChunkedVec::growing();
        let capacities =
            |v: &ChunkedVec<usize>| -> Vec<usize> { v.chunks.iter().map(Vec::capacity).collect() };
        assert_eq!((v.len(), v.get(0), capacities(&v)), (0, None, vec![0]));
        for i in 0..5 {
            assert_eq!(v.push(i), i);
        }
        assert_eq!(capacities(&v), [8]);
        (5..CHUNK_LEN).for_each(|i| _ = v.push(i));
        assert_eq!(capacities(&v), [CHUNK_LEN]);
        assert_eq!(v.push(7), CHUNK_LEN);
        assert_eq!(capacities(&v), [CHUNK_LEN, CHUNK_LEN]);
        assert_eq!((v.get(CHUNK_LEN - 1), v.get(CHUNK_LEN)), (Some(&(CHUNK_LEN - 1)), Some(&7)));
        // A run that fits grows the first chunk; one that does not skips it.
        let mut v = ChunkedVec::growing();
        assert_eq!(v.push_run(0..5), 0);
        assert_eq!(v.push_run(0..CHUNK_LEN - 5), 5);
        assert_eq!(capacities(&v), [CHUNK_LEN]);
        let mut v = ChunkedVec::growing();
        v.push(1);
        assert_eq!(v.push_run(0..CHUNK_LEN), CHUNK_LEN);
        assert_eq!((capacities(&v), v.run(CHUNK_LEN, CHUNK_LEN)[9]), (vec![4, CHUNK_LEN], 9));
    }

    #[test]
    fn a_released_chunk_answers_none_and_the_last_chunk_stays() {
        let mut v = ChunkedVec::growing();
        (0..2 * CHUNK_LEN + 3).for_each(|i| _ = v.push(i));
        assert_eq!(v.release_chunk(2), None, "the last chunk is never released");
        assert_eq!(v.release_chunk(3), None);
        let freed = v.release_chunk(0).expect("a full chunk behind the last");
        assert_eq!((freed.len(), freed[7]), (CHUNK_LEN, 7));
        assert_eq!(v.release_chunk(0), None, "released once");
        assert!((0..CHUNK_LEN).all(|i| v.get(i).is_none() && v.get_mut(i).is_none()));
        assert_eq!(
            (v.get(CHUNK_LEN), v.get(2 * CHUNK_LEN + 2)),
            (Some(&CHUNK_LEN), Some(&(2 * CHUNK_LEN + 2)))
        );
        // Indices keep counting from where they were.
        assert_eq!((v.push(1), v.len()), (2 * CHUNK_LEN + 3, 2 * CHUNK_LEN + 4));
        assert_eq!(v.release_chunk(1).map(|c| c[0]), Some(CHUNK_LEN));
        assert_eq!(
            v.to_vec(),
            [&(2 * CHUNK_LEN..2 * CHUNK_LEN + 3).collect::<Vec<_>>()[..], &[1]].concat()
        );
    }

    #[test]
    fn a_store_with_released_chunks_clones_to_the_same_items() {
        let mut v = ChunkedVec::new();
        (0..3 * CHUNK_LEN + 2).for_each(|i| _ = v.push(i));
        v.release_chunk(1);
        let mut copy = v.clone();
        assert!((0..3 * CHUNK_LEN + 2).all(|i| copy.get(i) == v.get(i)));
        assert_eq!((copy.get(CHUNK_LEN), copy.get(2 * CHUNK_LEN)), (None, Some(&(2 * CHUNK_LEN))));
        assert_eq!((copy.len(), copy.to_vec()), (v.len(), v.to_vec()));
        // The copy releases and grows on its own.
        assert_eq!(copy.release_chunk(0).map(|c| c.len()), Some(CHUNK_LEN));
        assert_eq!(copy.push(5), 3 * CHUNK_LEN + 2);
        assert_eq!((v.get(0), v.len()), (Some(&0), 3 * CHUNK_LEN + 2));
    }

    #[test]
    fn a_clone_is_equal_and_grows_apart() {
        let mut v = ChunkedVec::new();
        (0..CHUNK_LEN + 3).for_each(|i| _ = v.push(i));
        let mut copy = v.clone();
        assert_eq!(copy.push(1), CHUNK_LEN + 3);
        let (all, copied) = (v.to_vec(), copy.to_vec());
        assert_eq!((all.len() + 1, &copied[..all.len()]), (copied.len(), &all[..]));
    }
}
