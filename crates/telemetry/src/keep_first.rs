//! The one bounded keep-first store.
//!
//! The trace buffer, the subscription frame log and the sampled time
//! series all keep the *first* `capacity` items they are handed and count
//! the rest, so what a run exports never depends on how long it ran. This
//! is that policy, once; [`KeepFirst::dropped`] is the single place a
//! store's losses are read from. The time series keeps only its row heads
//! here — a row's values live in value columns beside them (see
//! [`crate::TimeSeries`]), so what it holds is not a `KeepFirst` of rows.
//! A full store does not ask for the item at all ([`KeepFirst::push_with`]):
//! what a producer would spend building it — a sample is a walk over every
//! series — is not spent to bump a count.

/// A `Vec` that stops growing at `capacity`: the first `capacity` items
/// pushed are kept, in order, and later ones are counted in `dropped`.
#[derive(Clone, Debug)]
pub struct KeepFirst<T> {
    capacity: usize,
    items: Vec<T>,
    dropped: u64,
}

impl<T> KeepFirst<T> {
    /// An empty store keeping at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        KeepFirst { capacity, items: Vec::new(), dropped: 0 }
    }

    /// Append an item (counted, not kept, once the store is full).
    #[inline]
    pub fn push(&mut self, item: T) {
        self.push_with(|| item);
    }

    /// Append the item `build` returns; a full store counts the loss
    /// without calling `build`.
    #[inline]
    pub fn push_with(&mut self, build: impl FnOnce() -> T) {
        if self.items.len() < self.capacity {
            self.items.push(build());
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// The items held, in push order.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Number of items held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items rejected because the store was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items pushed at or after position `cursor` (empty when past the
    /// end) — the delta a reader at `cursor` has not yet seen.
    pub fn since(&self, cursor: usize) -> &[T] {
        self.items.get(cursor..).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_store_counts_without_building() {
        let mut store = KeepFirst::new(2);
        let mut built = 0;
        for i in 0..5 {
            store.push_with(|| {
                built += 1;
                i
            });
        }
        assert_eq!(store.as_slice(), [0, 1]);
        assert_eq!((built, store.dropped()), (2, 3));
    }
}
