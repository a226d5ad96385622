//! Tournament (loser) tree for multiway merging.
//!
//! The classical structure: `k` input streams, a complete binary tree whose
//! internal nodes remember the *loser* of each match and whose root path
//! replay costs `O(lg k)` comparisons per extracted record.
//!
//! Sources hand over whole blocks ([`Source`]); the tree keeps a cursor and
//! the head key of every *live* source, so the per-record path compares bare
//! `(key, run)` pairs and never asks whether a source is exhausted. A source
//! that runs dry leaves the tree, which is rebuilt over the live ones —
//! `O(k)` work, at most `k` times per merge. Ties break by the source's
//! original index, making the merge deterministic and stable.

use std::hint::select_unpredictable;

use emcore::{EmError, EmFile, MemCharge, MemoryTracker, Record, Result, TrackedVec};

/// A block-granular source of key-sorted records, the input of a
/// [`LoserTree`]. The source owns its block buffer and that buffer's
/// memory charge.
pub trait Source<T: Record> {
    /// Load the next non-empty block; `false` once the source is exhausted.
    fn advance(&mut self) -> Result<bool>;

    /// The block loaded by the last [`Source::advance`] that returned
    /// `true`.
    fn block(&self) -> &[T];
}

/// A [`Source`] over a sorted run on the device: one block buffer of
/// `B·T::WORDS` words, charged as a [`emcore::Reader`] charges its own,
/// and one read I/O per block.
pub struct RunSource<'a, T: Record> {
    file: &'a EmFile<T>,
    buf: TrackedVec<T>,
    next: u64,
}

impl<'a, T: Record> RunSource<'a, T> {
    /// Charge the block buffer; reads nothing until the first
    /// [`Source::advance`].
    pub fn new(file: &'a EmFile<T>) -> Result<Self> {
        let buf = file
            .ctx()
            .try_tracked_vec::<T>(file.block_capacity(), "reader block buffer")?;
        Ok(Self { file, buf, next: 0 })
    }
}

impl<T: Record> Source<T> for RunSource<'_, T> {
    fn advance(&mut self) -> Result<bool> {
        while self.next < self.file.num_blocks() {
            self.file.read_block_into(self.next, &mut self.buf)?;
            self.next += 1;
            if !self.buf.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    #[inline]
    fn block(&self) -> &[T] {
        &self.buf
    }
}

/// Loser tree over `k` sources. Yields records in nondecreasing key order,
/// assuming every source is itself key-sorted.
///
/// [`LoserTree::with_tracking`] charges `k·(T::WORDS + 2)` words against
/// the context: per source, a head key (charged at the record's width), a
/// cursor and a loser slot.
pub struct LoserTree<T: Record, S: Source<T>> {
    /// Live sources in original order, so a slot's position orders ties
    /// exactly as its original index does.
    live: Vec<S>,
    /// Exhausted sources, held (with any buffer charge) until the tree
    /// drops.
    retired: Vec<S>,
    /// `cursor[s]` = position of live source `s`'s head in its block.
    cursor: Vec<usize>,
    /// `keys[s]` = key of live source `s`'s head.
    keys: Vec<T::Key>,
    /// `tree[n]` = live slot of the loser stored at internal node `n`.
    tree: Vec<u32>,
    winner: usize,
    _charge: Option<MemCharge>,
}

impl<T: Record, S: Source<T>> LoserTree<T, S> {
    /// Build the tree, loading the first block of every source.
    pub fn new(sources: Vec<S>) -> Result<Self> {
        Self::build(sources, None)
    }

    /// Build the tree, charging its `O(k)` bookkeeping words to `mem`
    /// before any source loads a block.
    pub fn with_tracking(sources: Vec<S>, mem: &MemoryTracker) -> Result<Self> {
        let k = sources.len();
        let charge = mem.try_charge(k * (T::WORDS + 2), "loser tree state")?;
        Self::build(sources, Some(charge))
    }

    fn build(sources: Vec<S>, charge: Option<MemCharge>) -> Result<Self> {
        let k = sources.len();
        if k == 0 {
            return Err(EmError::config("loser tree needs at least one source"));
        }
        let mut live = Vec::with_capacity(k);
        let mut retired = Vec::new();
        let mut keys = Vec::with_capacity(k);
        for mut s in sources {
            if s.advance()? {
                keys.push(s.block()[0].key());
                live.push(s);
            } else {
                retired.push(s);
            }
        }
        let mut tree = Self {
            cursor: vec![0; live.len()],
            live,
            retired,
            keys,
            tree: Vec::with_capacity(k),
            winner: 0,
            _charge: charge,
        };
        tree.rebuild();
        Ok(tree)
    }

    /// Does live slot `a` (head key `ka`) sort before slot `b` (`kb`)?
    #[inline(always)]
    fn beats(ka: &T::Key, a: u32, kb: &T::Key, b: u32) -> bool {
        (ka, a) < (kb, b)
    }

    /// Play every match afresh over the live slots: leaves at positions
    /// `m..2m`, internal node `n` with children `2n` and `2n + 1`.
    fn rebuild(&mut self) {
        let m = self.keys.len();
        self.tree.clear();
        self.tree.resize(m, 0);
        let mut winners = vec![0u32; 2 * m];
        for (i, w) in winners.iter_mut().enumerate().skip(m) {
            *w = (i - m) as u32;
        }
        for n in (1..m).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let a_wins = Self::beats(&self.keys[a as usize], a, &self.keys[b as usize], b);
            winners[n] = if a_wins { a } else { b };
            self.tree[n] = if a_wins { b } else { a };
        }
        self.winner = winners.get(1).map_or(0, |&w| w as usize);
    }

    /// Replay the path from live slot `w`'s leaf to the root after its
    /// head changed.
    #[inline]
    fn replay(&mut self, w: usize) {
        let mut cur = w as u32;
        let mut cur_key = self.keys[w];
        let mut n = (self.keys.len() + w) / 2;
        while n >= 1 {
            let stored = self.tree[n];
            let stored_key = self.keys[stored as usize];
            let swap = Self::beats(&stored_key, stored, &cur_key, cur);
            self.tree[n] = select_unpredictable(swap, cur, stored);
            cur = select_unpredictable(swap, stored, cur);
            cur_key = select_unpredictable(swap, stored_key, cur_key);
            n /= 2;
        }
        self.winner = cur as usize;
    }

    /// Drop exhausted live slot `w` from the tournament.
    #[cold]
    fn retire(&mut self, w: usize) {
        self.retired.push(self.live.remove(w));
        self.cursor.remove(w);
        self.keys.remove(w);
        self.rebuild();
    }

    /// Hand every record to `emit` in merged order. A source's next block
    /// is loaded as soon as its last record wins, before that record is
    /// emitted.
    pub fn drain(&mut self, mut emit: impl FnMut(T) -> Result<()>) -> Result<()> {
        while !self.live.is_empty() {
            let w = self.winner;
            let block = self.live[w].block();
            let pos = self.cursor[w];
            let rec = block[pos];
            if pos + 1 < block.len() {
                self.cursor[w] = pos + 1;
                self.keys[w] = block[pos + 1].key();
                self.replay(w);
            } else if self.live[w].advance()? {
                self.cursor[w] = 0;
                self.keys[w] = self.live[w].block()[0].key();
                self.replay(w);
            } else {
                self.retire(w);
            }
            emit(rec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source over an in-memory slice, handed over `block` records at a
    /// time.
    struct SliceSource<'a, T> {
        chunks: std::slice::Chunks<'a, T>,
        cur: &'a [T],
    }

    impl<'a, T> SliceSource<'a, T> {
        fn new(data: &'a [T], block: usize) -> Self {
            Self {
                chunks: data.chunks(block),
                cur: &[],
            }
        }
    }

    impl<T: Record> Source<T> for SliceSource<'_, T> {
        fn advance(&mut self) -> Result<bool> {
            self.cur = self.chunks.next().unwrap_or(&[]);
            Ok(!self.cur.is_empty())
        }

        fn block(&self) -> &[T] {
            self.cur
        }
    }

    fn sources(streams: &[Vec<u64>], block: usize) -> Vec<SliceSource<'_, u64>> {
        streams.iter().map(|s| SliceSource::new(s, block)).collect()
    }

    fn drain(mut lt: LoserTree<u64, SliceSource<'_, u64>>) -> Vec<u64> {
        let mut out = Vec::new();
        lt.drain(|x| {
            out.push(x);
            Ok(())
        })
        .unwrap();
        out
    }

    fn merged(streams: &[Vec<u64>], block: usize) -> Vec<u64> {
        drain(LoserTree::new(sources(streams, block)).unwrap())
    }

    #[test]
    fn merges_two_sorted_streams() {
        let streams = [vec![1u64, 3, 5, 7], vec![2u64, 4, 6, 8]];
        for block in [1, 3, 8] {
            assert_eq!(merged(&streams, block), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        }
    }

    #[test]
    fn merges_single_stream() {
        assert_eq!(merged(&[vec![5u64, 6, 7]], 2), vec![5, 6, 7]);
    }

    #[test]
    fn merges_many_uneven_streams() {
        let streams: Vec<Vec<u64>> = vec![
            vec![10, 20, 30],
            vec![],
            vec![5],
            vec![1, 2, 3, 4, 100],
            vec![15, 25],
            vec![],
        ];
        let mut want: Vec<u64> = streams.concat();
        want.sort_unstable();
        for block in [1, 2, 4] {
            assert_eq!(merged(&streams, block), want);
        }
    }

    #[test]
    fn handles_duplicates_deterministically() {
        assert_eq!(
            merged(&[vec![1u64, 1, 1], vec![1u64, 1]], 2),
            vec![1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn all_empty_streams() {
        assert!(merged(&[vec![], vec![]], 4).is_empty());
    }

    #[test]
    fn zero_streams_rejected() {
        let r = LoserTree::<u64, SliceSource<'_, u64>>::new(vec![]);
        assert!(r.is_err());
    }

    #[test]
    fn non_power_of_two_widths() {
        for k in 1..=9usize {
            let streams: Vec<Vec<u64>> = (0..k)
                .map(|i| (0..5).map(|j| (j * k + i) as u64).collect())
                .collect();
            let want: Vec<u64> = (0..5 * k as u64).collect();
            assert_eq!(merged(&streams, 2), want, "k = {k}");
        }
    }

    #[test]
    fn emit_error_stops_the_merge() {
        let streams = [vec![1u64, 2, 3], vec![4u64]];
        let mut lt = LoserTree::new(sources(&streams, 1)).unwrap();
        let mut seen = 0;
        let r = lt.drain(|_| {
            seen += 1;
            if seen == 2 {
                Err(EmError::config("sink full"))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
        assert_eq!(seen, 2);
    }

    #[test]
    fn tracking_charges_memory() {
        let mem = MemoryTracker::new(1000, true);
        let a = [vec![1u64]];
        let lt = LoserTree::with_tracking(sources(&a, 1), &mem).unwrap();
        assert_eq!(mem.current(), 3);
        drop(lt);
        assert_eq!(mem.current(), 0);
    }
}
