//! The output representation of partitioning: a *linked list* of file
//! segments per partition, exactly as the paper specifies ("the algorithm
//! is required to output `P_1, …, P_K` in a linked list").
//!
//! Keeping each partition as a list of segments lets the multi-partition
//! recursion *adopt* a whole bucket file as partition content in `O(1)` —
//! no re-streaming — which is what makes the distribution levels cost one
//! read + one write pass each, matching the
//! `O((N/B)·lg_{M/B} K)` bound with a small constant.

use emcore::{EmContext, EmFile, Record, Result, TrackedVec};

/// One ordered partition: the concatenation of its file segments.
/// The relative order of records *within* a partition is unspecified
/// (as in the paper's problem statement).
#[derive(Debug)]
pub struct Partition<T: Record> {
    segments: Vec<EmFile<T>>,
    len: u64,
}

impl<T: Record> Partition<T> {
    /// An empty partition.
    pub fn empty() -> Self {
        Self {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// A partition consisting of one file.
    pub fn from_file(file: EmFile<T>) -> Self {
        let len = file.len();
        Self {
            segments: vec![file],
            len,
        }
    }

    /// Build from a list of segments.
    pub fn from_segments(segments: Vec<EmFile<T>>) -> Self {
        let len = segments.iter().map(|s| s.len()).sum();
        Self { segments, len }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the partition holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying segments, in order.
    pub fn segments(&self) -> &[EmFile<T>] {
        &self.segments
    }

    /// Append a segment (O(1), no I/O).
    pub fn push_segment(&mut self, file: EmFile<T>) {
        self.len += file.len();
        self.segments.push(file);
    }

    /// Take ownership of the segments (O(1), no I/O).
    pub fn into_segments(self) -> Vec<EmFile<T>> {
        self.segments
    }

    /// Visit every record (one block-buffered scan; charges the reads).
    pub fn for_each(&self, mut f: impl FnMut(T) -> Result<()>) -> Result<()> {
        let mut r = ChainReader::new(&self.segments);
        while let Some(blk) = r.next_block()? {
            for &x in blk {
                f(x)?;
            }
        }
        Ok(())
    }

    /// Materialise into a host `Vec` (charges the read scan).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut r = ChainReader::new(&self.segments);
        while let Some(blk) = r.next_block()? {
            out.extend_from_slice(blk);
        }
        Ok(out)
    }

    /// Flatten into a single file. Free if the partition already is a
    /// single segment; otherwise one read + one write scan.
    pub fn into_file(self, ctx: &EmContext) -> Result<EmFile<T>> {
        let mut segments = self.segments;
        if segments.len() == 1 {
            if let Some(seg) = segments.pop() {
                return Ok(seg);
            }
        }
        copy_segs(ctx, &segments)
    }
}

/// Total record count of a segment list.
pub fn segs_len<T: Record>(segs: &[EmFile<T>]) -> u64 {
    segs.iter().map(|s| s.len()).sum()
}

/// Copy a segment list into one fresh file, a block at a time (one read
/// and one write scan).
pub fn copy_segs<T: Record>(ctx: &EmContext, segs: &[EmFile<T>]) -> Result<EmFile<T>> {
    let mut w = ctx.writer::<T>()?;
    let mut r = ChainReader::new(segs);
    while let Some(blk) = r.next_block()? {
        w.push_all(blk)?;
    }
    w.finish()
}

/// Load a whole segment list into a tracked buffer of exactly its length
/// (one read scan). The reader's block buffer is released on return.
pub(crate) fn load_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    context: &str,
) -> Result<TrackedVec<T>> {
    let mut buf = ctx.try_tracked_vec::<T>(segs_len(segs) as usize, context)?;
    let mut r = ChainReader::new(segs);
    while let Some(blk) = r.next_block()? {
        buf.try_extend_from_slice(blk)?;
    }
    Ok(buf)
}

/// A sequential reader over a list of file segments, holding one block
/// buffer at a time. Lets every scan primitive operate on a
/// [`Partition`]'s segments without flattening them into one file.
pub struct ChainReader<'a, T: Record> {
    segs: &'a [EmFile<T>],
    idx: usize,
    cur: Option<emcore::Reader<'a, T>>,
}

impl<'a, T: Record> ChainReader<'a, T> {
    /// Reader over `segs`, in order.
    pub fn new(segs: &'a [EmFile<T>]) -> Self {
        Self {
            segs,
            idx: 0,
            cur: None,
        }
    }

    /// The unconsumed rest of the current block, moving on to the next
    /// block or segment when it is used up; `None` after the last
    /// segment. Empty segments are skipped; the slice is never empty.
    /// See [`emcore::Reader::next_block`].
    pub fn next_block(&mut self) -> Result<Option<&[T]>> {
        self.next_block_upto(usize::MAX)
    }

    /// Like [`ChainReader::next_block`], but consumes at most `max` (≥ 1)
    /// records. See [`emcore::Reader::next_block_upto`].
    pub fn next_block_upto(&mut self, max: usize) -> Result<Option<&[T]>> {
        while self.cur.as_ref().is_none_or(|r| r.remaining() == 0) {
            self.cur = None; // segment exhausted; free its buffer
            let Some(seg) = self.segs.get(self.idx) else {
                return Ok(None);
            };
            self.cur = Some(seg.reader()?);
            self.idx += 1;
        }
        match self.cur.as_mut() {
            Some(r) => r.next_block_upto(max),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::EmConfig;

    fn ctx() -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny())
    }

    /// Segments of 20 (a full block and a partial one), 0, 16 and 3
    /// records on the given backend, holding `0..39` in order.
    fn chain_segs(c: &EmContext) -> Vec<EmFile<u64>> {
        let mut at = 0u64;
        [20u64, 0, 16, 3]
            .iter()
            .map(|&len| {
                at += len;
                EmFile::from_slice(c, &(at - len..at).collect::<Vec<_>>()).unwrap()
            })
            .collect()
    }

    fn both_backends() -> [EmContext; 2] {
        [
            ctx(),
            EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap(),
        ]
    }

    #[test]
    fn chain_reader_spans_segments() {
        for c in both_backends() {
            let segs = chain_segs(&c);
            assert_eq!(segs_len(&segs), 39);
            let before = c.stats().snapshot();
            let mut r = ChainReader::new(&segs);
            let mut got = Vec::new();
            let mut lens = Vec::new();
            while let Some(blk) = r.next_block().unwrap() {
                lens.push(blk.len());
                got.extend_from_slice(blk);
            }
            // One slice per block; the empty segment yields none.
            assert_eq!(lens, vec![16, 4, 16, 3]);
            assert_eq!(got, (0..39).collect::<Vec<u64>>());
            assert_eq!(r.next_block().unwrap(), None);
            assert_eq!(c.stats().snapshot().since(&before).reads, 4);
        }
    }

    #[test]
    fn chain_reader_bounded_slices_stop_mid_block() {
        for c in both_backends() {
            let segs = chain_segs(&c);
            let before = c.stats().snapshot();
            let mut r = ChainReader::new(&segs);
            let mut got = Vec::new();
            let mut lens = Vec::new();
            for max in [5usize, 100, 3].iter().cycle() {
                let Some(blk) = r.next_block_upto(*max).unwrap() else {
                    break;
                };
                lens.push(blk.len());
                got.extend_from_slice(blk);
            }
            assert_eq!(lens, vec![5, 11, 3, 1, 16, 3]);
            assert_eq!(got, (0..39).collect::<Vec<u64>>());
            assert_eq!(c.stats().snapshot().since(&before).reads, 4);
        }
    }

    #[test]
    fn chain_reader_empty_list() {
        let mut r = ChainReader::<u64>::new(&[]);
        assert_eq!(r.next_block().unwrap(), None);
        for c in both_backends() {
            let segs = vec![c.create_file::<u64>().unwrap(), c.create_file().unwrap()];
            let mut r = ChainReader::new(&segs);
            assert_eq!(r.next_block().unwrap(), None);
            assert_eq!(c.stats().snapshot().reads, 0);
        }
    }

    #[test]
    fn empty_partition() {
        let p = Partition::<u64>::empty();
        assert!(p.is_empty());
        assert!(p.to_vec().unwrap().is_empty());
    }

    #[test]
    fn segments_concatenate() {
        let c = ctx();
        let a = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let b = EmFile::from_slice(&c, &[3u64]).unwrap();
        let p = Partition::from_segments(vec![a, b]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(p.segments().len(), 2);
    }

    #[test]
    fn push_segment_updates_len() {
        let c = ctx();
        let mut p = Partition::from_file(EmFile::from_slice(&c, &[9u64]).unwrap());
        p.push_segment(EmFile::from_slice(&c, &[8u64, 7]).unwrap());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn into_file_single_segment_is_free() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &(0..100u64).collect::<Vec<_>>()).unwrap();
        let p = Partition::from_file(f);
        let before = c.stats().snapshot();
        let back = p.into_file(&c).unwrap();
        assert_eq!(c.stats().snapshot(), before, "single segment must not copy");
        assert_eq!(back.len(), 100);
    }

    #[test]
    fn into_file_multi_segment_copies() {
        let c = ctx();
        let a = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let b = EmFile::from_slice(&c, &[3u64]).unwrap();
        let p = Partition::from_segments(vec![a, b]);
        let f = p.into_file(&c).unwrap();
        assert_eq!(f.to_vec().unwrap(), vec![1, 2, 3]);
    }
}
