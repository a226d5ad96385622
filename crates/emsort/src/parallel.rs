//! Parallel external merge sort: `W` workers over one shared context.
//!
//! [`parallel_external_sort`] is the multi-threaded counterpart of
//! [`crate::external_sort`], built on `std::thread` + `std::sync::mpsc`
//! only. Its defining property is that it is *I/O-identical* to the
//! sequential sort: run boundaries, merge pass structure and fan-in are
//! exactly those of `external_sort`, so logical I/O counts and the sorted
//! output are byte-for-byte the same at any worker count — only wall-clock
//! time changes.
//!
//! ## Threading structure
//!
//! * **Run formation** — chunk boundaries are those of
//!   [`crate::form_runs_load_sort`]. When they fall on block boundaries
//!   (the common case: the working capacity is a whole number of blocks),
//!   `W` workers claim chunk indices from an atomic counter and read,
//!   sort, and write their chunks entirely on their own — the read scan
//!   itself is parallel, and every input block is still read exactly once.
//!   Otherwise a coordinator thread scans the input sequentially and hands
//!   `(seq, chunk)` pairs to the workers over a bounded channel. Either
//!   way runs are re-ordered by sequence number so the merge sees them in
//!   scan order.
//! * **Merge passes** — a pass merges groups of `fan_in` runs exactly as
//!   [`crate::merge_runs_with_fan_in`] would; groups within a pass are
//!   independent, so up to `W` of them merge concurrently.
//! * **Merge overlap** — when the context simulates device latency
//!   (`EmConfig::device_latency_us > 0`), each merge additionally overlaps
//!   transfers with computation: one *prefetch thread per input run* reads
//!   blocks ahead into a small bounded channel, and a dedicated writer
//!   thread drains full output blocks from the merging thread — device
//!   reads, loser-tree comparisons, and device writes all proceed
//!   concurrently, so even the final single-group pass benefits from
//!   parallelism. On a zero-latency backend a transfer is a memcpy and the
//!   channel handoffs would be pure overhead, so plain in-thread merges
//!   are used instead; either way the logical I/O schedule is the same.
//!
//! ## Memory model
//!
//! In the spirit of distributed EM sorting (cf. Rahn, Sanders & Singler),
//! the parallel sort is modelled as `W` cooperating EM machines, each with
//! its own budget of `M` words; the aggregate in-flight footprint is
//! `O(W·M)`. All charges still go through the shared [`emcore::MemoryTracker`]
//! so peak usage is reported honestly, but a *strict* context enforces a
//! single-machine budget and therefore falls back to the sequential sort.
//!
//! Fault injection composes with the parallel path, but positional
//! triggers (`Trigger::OnCount`) fire on a global counter and are
//! therefore nondeterministic under concurrency; crash-recovery tests
//! should keep `workers = 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Mutex;

use emcore::{EmContext, EmError, EmFile, MemCharge, Record, Result};

use crate::loser_tree::{LoserTree, Source};
use crate::merge::{max_merge_fan_in_now, merge_once};
use crate::runs::working_capacity;
use crate::sort::external_sort_with;
use crate::RunFormation;

/// How many block batches a prefetch thread may run ahead of the merge.
const PREFETCH_DEPTH: usize = 2;

/// Sort `input` using `ctx.config().workers()` threads.
///
/// Produces the same sorted file and charges the same logical I/Os as
/// [`crate::external_sort`] — run boundaries, pass structure and fan-in
/// are identical — but forms runs and merges independent groups
/// concurrently, and overlaps the final merge with prefetch threads.
///
/// Falls back to the sequential sort when `workers <= 1` or when the
/// context meters memory *strictly* (the parallel sort's aggregate
/// footprint is `W` machines × `M` words, which a strict single-machine
/// budget would reject).
pub fn parallel_external_sort<T: Record>(input: &EmFile<T>) -> Result<EmFile<T>> {
    let ctx = input.ctx().clone();
    let workers = ctx.config().workers();
    if workers <= 1 || ctx.mem().is_strict() {
        return external_sort_with(input, RunFormation::LoadSort, None);
    }
    let stats = ctx.stats().clone();
    let t0 = std::time::Instant::now();
    let formation = stats.phase_guard("sort/run-formation");
    // Worker threads parent their trace spans on the phase opened here:
    // the tracer resolves parents per thread, so without the explicit id
    // a worker's span could land under another thread's span.
    let form_span = stats.current_span_id();
    let runs = parallel_form_runs(input, workers, form_span);
    drop(formation);
    let t1 = std::time::Instant::now();
    let runs = runs?;
    let merge = stats.phase_guard("sort/merge");
    let merge_span = stats.current_span_id();
    let out = parallel_merge(&ctx, runs, ctx.config().fan_in(), workers, merge_span);
    drop(merge);
    if std::env::var_os("EMSORT_PAR_DEBUG").is_some() {
        eprintln!(
            "[par-debug] W={workers} form={:?} merge={:?}",
            t1 - t0,
            t1.elapsed()
        );
    }
    out
}

/// Cut `input` into chunks at the same boundaries as
/// [`crate::form_runs_load_sort`] and sort/write the chunks on `workers`
/// threads. Returns the runs in scan order.
fn parallel_form_runs<T: Record>(
    input: &EmFile<T>,
    workers: usize,
    parent: u64,
) -> Result<Vec<EmFile<T>>> {
    let ctx = input.ctx().clone();
    let cap = working_capacity::<T>(&ctx);
    // Records per block for THIS record type — not the word-denominated
    // block size (they differ for multi-word records).
    let bpr = ctx.config().block_records_for_width(T::WORDS);
    if cap.is_multiple_of(bpr) {
        form_runs_block_ranges(input, workers, cap, parent)
    } else {
        form_runs_shipped(input, workers, cap, parent)
    }
}

/// Fast path: chunk boundaries coincide with block boundaries, so workers
/// claim chunk indices from an atomic counter and read their own chunks
/// straight from `input` — no serial coordinator scan. Each input block
/// belongs to exactly one chunk and is read exactly once, so logical I/O
/// matches the sequential scan.
fn form_runs_block_ranges<T: Record>(
    input: &EmFile<T>,
    workers: usize,
    cap: usize,
    parent: u64,
) -> Result<Vec<EmFile<T>>> {
    let ctx = input.ctx().clone();
    let bs = ctx.config().block_records_for_width(T::WORDS);
    let n = input.len() as usize;
    let chunks = n.div_ceil(cap);
    let next = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|s| {
        let next = &next;
        let failed = &failed;
        let mut handles = Vec::with_capacity(workers.min(chunks));
        for _ in 0..workers.min(chunks) {
            let wctx = ctx.clone();
            handles.push(s.spawn(move || -> Result<Vec<(usize, EmFile<T>)>> {
                let mut produced = Vec::new();
                let mut scratch: Vec<T> = Vec::new();
                let _scratch_charge = wctx
                    .mem()
                    .try_charge(bs * T::WORDS, "parallel chunk read block")?;
                loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let start = seq.saturating_mul(cap);
                    if start >= n || failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let len = cap.min(n - start);
                    // Trace-only span per chunk, pinned under the
                    // coordinating sort/run-formation phase.
                    let _unit = wctx
                        .stats()
                        .trace_span_under(parent, || format!("unit/run#{seq}"));
                    let run = (|| -> Result<EmFile<T>> {
                        let charge = wctx
                            .mem()
                            .try_charge(cap * T::WORDS, "parallel run formation chunk")?;
                        let mut chunk: Vec<T> = Vec::with_capacity(len);
                        let first = (start / bs) as u64;
                        for b in first..first + len.div_ceil(bs) as u64 {
                            input.read_block_into(b, &mut scratch)?;
                            chunk.extend_from_slice(&scratch);
                        }
                        debug_assert_eq!(chunk.len(), len);
                        chunk.sort_unstable_by_key(|r| r.key());
                        let mut w = wctx.writer::<T>()?;
                        w.push_all(&chunk)?;
                        drop(chunk);
                        drop(charge);
                        w.finish()
                    })();
                    match run {
                        Ok(f) => produced.push((seq, f)),
                        Err(e) => {
                            // Tell the other workers to stop claiming work.
                            failed.store(true, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                }
                Ok(produced)
            }));
        }

        let mut tagged: Vec<(usize, EmFile<T>)> = Vec::new();
        let mut worker_err: Option<EmError> = None;
        for h in handles {
            match h.join() {
                Ok(Ok(mut runs)) => tagged.append(&mut runs),
                Ok(Err(e)) => worker_err = worker_err.or(Some(e)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        if let Some(e) = worker_err {
            return Err(e);
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(tagged.into_iter().map(|(_, f)| f).collect())
    })
}

/// Fallback when chunk boundaries cut through blocks: a coordinator scans
/// `input` sequentially (so boundary blocks are still read once) and ships
/// whole chunks to the workers.
fn form_runs_shipped<T: Record>(
    input: &EmFile<T>,
    workers: usize,
    cap: usize,
    parent: u64,
) -> Result<Vec<EmFile<T>>> {
    let ctx = input.ctx().clone();

    // (sequence number, unsorted chunk, its memory charge)
    type Job<T> = (usize, Vec<T>, MemCharge);

    let (tx, rx) = sync_channel::<Job<T>>(1);
    let rx = Mutex::new(rx);

    std::thread::scope(|s| {
        let rx = &rx;

        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let wctx = ctx.clone();
            handles.push(s.spawn(move || -> Result<Vec<(usize, EmFile<T>)>> {
                let mut produced = Vec::new();
                let mut first_err: Option<EmError> = None;
                loop {
                    // Take the receiver lock only for the handoff.
                    let job = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                    let Ok((seq, mut chunk, charge)) = job else {
                        break; // channel closed: no more chunks
                    };
                    // After a failure keep draining (and dropping) chunks so
                    // the coordinator's bounded send never wedges.
                    if first_err.is_some() {
                        continue;
                    }
                    let _unit = wctx
                        .stats()
                        .trace_span_under(parent, || format!("unit/run#{seq}"));
                    chunk.sort_unstable_by_key(|r| r.key());
                    let run = (|| {
                        let mut w = wctx.writer::<T>()?;
                        w.push_all(&chunk)?;
                        w.finish()
                    })();
                    drop(chunk);
                    drop(charge);
                    match run {
                        Ok(f) => produced.push((seq, f)),
                        Err(e) => first_err = Some(e),
                    }
                }
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(produced),
                }
            }));
        }

        // Coordinator: sequential scan, same chunk boundaries as the
        // sequential load-sort formation.
        let mut scan_err: Option<EmError> = None;
        {
            let mut reader = input.reader()?;
            let mut seq = 0usize;
            'scan: loop {
                let charge = match ctx
                    .mem()
                    .try_charge(cap * T::WORDS, "parallel run formation chunk")
                {
                    Ok(c) => c,
                    Err(e) => {
                        scan_err = Some(e);
                        break 'scan;
                    }
                };
                let mut chunk: Vec<T> = Vec::with_capacity(cap);
                while chunk.len() < cap {
                    match reader.next() {
                        Ok(Some(x)) => chunk.push(x),
                        Ok(None) => break,
                        Err(e) => {
                            scan_err = Some(e);
                            break 'scan;
                        }
                    }
                }
                if chunk.is_empty() {
                    break;
                }
                let exhausted = chunk.len() < cap;
                if tx.send((seq, chunk, charge)).is_err() {
                    break; // all workers gone (only on panic)
                }
                seq += 1;
                if exhausted {
                    break;
                }
            }
        }
        drop(tx); // close the channel so idle workers exit

        let mut tagged: Vec<(usize, EmFile<T>)> = Vec::new();
        let mut worker_err: Option<EmError> = None;
        for h in handles {
            match h.join() {
                Ok(Ok(mut runs)) => tagged.append(&mut runs),
                Ok(Err(e)) => worker_err = worker_err.or(Some(e)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        if let Some(e) = scan_err {
            return Err(e);
        }
        if let Some(e) = worker_err {
            return Err(e);
        }
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(tagged.into_iter().map(|(_, f)| f).collect())
    })
}

/// Merge `runs` with the pass/group structure of
/// [`crate::merge_runs_with_fan_in`], merging independent groups of a pass
/// on up to `workers` threads and prefetching the single-group final pass.
fn parallel_merge<T: Record>(
    ctx: &EmContext,
    mut runs: Vec<EmFile<T>>,
    fan_in: usize,
    workers: usize,
    parent: u64,
) -> Result<EmFile<T>> {
    if runs.is_empty() {
        return ctx.create_file::<T>();
    }
    while runs.len() > 1 {
        // Same grouping as the sequential merge: consecutive groups of
        // `fan_in`, with a lone leftover run carried over unmerged. The
        // clamp is re-read per pass so a governor squeeze narrows later
        // passes instead of overcommitting.
        let fan_in = fan_in.clamp(2, max_merge_fan_in_now::<T>(ctx));
        let mut groups: Vec<Vec<EmFile<T>>> = Vec::with_capacity(runs.len().div_ceil(fan_in));
        let mut group: Vec<EmFile<T>> = Vec::with_capacity(fan_in);
        for r in runs.drain(..) {
            group.push(r);
            if group.len() == fan_in {
                groups.push(std::mem::take(&mut group));
            }
        }
        if !group.is_empty() {
            groups.push(group); // may be a lone run: passed through below
        }

        // Prefetch/write-behind threads only pay when a transfer has
        // latency to hide; against a page-cache-speed backend the channel
        // handoffs are pure overhead.
        let overlap = ctx.config().device_latency_us() > 0;
        let tp = std::time::Instant::now();
        let ng = groups.len();
        runs = if groups.len() == 1 {
            let only = groups.pop().expect("non-empty by construction");
            if only.len() == 1 {
                only // lone leftover: carried unmerged
            } else {
                vec![merge_group(ctx, &only, overlap)?]
            }
        } else {
            merge_groups_parallel(ctx, groups, workers, overlap, parent)?
        };
        if std::env::var_os("EMSORT_PAR_DEBUG").is_some() {
            eprintln!("[par-debug]   pass groups={ng} took {:?}", tp.elapsed());
        }
    }
    runs.pop()
        .ok_or_else(|| EmError::config("merge pass produced no output run"))
}

/// Merge each group on its own thread (at most `workers` at a time),
/// preserving group order in the output.
fn merge_groups_parallel<T: Record>(
    ctx: &EmContext,
    groups: Vec<Vec<EmFile<T>>>,
    workers: usize,
    overlap: bool,
    parent: u64,
) -> Result<Vec<EmFile<T>>> {
    let n = groups.len();
    let tasks: Vec<Mutex<Option<Vec<EmFile<T>>>>> =
        groups.into_iter().map(|g| Mutex::new(Some(g))).collect();
    let results: Vec<Mutex<Option<Result<EmFile<T>>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let group = tasks[i]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .take()
                    .expect("each task is claimed exactly once");
                let merged = if group.len() == 1 {
                    // Lone leftover run: carried to the next pass unmerged,
                    // exactly as the sequential merge does.
                    Ok(group.into_iter().next().expect("len checked"))
                } else {
                    // Trace-only span per merge group, pinned under the
                    // coordinating sort/merge phase.
                    let _unit = ctx
                        .stats()
                        .trace_span_under(parent, || format!("unit/merge-group#{i}"));
                    merge_group(ctx, &group, overlap)
                };
                *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(merged);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("every group index below n is processed")
        })
        .collect()
}

/// A [`Source`] fed block batches by a prefetch thread.
struct ChannelSource<T: Record> {
    rx: Receiver<Result<(Vec<T>, MemCharge)>>,
    batch: Vec<T>,
    /// Keeps the current batch's words charged while records drain from it.
    _charge: Option<MemCharge>,
}

impl<T: Record> Source<T> for ChannelSource<T> {
    fn advance(&mut self) -> Result<bool> {
        loop {
            match self.rx.recv() {
                Ok(Ok((batch, charge))) => {
                    self.batch = batch;
                    self._charge = Some(charge);
                    if !self.batch.is_empty() {
                        return Ok(true);
                    }
                }
                Ok(Err(e)) => return Err(e),
                Err(_) => {
                    // Prefetcher finished and hung up: source exhausted.
                    self._charge = None;
                    return Ok(false);
                }
            }
        }
    }

    fn block(&self) -> &[T] {
        &self.batch
    }
}

/// Merge one group, preferring the overlapped (prefetch + write-behind)
/// path. If the prefetch pipeline's extra block buffers no longer fit a
/// squeezed budget, fall back to the plain single-threaded merge, which
/// needs only one buffer per run — degrade, don't fail.
fn merge_group<T: Record>(
    ctx: &EmContext,
    group: &[EmFile<T>],
    overlap: bool,
) -> Result<EmFile<T>> {
    if overlap {
        match merge_once_prefetch(ctx, group) {
            Err(EmError::MemoryExceeded { .. }) => merge_once(ctx, group),
            r => r,
        }
    } else {
        merge_once(ctx, group)
    }
}

/// [`merge_once`], but each input run is read ahead by its own prefetch
/// thread and full output blocks are handed to a dedicated writer thread,
/// so device reads, the loser-tree computation, and device writes all
/// overlap. Charges the same logical I/Os as a plain [`merge_once`] (one
/// read per input block, one write per output block).
fn merge_once_prefetch<T: Record>(ctx: &EmContext, runs: &[EmFile<T>]) -> Result<EmFile<T>> {
    // One batch = one block: `bs` records of `T::WORDS` words each, charged
    // at the model's block size `B` (in words).
    let bs = ctx.config().block_records_for_width(T::WORDS);
    let block_words = ctx.config().block_size();
    std::thread::scope(|s| {
        let mut sources = Vec::with_capacity(runs.len());
        for run in runs {
            let (tx, rx) = sync_channel::<Result<(Vec<T>, MemCharge)>>(PREFETCH_DEPTH);
            let pctx = ctx.clone();
            s.spawn(move || {
                for block in 0..run.num_blocks() {
                    let mut batch = Vec::new();
                    let msg = match pctx.mem().try_charge(block_words, "merge prefetch batch") {
                        Ok(charge) => match run.read_block_into(block, &mut batch) {
                            Ok(()) => Ok((batch, charge)),
                            Err(e) => Err(e),
                        },
                        Err(e) => Err(e),
                    };
                    let failed = msg.is_err();
                    if tx.send(msg).is_err() || failed {
                        break; // consumer hung up, or nothing further to read
                    }
                }
            });
            sources.push(ChannelSource {
                rx,
                batch: Vec::new(),
                _charge: None,
            });
        }

        // Writer thread: drains full output blocks so the merging thread
        // never stalls on a device write. Exits (closing the channel) on
        // the first write error; the merging thread then stops sending.
        let (wtx, wrx) = sync_channel::<(Vec<T>, MemCharge)>(PREFETCH_DEPTH);
        let wctx = ctx.clone();
        let writer = s.spawn(move || -> Result<EmFile<T>> {
            let mut w = wctx.writer::<T>()?;
            while let Ok((batch, charge)) = wrx.recv() {
                w.push_all(&batch)?;
                drop(charge);
            }
            w.finish()
        });

        let merged: Result<()> = (|| {
            let mut tree = LoserTree::with_tracking(sources, ctx.mem())?;
            let mut buf: Vec<T> = Vec::with_capacity(bs);
            let mut charge = ctx.mem().try_charge(block_words, "merge output batch")?;
            tree.drain(|x| {
                buf.push(x);
                if buf.len() == bs {
                    let full = std::mem::replace(&mut buf, Vec::with_capacity(bs));
                    let c = std::mem::replace(
                        &mut charge,
                        ctx.mem().try_charge(block_words, "merge output batch")?,
                    );
                    if wtx.send((full, c)).is_err() {
                        // The writer bailed: stop merging. Its own error
                        // outranks this one below.
                        return Err(EmError::config("merge writer hung up"));
                    }
                }
                Ok(())
            })?;
            if !buf.is_empty() {
                let _ = wtx.send((buf, charge));
            }
            Ok(())
        })();
        drop(wtx); // close the channel so the writer finishes the file

        let out = match writer.join() {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        // A writer error is the root cause when the merge side merely saw
        // the channel close; a merge error outranks the writer's clean
        // (but partial) file.
        match (merged, out) {
            (_, Err(e)) => Err(e),
            (Err(e), Ok(_)) => Err(e),
            (Ok(()), Ok(f)) => Ok(f),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{external_sort, is_sorted};
    use emcore::{Counters, EmConfig};

    fn data(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 2654435761) % 1_000_003).collect()
    }

    fn mem_ctx(workers: usize) -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny().with_workers(workers))
    }

    fn io_delta(ctx: &EmContext, before: &Counters) -> (u64, u64) {
        let d = ctx.stats().snapshot().since(before);
        (d.reads, d.writes)
    }

    #[test]
    fn parallel_matches_sequential_output() {
        let n = 5000;
        let seq_ctx = mem_ctx(1);
        let par_ctx = mem_ctx(4);
        let sf = EmFile::from_slice(&seq_ctx, &data(n)).unwrap();
        let pf = EmFile::from_slice(&par_ctx, &data(n)).unwrap();
        let want = external_sort(&sf).unwrap().to_vec().unwrap();
        let got = parallel_external_sort(&pf).unwrap().to_vec().unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_charges_identical_logical_ios() {
        let n = 6000;
        let seq_ctx = mem_ctx(1);
        let par_ctx = mem_ctx(4);
        let sf = EmFile::from_slice(&seq_ctx, &data(n)).unwrap();
        let pf = EmFile::from_slice(&par_ctx, &data(n)).unwrap();

        let sb = seq_ctx.stats().snapshot();
        let sorted_seq = external_sort(&sf).unwrap();
        let seq_io = io_delta(&seq_ctx, &sb);

        let pb = par_ctx.stats().snapshot();
        let sorted_par = parallel_external_sort(&pf).unwrap();
        let par_io = io_delta(&par_ctx, &pb);

        assert_eq!(par_io, seq_io, "parallel sort must be I/O-identical");
        assert_eq!(sorted_par.to_vec().unwrap(), sorted_seq.to_vec().unwrap());
    }

    #[test]
    fn parallel_phase_totals_cover_worker_ios() {
        let par_ctx = mem_ctx(4);
        let pf = EmFile::from_slice(&par_ctx, &data(4000)).unwrap();
        let _ = parallel_external_sort(&pf).unwrap();
        let phases = par_ctx.stats().phase_totals();
        let formation = phases
            .iter()
            .find(|(n, _)| n == "sort/run-formation")
            .map(|(_, c)| c.total_ios())
            .unwrap_or(0);
        let merge = phases
            .iter()
            .find(|(n, _)| n == "sort/merge")
            .map(|(_, c)| c.total_ios())
            .unwrap_or(0);
        assert!(formation > 0, "worker I/O must land in the formation phase");
        assert!(merge > 0, "merge I/O must land in the merge phase");
    }

    #[test]
    fn parallel_on_disk_backend() {
        let dir = std::env::temp_dir().join(format!("emsort-par-{}", std::process::id()));
        let ctx = EmContext::new_on_disk(EmConfig::tiny().with_workers(4), &dir).unwrap();
        let f = EmFile::from_slice(&ctx, &data(3000)).unwrap();
        let s = parallel_external_sort(&f).unwrap();
        assert!(is_sorted(&s).unwrap());
        assert_eq!(s.len(), 3000);
        drop((f, s));
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_empty_and_tiny_inputs() {
        let c = mem_ctx(4);
        let f = c.create_file::<u64>().unwrap();
        assert!(parallel_external_sort(&f).unwrap().is_empty());
        let g = EmFile::from_slice(&c, &[9u64, 1, 5]).unwrap();
        assert_eq!(
            parallel_external_sort(&g).unwrap().to_vec().unwrap(),
            vec![1, 5, 9]
        );
    }

    #[test]
    fn strict_context_falls_back_to_sequential() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny().with_workers(4));
        let f = EmFile::from_slice(&c, &data(2000)).unwrap();
        // Would blow the strict single-machine budget if run in parallel.
        let s = parallel_external_sort(&f).unwrap();
        assert!(is_sorted(&s).unwrap());
        assert_eq!(s.len(), 2000);
    }

    #[test]
    fn external_sort_dispatches_on_workers() {
        // external_sort on a workers=4 lenient context takes the parallel
        // path and still matches the sequential result.
        let seq_ctx = mem_ctx(1);
        let par_ctx = mem_ctx(4);
        let sf = EmFile::from_slice(&seq_ctx, &data(3500)).unwrap();
        let pf = EmFile::from_slice(&par_ctx, &data(3500)).unwrap();
        assert_eq!(
            external_sort(&pf).unwrap().to_vec().unwrap(),
            external_sort(&sf).unwrap().to_vec().unwrap()
        );
    }

    #[test]
    fn parallel_with_device_latency_overlaps_and_matches() {
        // A nonzero simulated device latency switches every merge to the
        // prefetch/write-behind path; output and logical I/Os must still
        // match the unthrottled sequential sort exactly.
        let n = 3000;
        let dir = std::env::temp_dir().join(format!("emsort-lat-{}", std::process::id()));
        let ctx = EmContext::new_on_disk(
            EmConfig::tiny().with_workers(4).with_device_latency_us(1),
            &dir,
        )
        .unwrap();
        let seq_ctx = mem_ctx(1);
        let pf = EmFile::from_slice(&ctx, &data(n)).unwrap();
        let sf = EmFile::from_slice(&seq_ctx, &data(n)).unwrap();

        let pb = ctx.stats().snapshot();
        let got = parallel_external_sort(&pf).unwrap();
        let par_io = io_delta(&ctx, &pb);
        let sb = seq_ctx.stats().snapshot();
        let want = external_sort(&sf).unwrap();
        let seq_io = io_delta(&seq_ctx, &sb);

        assert_eq!(got.to_vec().unwrap(), want.to_vec().unwrap());
        assert_eq!(par_io, seq_io, "latency throttle must not change the plan");
        drop((pf, got));
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_once_prefetch_matches_merge_once() {
        let c = mem_ctx(2);
        let mk = |off: u64| -> EmFile<u64> {
            let v: Vec<u64> = (0..500).map(|i| i * 3 + off).collect();
            EmFile::from_slice(&c, &v).unwrap()
        };
        let runs = [mk(0), mk(1), mk(2)];
        let before = c.stats().snapshot();
        let m = merge_once_prefetch(&c, &runs).unwrap();
        let d = c.stats().snapshot().since(&before);
        assert_eq!(m.to_vec().unwrap(), (0..1500u64).collect::<Vec<_>>());
        // Same logical I/O as a plain merge: read every input block once,
        // write every output block once.
        let blocks: u64 = runs.iter().map(|r| r.num_blocks()).sum();
        assert_eq!(d.reads, blocks);
        assert_eq!(d.writes, m.num_blocks());
    }
}
