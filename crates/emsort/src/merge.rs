//! Multiway merging of sorted runs.

use emcore::{EmConfig, EmContext, EmError, EmFile, Record, Result};

use crate::loser_tree::{LoserTree, RunSource};

/// Largest merge fan-in that fits the memory budget for record type `T`:
/// `k` reader block buffers + one writer block buffer + `O(k)` loser-tree
/// state must total at most `M` words.
pub fn max_merge_fan_in<T: Record>(config: EmConfig) -> usize {
    max_fan_in_for_budget::<T>(config, config.mem_capacity())
}

/// [`max_merge_fan_in`] against the *live* budget of `ctx` rather than the
/// static configuration: when the memory governor has squeezed `M` mid-job,
/// this shrinks accordingly, and merge passes started after the squeeze use
/// the narrower fan-in.
pub fn max_merge_fan_in_now<T: Record>(ctx: &EmContext) -> usize {
    max_fan_in_for_budget::<T>(ctx.config(), ctx.mem_budget())
}

fn max_fan_in_for_budget<T: Record>(config: EmConfig, budget: usize) -> usize {
    let block_words = config.block_size() * T::WORDS;
    let per_stream = block_words + T::WORDS + 2; // reader buffer + tree slot
    ((budget.saturating_sub(block_words)) / per_stream).max(2)
}

/// Merge up to `fan_in` sorted runs into one sorted file using a loser
/// tree. Memory: one block buffer per input run + one output buffer +
/// `O(k)` tree state — within `M` for `k ≤ M/B − 2`. Charged in that
/// order: every run buffer, then the tree state; the first block of every
/// run is read before the output buffer is charged.
pub fn merge_once<T: Record>(ctx: &EmContext, runs: &[EmFile<T>]) -> Result<EmFile<T>> {
    let sources: Vec<_> = runs.iter().map(RunSource::new).collect::<Result<_>>()?;
    let mut tree = LoserTree::with_tracking(sources, ctx.mem())?;
    let mut w = ctx.writer::<T>()?;
    tree.drain(|x| w.push(x))?;
    w.finish()
}

/// Merge an arbitrary number of sorted runs into a single sorted file by
/// repeated `fan_in`-way passes.
///
/// Each pass reads and writes every record once (`2·ceil(N/B)` I/Os), and
/// `ceil(log_{fan_in}(#runs))` passes are needed — the classical
/// `O((N/B)·lg_{M/B}(N/B))` sort bound when runs come from run formation.
pub fn merge_runs<T: Record>(ctx: &EmContext, mut runs: Vec<EmFile<T>>) -> Result<EmFile<T>> {
    merge_runs_with_fan_in(ctx, &mut runs, usize::MAX)
}

/// [`merge_runs`] with an explicit fan-in (exposed for the fan-in ablation
/// experiment EX-A2). `fan_in` is re-clamped to `[2, max_merge_fan_in_now]`
/// at every pass boundary, so a governor squeeze between passes narrows the
/// fan-in of subsequent passes (more passes, same output) instead of
/// busting the budget.
pub fn merge_runs_with_fan_in<T: Record>(
    ctx: &EmContext,
    runs: &mut Vec<EmFile<T>>,
    fan_in: usize,
) -> Result<EmFile<T>> {
    if runs.is_empty() {
        return ctx.create_file::<T>();
    }
    while runs.len() > 1 {
        let mut next: Vec<EmFile<T>> = Vec::new();
        let mut iter = std::mem::take(runs).into_iter();
        loop {
            // The clamp is re-read per *group*, so a squeeze landing
            // mid-pass narrows the very next group, not just the next
            // pass.
            let fan = fan_in.clamp(2, max_merge_fan_in_now::<T>(ctx));
            let group: Vec<EmFile<T>> = iter.by_ref().take(fan).collect();
            match group.len() {
                0 => break,
                // A lone leftover run moves to the next pass unmerged —
                // merging it alone would copy every block for nothing.
                1 => {
                    next.extend(group);
                    break;
                }
                _ => merge_group_adaptive(ctx, group, &mut next)?,
            }
        }
        *runs = next;
    }
    runs.pop()
        .ok_or_else(|| EmError::config("merge pass produced no output run"))
}

/// Merge `group` into `out`, splitting the group in half and retrying when
/// the reader buffers no longer fit a freshly squeezed budget. The halves
/// land in the current pass's output and are merged by a later pass, so
/// the result is identical — just more passes. Only a budget too small for
/// even a 2-way merge surfaces the typed error.
fn merge_group_adaptive<T: Record>(
    ctx: &EmContext,
    mut group: Vec<EmFile<T>>,
    out: &mut Vec<EmFile<T>>,
) -> Result<()> {
    if group.len() == 1 {
        out.extend(group);
        return Ok(());
    }
    match merge_once(ctx, &group) {
        Ok(f) => {
            out.push(f);
            Ok(())
        }
        Err(EmError::MemoryExceeded { .. }) if group.len() > 2 => {
            let right = group.split_off(group.len() / 2);
            merge_group_adaptive(ctx, group, out)?;
            merge_group_adaptive(ctx, right, out)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, KeyValue};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny()) // M=256, B=16, fan_in=14
    }

    fn run_of(ctx: &EmContext, data: &[u64]) -> EmFile<u64> {
        let mut v = data.to_vec();
        v.sort_unstable();
        EmFile::from_slice(ctx, &v).unwrap()
    }

    #[test]
    fn merge_once_two_runs() {
        let c = ctx();
        let a = run_of(&c, &[1, 3, 5]);
        let b = run_of(&c, &[2, 4, 6]);
        let m = merge_once(&c, &[a, b]).unwrap();
        assert_eq!(m.to_vec().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_runs_many_passes() {
        let c = ctx();
        // 30 runs with fan-in 14 → 2 passes (30 → 3 → 1)
        let runs: Vec<EmFile<u64>> = (0..30)
            .map(|i| {
                run_of(
                    &c,
                    &(0..20).map(|j| (j * 30 + i) as u64).collect::<Vec<_>>(),
                )
            })
            .collect();
        let m = merge_runs(&c, runs).unwrap();
        assert_eq!(m.len(), 600);
        assert!(crate::is_sorted(&m).unwrap());
        assert_eq!(m.to_vec().unwrap(), (0..600u64).collect::<Vec<_>>());
    }

    #[test]
    fn merge_empty_run_list() {
        let c = ctx();
        let m = merge_runs::<u64>(&c, vec![]).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn merge_single_run_is_identity() {
        let c = ctx();
        let a = run_of(&c, &[4, 2, 9]);
        let m = merge_runs(&c, vec![a]).unwrap();
        assert_eq!(m.to_vec().unwrap(), vec![2, 4, 9]);
    }

    #[test]
    fn small_fan_in_more_passes_more_io() {
        let c1 = ctx();
        let c2 = ctx();
        let mk = |c: &EmContext| -> Vec<EmFile<u64>> {
            (0..16)
                .map(|i| run_of(c, &(0..16).map(|j| (j * 16 + i) as u64).collect::<Vec<_>>()))
                .collect()
        };
        let mut r1 = mk(&c1);
        let mut r2 = mk(&c2);
        let s1 = c1.stats().snapshot();
        let s2 = c2.stats().snapshot();
        let m1 = merge_runs_with_fan_in(&c1, &mut r1, 2).unwrap(); // 4 passes
        let m2 = merge_runs_with_fan_in(&c2, &mut r2, 14).unwrap(); // 2 passes
        assert_eq!(m1.to_vec().unwrap(), m2.to_vec().unwrap());
        let io1 = c1.stats().snapshot().since(&s1).total_ios();
        let io2 = c2.stats().snapshot().since(&s2).total_ios();
        assert!(
            io1 > io2,
            "fan-in 2 ({io1} I/Os) should cost more than fan-in 14 ({io2})"
        );
    }

    /// The merge oracles' backends at the tiny geometry: strict memory and
    /// Directory.
    fn backends() -> Vec<EmContext> {
        vec![
            ctx(),
            EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap(),
        ]
    }

    /// `n` `KeyValue` records with keys in `0..distinct` (heavy duplicates)
    /// and values `tag << 32 | position`, so a tie resolved out of order
    /// shows in the output.
    fn kv_records(n: usize, distinct: u64, tag: u64) -> Vec<KeyValue> {
        let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ tag;
        (0..n)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                KeyValue {
                    key: (s >> 33) % distinct,
                    value: (tag << 32) | i as u64,
                }
            })
            .collect()
    }

    /// Key-sorted `KeyValue` runs of the given lengths, run `r` tagged `r`.
    fn kv_runs(lens: &[usize], distinct: u64) -> Vec<Vec<KeyValue>> {
        lens.iter()
            .enumerate()
            .map(|(r, &len)| {
                let mut v = kv_records(len, distinct, r as u64);
                v.sort_by_key(|x| x.key);
                v
            })
            .collect()
    }

    /// The oracle: a stable in-RAM sort by key of the runs concatenated in
    /// run order, so equal keys keep run order, then position order.
    fn stable_oracle(runs: &[Vec<KeyValue>]) -> Vec<KeyValue> {
        let mut want = runs.concat();
        want.sort_by_key(|x| x.key);
        want
    }

    fn merge_kv(c: &EmContext, runs: &[Vec<KeyValue>]) -> Vec<KeyValue> {
        let files: Vec<EmFile<KeyValue>> = runs
            .iter()
            .map(|r| EmFile::from_slice(c, r).unwrap())
            .collect();
        merge_once(c, &files).unwrap().to_vec().unwrap()
    }

    #[test]
    fn duplicate_keys_merge_stably_by_run_order() {
        for c in backends() {
            let runs = kv_runs(&[40, 17, 64, 3, 29, 50, 8], 5);
            assert_eq!(merge_kv(&c, &runs), stable_oracle(&runs));
            // Every key equal: the output is the runs back to back.
            let runs = kv_runs(&[20, 9, 33], 1);
            assert_eq!(merge_kv(&c, &runs), runs.concat());
        }
    }

    #[test]
    fn runs_that_empty_at_different_times() {
        let shapes: &[&[usize]] = &[
            &[0, 12, 30],
            &[25, 0, 7, 0, 19],
            &[9, 40, 0],
            &[1, 1, 1, 1],
            &[1, 33, 1, 0, 2],
            &[17],
            &[0],
            &[0, 0, 0, 0, 0],
        ];
        for c in backends() {
            for lens in shapes {
                let runs = kv_runs(lens, 4);
                assert_eq!(merge_kv(&c, &runs), stable_oracle(&runs), "{lens:?}");
            }
            for k in 2..=9usize {
                let lens: Vec<usize> = (0..k).map(|i| (i * 7 + 3) % 23).collect();
                let runs = kv_runs(&lens, 6);
                assert_eq!(merge_kv(&c, &runs), stable_oracle(&runs), "k = {k}");
            }
        }
    }

    #[test]
    fn prefetch_path_matches_sequential_sort_bytes() {
        // Four workers with a device latency route every merge through the
        // prefetch/write-behind path; its output must be the sequential
        // sort's, record for record.
        let data = kv_records(3000, 97, 0);
        for on_disk in [false, true] {
            let cfg = EmConfig::tiny().with_workers(4).with_device_latency_us(1);
            let par = if on_disk {
                EmContext::new_on_disk_temp(cfg).unwrap()
            } else {
                EmContext::new_in_memory(cfg)
            };
            let seq = EmContext::new_in_memory(EmConfig::tiny());
            let pf = EmFile::from_slice(&par, &data).unwrap();
            let sf = EmFile::from_slice(&seq, &data).unwrap();
            let got = crate::parallel_external_sort(&pf)
                .unwrap()
                .to_vec()
                .unwrap();
            let want = crate::external_sort(&sf).unwrap().to_vec().unwrap();
            assert_eq!(got, want);
        }
    }

    /// `(reads, writes, mem peak, mem denials)` of one merge, with the
    /// peak reset just before it.
    fn accounting<R>(c: &EmContext, f: impl FnOnce() -> R) -> (R, [u64; 4]) {
        c.mem().reset_peak();
        let before = c.stats().snapshot();
        let r = f();
        let d = c.stats().snapshot().since(&before);
        (r, [d.reads, d.writes, c.mem().peak() as u64, d.mem_denials])
    }

    fn pin_runs(c: &EmContext, k: usize) -> Vec<EmFile<u64>> {
        (0..k)
            .map(|i| {
                run_of(
                    c,
                    &(0..(i * 11 % 37 + 5))
                        .map(|j| (j * k + i) as u64)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    // The accounting pins below are literals taken from the record-at-a-time
    // merge (a `Reader` per run, `Option` heads) that the block-fed tree
    // replaced: the rewrite must charge the same reads, writes, peak words
    // and denials, in the same order.

    #[test]
    fn merge_once_accounting_is_pinned() {
        let c = ctx();
        let runs = pin_runs(&c, 9);
        let (m, acct) = accounting(&c, || merge_once(&c, &runs).unwrap());
        assert!(crate::is_sorted(&m).unwrap());
        assert_eq!(acct, [16, 12, 187, 0]);
    }

    #[test]
    fn squeezed_split_accounting_is_pinned() {
        // 12 runs (this geometry's fan-in) against a budget that a held
        // charge squeezes: at 21 words held, the readers and the tree fit
        // but the writer does not, so the first blocks are read, wasted,
        // and the group splits; at 100 held, the readers themselves fail.
        for (held, pin) in [(21usize, [52, 35, 249, 1]), (100, [40, 35, 244, 1])] {
            let c = ctx();
            let mut runs = pin_runs(&c, 12);
            let want: Vec<u64> = {
                let mut v: Vec<u64> = runs.iter().flat_map(|r| r.to_vec().unwrap()).collect();
                v.sort_unstable();
                v
            };
            let _squeeze = c.mem().try_charge(held, "test squeeze").unwrap();
            let (m, acct) = accounting(&c, || {
                merge_runs_with_fan_in(&c, &mut runs, usize::MAX).unwrap()
            });
            assert_eq!(m.to_vec().unwrap(), want);
            assert_eq!(acct, pin, "held {held}");
        }
    }
}
