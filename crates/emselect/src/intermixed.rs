//! L-intermixed selection (paper §4.1, Lemma 6).
//!
//! Input: a file `D` of `(key, group)` pairs with groups in `[0, L)`, and a
//! target rank `t_i ∈ [1, |D_i|]` per group. Output: for every group `i`,
//! the element with the `t_i`-th smallest key within that group. All `L`
//! rank selections run *concurrently* over the intermixed file in
//! `O(|D|/B)` I/Os total.
//!
//! The algorithm is the paper's: run `L` threads of median-of-medians
//! [BFPRT 1973] concurrently with `O(1)` in-memory state per thread —
//! a 5-slot subgroup buffer, the running target `t_i`, the recursion
//! medians `μ_i`, and the rank counters `θ_i` (realised here as three-way
//! `less/equal` counters, which makes duplicate keys exact). Per round:
//!
//! 1. one scan collects the medians of subgroups of 5 into `Σ` (grouped
//!    like `D`),
//! 2. a recursive call finds the median `μ_i` of each `Σ_i`,
//! 3. one scan counts, per group, the elements `< μ_i` and `= μ_i`,
//! 4. groups whose target falls on `μ_i` resolve; the rest keep only the
//!    side of `μ_i` their target lies in, forming `D'`, and the loop
//!    repeats on `D'` (`|Σ| + |D'| ≤ (19/20)|D|`, so the total cost
//!    telescopes to `O(|D|/B)`).
//!
//! One deviation from the paper's exposition, documented in DESIGN.md: the
//! parent's `O(L)` bookkeeping words are *spilled to disk* across the
//! recursive call of step 2 (and the child returns its medians via a disk
//! file), so peak memory stays `O(L)` regardless of recursion depth instead
//! of `O(L·depth)`.

use emcore::{EmConfig, EmContext, EmError, EmFile, Record, Result, SpillVec, Tagged};

use crate::internal::median_of_five;
use crate::partition_out::load_segs;

/// Maximum number of groups `L` an intermixed-selection instance may have
/// under memory capacity `M`: the per-group in-memory state (5-slot
/// subgroup buffer, targets, medians, counters) must fit comfortably
/// inside `M`. This is the paper's `m = cM` with `c = 1/(12·(w+1))` for
/// records of `w` words.
pub fn max_groups<R: Record>(config: EmConfig) -> usize {
    (config.mem_capacity() / (12 * (R::WORDS + 1))).max(1)
}

/// Solve the L-intermixed selection problem on `d` (consumed): for each
/// group `i` in `[0, targets.len())`, return the record whose key has rank
/// `targets[i]` (1-based) within group `i`.
///
/// Errors if `targets.len()` exceeds [`max_groups`], if any target is 0 or
/// exceeds its group's size, or if a group has no records.
pub fn intermixed_select<R: Record>(d: EmFile<Tagged<R>>, targets: &[u64]) -> Result<Vec<R>> {
    let ctx = d.ctx().clone();
    let l = targets.len();
    if l == 0 {
        return Ok(Vec::new());
    }
    let cap = max_groups::<R>(ctx.config());
    if l > cap {
        return Err(EmError::config(format!(
            "intermixed selection with L={l} groups exceeds capacity m={cap} for M={}",
            ctx.config().mem_capacity()
        )));
    }
    let mut ts = ctx.try_tracked_words::<u64>(l, "intermixed targets")?;
    for &t in targets {
        if t == 0 {
            return Err(EmError::config("targets are 1-based; got 0"));
        }
        ts.push(t);
    }
    let ts = SpillVec::from_tracked(&ctx, ts, "intermixed targets");

    let phase = ctx.stats().phase_guard("intermixed-select");
    let resolved = solve(&ctx, d, ts);
    drop(phase);
    let resolved = resolved?;

    let mut out: Vec<Option<R>> = vec![None; l];
    let mut r = resolved.reader()?;
    while let Some(p) = r.next()? {
        out[p.group as usize] = Some(p.rec);
    }
    out.into_iter()
        .enumerate()
        .map(|(g, o)| o.ok_or_else(|| EmError::config(format!("group {g} left unresolved"))))
        .collect()
}

/// One frame of the recursion. `ts[g] == 0` marks an inactive group (it is
/// not present in `d` and must not be answered). Returns a file of
/// `(record, group)` pairs, one per group active at entry.
fn solve<R: Record>(
    ctx: &EmContext,
    mut d: EmFile<Tagged<R>>,
    mut ts: SpillVec<u64>,
) -> Result<EmFile<Tagged<R>>> {
    let l = ts.len();
    let block = ctx.config().block_size();
    let base_cap = (ctx.mem_records::<Tagged<R>>() / 3).max(block);
    let mut resolved = SpillVec::<Tagged<R>>::with_capacity(ctx, l, "resolved answers")?;

    loop {
        let active = ts.as_slice().iter().filter(|&&t| t > 0).count();
        if active == 0 {
            break;
        }
        let n = d.len();

        if n as usize <= base_cap {
            base_case(ctx, &d, &mut ts, &mut resolved)?;
            break;
        }

        // --- Round step 1: subgroup medians into Σ (one scan of D). ---
        let sigma_counts = {
            let mut slots =
                ctx.try_tracked_buf::<[Option<R>; 5]>(l, 5 * (R::WORDS + 1), "subgroup slots")?;
            let mut fill = ctx.try_tracked_words::<u8>(l, "subgroup fill")?;
            for _ in 0..l {
                slots.push([None; 5]);
                fill.push(0);
            }
            let mut sigma_counts = ctx.try_tracked_words::<u32>(l, "sigma sizes")?;
            for _ in 0..l {
                sigma_counts.push(0);
            }
            let mut sw = ctx.writer::<Tagged<R>>()?;
            {
                let ts_s = ts.as_slice();
                let mut r = d.reader()?;
                while let Some(e) = r.next()? {
                    let g = e.group as usize;
                    if g >= l || ts_s[g] == 0 {
                        return Err(EmError::config(format!(
                            "record with inactive or out-of-range group {g}"
                        )));
                    }
                    let k = fill[g] as usize;
                    slots[g][k] = Some(e.rec);
                    fill[g] += 1;
                    if fill[g] == 5 {
                        let five: Vec<R> = slots[g].iter().map(|o| o.expect("filled")).collect();
                        sw.push(Tagged::new(median_of_five(&five), e.group))?;
                        sigma_counts[g] += 1;
                        fill[g] = 0;
                    }
                }
            }
            // Flush leftover subgroups.
            for g in 0..l {
                let k = fill[g] as usize;
                if k > 0 {
                    let part: Vec<R> = slots[g][..k].iter().map(|o| o.expect("filled")).collect();
                    sw.push(Tagged::new(median_of_five(&part), g as u32))?;
                    sigma_counts[g] += 1;
                }
            }
            drop(slots);
            drop(fill);
            let sigma = sw.finish()?;
            (sigma, sigma_counts)
        };
        let (sigma, sigma_counts) = sigma_counts;

        // Child targets: the median rank of each Σ_i.
        let mut tchild = ctx.try_tracked_words::<u64>(l, "child targets")?;
        for g in 0..l {
            let active_g = ts.as_slice()[g] > 0;
            if active_g && sigma_counts[g] == 0 {
                return Err(EmError::config(format!(
                    "group {g} has target {} but no records",
                    ts.as_slice()[g]
                )));
            }
            tchild.push(if active_g {
                (sigma_counts[g] as u64).div_ceil(2)
            } else {
                0
            });
        }
        drop(sigma_counts);
        let tchild = SpillVec::from_tracked(ctx, tchild, "child targets");

        // --- Round step 2: recurse on Σ for the medians-of-medians. ---
        // Spill this frame's O(L) state so the child frame has the memory.
        ts.spill()?;
        resolved.spill()?;
        let mu_file = solve(ctx, sigma, tchild)?;
        ts.unspill()?;
        resolved.unspill()?;

        let mut mu = ctx.try_tracked_buf::<Option<R>>(l, R::WORDS + 1, "round medians")?;
        for _ in 0..l {
            mu.push(None);
        }
        {
            let mut r = mu_file.reader()?;
            while let Some(p) = r.next()? {
                mu[p.group as usize] = Some(p.rec);
            }
        }
        drop(mu_file);

        // --- Round step 3: three-way rank counts against μ (one scan). ---
        let mut less = ctx.try_tracked_words::<u64>(l, "less counts")?;
        let mut equal = ctx.try_tracked_words::<u64>(l, "equal counts")?;
        for _ in 0..l {
            less.push(0);
            equal.push(0);
        }
        {
            let ts_s = ts.as_slice();
            let mut r = d.reader()?;
            while let Some(e) = r.next()? {
                let g = e.group as usize;
                if ts_s[g] == 0 {
                    continue;
                }
                let mk = mu[g].expect("active group has a median").key();
                match e.key().cmp(&mk) {
                    std::cmp::Ordering::Less => less[g] += 1,
                    std::cmp::Ordering::Equal => equal[g] += 1,
                    std::cmp::Ordering::Greater => {}
                }
            }
        }

        // --- Round step 4: resolve or narrow each group; build D'. ---
        // side: 0 = keep < μ, 1 = keep > μ, 2 = done/inactive.
        let mut side = ctx.try_tracked_words::<u8>(l, "sides")?;
        for _ in 0..l {
            side.push(2);
        }
        for g in 0..l {
            let t = ts.as_slice()[g];
            if t == 0 {
                continue;
            }
            if t <= less[g] {
                side[g] = 0;
            } else if t <= less[g] + equal[g] {
                resolved.push(Tagged::new(mu[g].expect("median"), g as u32));
                ts.as_mut_slice()[g] = 0;
            } else {
                side[g] = 1;
                ts.as_mut_slice()[g] = t - less[g] - equal[g];
            }
        }
        drop(less);
        drop(equal);

        let mut w = ctx.writer::<Tagged<R>>()?;
        {
            let mut r = d.reader()?;
            while let Some(e) = r.next()? {
                let g = e.group as usize;
                let keep = match side[g] {
                    0 => e.key() < mu[g].expect("median").key(),
                    1 => e.key() > mu[g].expect("median").key(),
                    _ => false,
                };
                if keep {
                    w.push(e)?;
                }
            }
        }
        drop(side);
        drop(mu);
        let new_d = w.finish()?;
        debug_assert!(new_d.len() < n, "intermixed round must shrink D");
        d = new_d;
    }

    // Emit the resolved pairs.
    let mut w = ctx.writer::<Tagged<R>>()?;
    w.push_all(resolved.as_slice())?;
    w.finish()
}

/// In-memory base case: load all of `d`, sort by (group, key), and read
/// off each active group's target rank.
fn base_case<R: Record>(
    ctx: &EmContext,
    d: &EmFile<Tagged<R>>,
    ts: &mut SpillVec<u64>,
    resolved: &mut SpillVec<Tagged<R>>,
) -> Result<()> {
    let mut buf = load_segs(ctx, std::slice::from_ref(d), "intermixed base case")?;
    buf.sort_unstable_by_key(|a| (a.group, a.key()));
    let ts_s = ts.as_mut_slice();
    let mut i = 0usize;
    while i < buf.len() {
        let g = buf[i].group;
        let mut j = i;
        while j < buf.len() && buf[j].group == g {
            j += 1;
        }
        let t = ts_s[g as usize];
        if t > 0 {
            if t as usize > j - i {
                return Err(EmError::config(format!(
                    "group {g}: target {t} exceeds group size {}",
                    j - i
                )));
            }
            resolved.push(buf[i + (t as usize) - 1]);
            ts_s[g as usize] = 0;
        }
        i = j;
    }
    if let Some(g) = ts_s.iter().position(|&t| t > 0) {
        return Err(EmError::config(format!(
            "group {g} has target {} but no records",
            ts_s[g]
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::EmConfig;

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny()) // M=256, B=16; max_groups(u64)=10
    }

    /// Build an intermixed file from per-group data, interleaved round-robin.
    fn build_d(ctx: &EmContext, groups: &[Vec<u64>]) -> EmFile<Tagged<u64>> {
        let mut w = ctx.writer::<Tagged<u64>>().unwrap();
        let maxlen = groups.iter().map(|g| g.len()).max().unwrap_or(0);
        for i in 0..maxlen {
            for (g, data) in groups.iter().enumerate() {
                if i < data.len() {
                    w.push(Tagged::new(data[i], g as u32)).unwrap();
                }
            }
        }
        w.finish().unwrap()
    }

    fn expected(groups: &[Vec<u64>], ts: &[u64]) -> Vec<u64> {
        groups
            .iter()
            .zip(ts)
            .map(|(g, &t)| {
                let mut s = g.clone();
                s.sort_unstable();
                s[(t - 1) as usize]
            })
            .collect()
    }

    #[test]
    fn single_group_is_rank_selection() {
        let c = ctx();
        let data: Vec<u64> = (0..500).rev().collect();
        let d = build_d(&c, std::slice::from_ref(&data));
        let got = intermixed_select(d, &[250]).unwrap();
        assert_eq!(got, vec![249]);
    }

    #[test]
    fn small_all_in_memory() {
        let c = ctx();
        let groups = vec![vec![3u64, 1, 2], vec![10, 30, 20], vec![7]];
        let ts = vec![2, 3, 1];
        let want = expected(&groups, &ts);
        let d = build_d(&c, &groups);
        assert_eq!(intermixed_select(d, &ts).unwrap(), want);
    }

    #[test]
    fn large_multi_round() {
        let c = ctx();
        // 4 groups × 600 records = 2400 > M; forces several rounds + recursion.
        let mut s = 11u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let groups: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..600).map(|_| next() % 100_000).collect())
            .collect();
        let ts = vec![1, 300, 599, 600];
        let want = expected(&groups, &ts);
        let d = build_d(&c, &groups);
        assert_eq!(intermixed_select(d, &ts).unwrap(), want);
    }

    #[test]
    fn duplicate_keys_exact() {
        let c = ctx();
        let groups = vec![vec![5u64; 700], (0..700u64).map(|i| i % 3).collect()];
        let ts = vec![350, 400];
        let want = expected(&groups, &ts);
        let d = build_d(&c, &groups);
        assert_eq!(intermixed_select(d, &ts).unwrap(), want);
    }

    #[test]
    fn uneven_group_sizes() {
        let c = ctx();
        let groups = vec![
            (0..997u64).rev().collect::<Vec<_>>(),
            vec![42u64],
            (0..313u64).map(|i| i * 7).collect(),
        ];
        let ts = vec![997, 1, 100];
        let want = expected(&groups, &ts);
        let d = build_d(&c, &groups);
        assert_eq!(intermixed_select(d, &ts).unwrap(), want);
    }

    #[test]
    fn linear_io_cost() {
        let c = EmContext::new_in_memory(EmConfig::medium()); // M=4096, B=64
        let mut s = 5u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let groups: Vec<Vec<u64>> = (0..8)
            .map(|_| (0..10_000).map(|_| next()).collect())
            .collect();
        let ts: Vec<u64> = (0..8).map(|g| 1000 * (g + 1)).collect();
        let d = c.stats().paused(|| build_d(&c, &groups));
        let n = d.len();
        let before = c.stats().snapshot();
        let _ = intermixed_select(d, &ts).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let scan = n.div_ceil(64);
        assert!(
            ios <= 25 * scan,
            "intermixed selection took {ios} I/Os = {:.1} scans; expected O(1) scans",
            ios as f64 / scan as f64
        );
    }

    #[test]
    fn too_many_groups_rejected() {
        let c = ctx();
        let cap = max_groups::<u64>(c.config());
        let groups: Vec<Vec<u64>> = (0..cap + 1).map(|g| vec![g as u64]).collect();
        let ts = vec![1u64; cap + 1];
        let d = build_d(&c, &groups);
        assert!(intermixed_select(d, &ts).is_err());
    }

    #[test]
    fn zero_target_rejected() {
        let c = ctx();
        let d = build_d(&c, &[vec![1u64]]);
        assert!(intermixed_select(d, &[0]).is_err());
    }

    #[test]
    fn target_exceeding_group_rejected() {
        let c = ctx();
        let d = build_d(&c, &[vec![1u64, 2]]);
        assert!(intermixed_select(d, &[3]).is_err());
    }

    #[test]
    fn target_exceeding_group_rejected_large() {
        let c = ctx();
        // big enough to take the external path
        let groups = vec![(0..1000u64).collect::<Vec<_>>(), vec![1u64, 2]];
        let d = build_d(&c, &groups);
        assert!(intermixed_select(d, &[500, 3]).is_err());
    }

    #[test]
    fn empty_targets_ok() {
        let c = ctx();
        let d = c.create_file::<Tagged<u64>>().unwrap();
        assert!(intermixed_select(d, &[]).unwrap().is_empty());
    }

    #[test]
    fn strict_memory_respected_at_max_groups() {
        let c = ctx();
        let cap = max_groups::<u64>(c.config());
        let mut s = 17u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let groups: Vec<Vec<u64>> = (0..cap)
            .map(|_| (0..300).map(|_| next() % 1000).collect())
            .collect();
        let ts: Vec<u64> = vec![150; cap];
        let want = expected(&groups, &ts);
        let d = c.stats().paused(|| build_d(&c, &groups));
        // strict context: any memory violation panics
        assert_eq!(intermixed_select(d, &ts).unwrap(), want);
    }
}
