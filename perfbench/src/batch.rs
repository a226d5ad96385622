//! The batch family: `external_sort`, near-even K=64
//! `approx_partitioning`, 63-rank `multi_select` and two-sided
//! `approx_splitters` over one `N`-record input, each checked against an
//! in-RAM oracle or the `apsplit` verifiers, plus (traced runs only) the
//! per-layer calls into emcore, emsort and emselect.
//!
//! Splitters are sought over the input with ties broken by position
//! (`emcore::Indexed`): a key repeated more than `b` times admits no
//! valid splitters, and the tie workload repeats its top key far more
//! often than that. Sort, partitioning and selection take the keys as
//! they are.

use std::hint::black_box;
use std::sync::Arc;

use apsplit::ProblemSpec;
use apsplit::{approx_partitioning, approx_splitters, verify_partitioning, verify_splitters};
use emcore::{block_checksum, EmContext, EmFile, Indexed, Result};
use emselect::SplitterStrategy;

use crate::ledger::Iter;
use crate::shape::{Shape, K_PART, K_SPLIT, RG_A, SELECT_RANKS};
use crate::stats;

/// One set-up of the batch family.
pub struct Batch {
    pub ctx: EmContext,
    pub input: EmFile<u64>,
    /// The input with ties broken by position, for the splitters calls.
    indexed: EmFile<Indexed<u64>>,
    /// The input in generation order (what the Writer probe writes).
    keys: Vec<u64>,
    /// The input sorted in RAM: the sort and select oracle.
    sorted: Arc<Vec<u64>>,
}

impl Batch {
    /// Write `keys` to a fresh file on `ctx`; `sorted` is their oracle.
    pub fn setup(ctx: EmContext, keys: Vec<u64>, sorted: Arc<Vec<u64>>) -> Result<Self> {
        let input = EmFile::from_slice(&ctx, &keys)?;
        let mut w = ctx.writer::<Indexed<u64>>()?;
        for (i, &k) in keys.iter().enumerate() {
            w.push(Indexed::new(k, i as u64))?;
        }
        let indexed = w.finish()?;
        Ok(Batch {
            ctx,
            input,
            indexed,
            keys,
            sorted,
        })
    }

    fn n(&self) -> u64 {
        self.input.len()
    }

    /// The four user-facing operations, each timed, I/O-counted and
    /// checked; plus the right-grounded splitters call whose I/O count the
    /// traced run reports.
    pub fn run_ops(&self, it: &mut Iter<'_>) {
        let n = self.n();
        let ctx = &self.ctx;
        let out = it.op(ctx, "sort", "emsort.external_sort", || {
            emsort::external_sort(&self.input)
        });
        if let Some(out) = out {
            it.check("sort", || {
                ctx.oracle(|| out.to_vec()).is_ok_and(|v| v == *self.sorted)
            });
        }

        let spec = ProblemSpec::near_even(n, K_PART).expect("near-even spec is feasible");
        let parts = it.op(ctx, "partition", "apsplit.approx_partitioning", || {
            approx_partitioning(&self.input, &spec)
        });
        if let Some(parts) = parts {
            it.check("partition", || {
                verify_partitioning(&parts, &spec).is_ok_and(|r| r.ok)
            });
        }

        let ranks = select_ranks(n);
        let answers = it.op(ctx, "select", "emselect.multi_select", || {
            emselect::multi_select(&self.input, &ranks)
        });
        if let Some(answers) = answers {
            it.check("select", || {
                ranks
                    .iter()
                    .map(|&r| self.sorted[r as usize - 1])
                    .eq(answers)
            });
        }

        let spec = splitters_spec(n);
        let sp = it.op(ctx, "splitters", "apsplit.approx_splitters", || {
            approx_splitters(&self.indexed, &spec)
        });
        if let Some(sp) = sp {
            it.check("splitters", || {
                verify_splitters(&self.indexed, &sp, &spec).is_ok_and(|r| r.ok)
            });
        }

        let spec = ProblemSpec::new(n, K_SPLIT, RG_A, n).expect("right-grounded spec is feasible");
        let sp = it.op(ctx, "splitters_rg", "apsplit.approx_splitters", || {
            approx_splitters(&self.indexed, &spec)
        });
        if let Some(sp) = sp {
            it.check("splitters_rg", || {
                verify_splitters(&self.indexed, &sp, &spec).is_ok_and(|r| r.ok)
            });
        }
    }

    /// The traced run's single-layer calls on the same input.
    pub fn run_layers(&self, it: &mut Iter<'_>) {
        let n = self.n();
        let ctx = &self.ctx;
        let count = it.layer(ctx, "emcore.scan_s", "emcore.reader_scan", || {
            let mut r = self.input.reader()?;
            let (mut count, mut acc) = (0u64, 0u64);
            while let Some(x) = r.next()? {
                count += 1;
                acc ^= x;
            }
            black_box(acc);
            Ok(count)
        });
        it.check("emcore.scan", || count == Some(n));

        let file = it.layer(ctx, "emcore.write_s", "emcore.writer_push_all", || {
            let mut w = ctx.writer::<u64>()?;
            w.push_all(&self.keys)?;
            w.finish()
        });
        it.check("emcore.write", || file.is_some_and(|f| f.len() == n));

        // The bytes a block of the input holds, hashed block by block.
        let bytes: Vec<u8> = self.keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        let block_bytes = ctx.config().block_size() * 8;
        let sum = it.layer(ctx, "emcore.checksum_s", "emcore.block_checksum", || {
            Ok(bytes
                .chunks(block_bytes)
                .fold(0u64, |acc, b| acc ^ block_checksum(black_box(b))))
        });
        it.check("emcore.checksum", || sum.is_some());

        let runs = it.layer(
            ctx,
            "emsort.form_runs_s",
            "emsort.form_runs_load_sort",
            || emsort::form_runs_load_sort(&self.input),
        );
        if let Some(runs) = runs {
            let merged = it.layer(ctx, "emsort.merge_s", "emsort.merge_runs", || {
                emsort::merge_runs(ctx, runs)
            });
            it.check("emsort.merge", || {
                merged.is_some_and(|m| ctx.oracle(|| m.to_vec()).is_ok_and(|v| v == *self.sorted))
            });
        }

        let fanout = emselect::max_distribution_fanout::<u64>(ctx.config());
        let spl = it.layer(
            ctx,
            "emselect.sample_splitters_s",
            "emselect.sample_splitters",
            || emselect::sample_splitters(&self.input, fanout, SplitterStrategy::default()),
        );
        let Some(spl) = spl else { return };
        let counts = it.layer(
            ctx,
            "emselect.count_buckets_s",
            "emselect.count_buckets",
            || emselect::count_buckets(&self.input, &spl),
        );
        let want = oracle_bucket_counts(&self.sorted, &spl);
        it.check("emselect.count_buckets", || counts.as_ref() == Some(&want));
        let buckets = it.layer(ctx, "emselect.distribute_s", "emselect.distribute", || {
            emselect::distribute(&self.input, &spl)
        });
        let lens = buckets.map(|b| b.iter().map(EmFile::len).collect::<Vec<_>>());
        it.check("emselect.distribute", || lens == Some(want));

        let pivot = self.sorted[self.sorted.len() / 2];
        let split = it.layer(
            ctx,
            "emselect.three_way_split_s",
            "emselect.three_way_split",
            || emselect::three_way_split(&self.input, pivot),
        );
        let lo = self.sorted.partition_point(|&x| x < pivot) as u64;
        let hi = self.sorted.partition_point(|&x| x <= pivot) as u64;
        it.check("emselect.three_way_split", || {
            split.is_some_and(|(l, e, g)| (l.len(), e.len(), g.len()) == (lo, hi - lo, n - hi))
        });

        let sizes: Vec<u64> = near_even_sizes(n, K_PART);
        let parts = it.layer(
            ctx,
            "emselect.multi_partition_s",
            "emselect.multi_partition",
            || emselect::multi_partition(&self.input, &sizes),
        );
        it.check("emselect.multi_partition", || {
            parts.is_some_and(|p| p.iter().map(|p| p.len()).eq(sizes.iter().copied()))
        });
    }
}

/// The `SELECT_RANKS` evenly spaced ranks `⌊i·N/(k+1)⌋`.
pub fn select_ranks(n: u64) -> Vec<u64> {
    (1..=SELECT_RANKS)
        .map(|i| i * n / (SELECT_RANKS + 1))
        .collect()
}

/// Two-sided K=1024 splitters with `a = N/2048`, `b = N/512`.
pub fn splitters_spec(n: u64) -> ProblemSpec {
    ProblemSpec::new(n, K_SPLIT, n / 2048, n / 512).expect("two-sided spec is feasible")
}

fn near_even_sizes(n: u64, k: u64) -> Vec<u64> {
    (0..k).map(|i| (i + 1) * n / k - i * n / k).collect()
}

/// Bucket sizes `(s_{j-1}, s_j]` of the sorted oracle under `splitters`.
fn oracle_bucket_counts(sorted: &[u64], splitters: &[u64]) -> Vec<u64> {
    let mut prev = 0usize;
    let mut out: Vec<u64> = splitters
        .iter()
        .map(|&s| {
            let end = sorted.partition_point(|&x| x <= s);
            let c = (end - prev) as u64;
            prev = end;
            c
        })
        .collect();
    out.push((sorted.len() - prev) as u64);
    out
}

/// The traced run's I/O ratios against the `apsplit::bounds` formulas.
/// The splitters bound is taken in `Indexed<u64>` records, which are
/// twice as wide as the keys.
pub fn io_ratios(
    shape: &Shape,
    partition_ios: u64,
    splitters_ios: u64,
    select_ios: u64,
) -> [f64; 3] {
    let (cfg, n) = (shape.batch_config(), shape.n);
    let wide = Shape::config_for_width(0, <Indexed<u64> as emcore::Record>::WORDS);
    let near = ProblemSpec::near_even(n, K_PART).expect("near-even spec is feasible");
    let sp = splitters_spec(n);
    [
        stats::partition_io_ratio(cfg, partition_ios, n, K_PART, near.a, near.b),
        stats::splitters_io_ratio(wide, splitters_ios, n, K_SPLIT, sp.a, sp.b),
        stats::select_io_ratio(cfg, select_ios, n, SELECT_RANKS),
    ]
}
