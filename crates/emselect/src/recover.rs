//! Crash-recoverable multi-selection.
//!
//! [`crate::multi_select`] (paper Theorem 4) loses all work when a fatal
//! fault unwinds it mid-recursion. This module wraps the same algorithm in
//! a checkpointed [`MultiSelectManifest`] committed to a durable
//! [`emcore::Journal`], so a crash redoes at most one in-flight *work
//! unit* and every already-found splitter element survives.
//!
//! ## Work units
//!
//! The recursion of `multi_select_with` decomposes into:
//!
//! 1. **Partition prepass** (one unit; only when `K > m`): multi-partition
//!    the input at every `m`-th target rank into `g = ⌈K/m⌉` partitions.
//!    The partitions' segment files are journaled (and marked persistent)
//!    once the whole prepass is complete; a crash inside it redoes the
//!    prepass (its partial temporaries unwind).
//! 2. **Per-group base case** (one unit each): group `i` selects its ≤ `m`
//!    residual ranks inside partition `i`'s segments. The found elements
//!    are journaled — hex-encoded through their [`Record`] byte encoding —
//!    and the group's partition is released only *after* its answers are
//!    durable.
//!
//! Journal commits charge [`emcore::Counters::journal_writes`]; I/O spent
//! redoing an interrupted unit is additionally counted in
//! [`emcore::Counters::redone_ios`].
//!
//! ## Example: crash and resume
//!
//! ```
//! use emcore::{EmConfig, EmContext, EmError, EmFile, FaultPlan};
//! use emselect::{MsOptions, MultiSelectManifest};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::tiny());
//! let data: Vec<u64> = (0..4000).rev().collect();
//! let input = EmFile::from_slice(&ctx, &data).unwrap();
//! let ranks: Vec<u64> = (1..=10).map(|i| i * 400).collect();
//!
//! let plan = FaultPlan::new(0).fatal_at(300);
//! ctx.install_fault_plan(plan.clone());
//! let mut opts = MsOptions::default();
//! opts.base_capacity_override = Some(3); // force several groups
//! let mut m = MultiSelectManifest::new(&input, &ranks, opts).unwrap();
//! assert!(matches!(m.run(&input), Err(EmError::Crashed)));
//! plan.clear_crash();
//! let got = m.run(&input).unwrap();
//! let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
//! assert_eq!(got, want);
//! ```

#[cfg(test)]
use emcore::from_hex;
use emcore::{to_hex, Checkpoint, EmContext, EmError, EmFile, JournalState, Record, Result};

use crate::multi_partition::multi_partition_at_ranks;
use crate::multi_select::{base_case_capacity_n, multi_select_segs, MsOptions};
use crate::partition_out::{segs_len, Partition};

/// Name of the multi-selection checkpoint journal within its backing store.
pub const MULTI_SELECT_JOURNAL: &str = "multi-select-manifest";

fn rec_to_hex<T: Record>(r: &T) -> String {
    let mut buf = vec![0u8; T::BYTES];
    r.write_bytes(&mut buf);
    to_hex(&buf)
}

#[cfg(test)]
fn rec_from_hex<T: Record>(s: &str) -> Result<T> {
    let buf = from_hex(s)?;
    if buf.len() != T::BYTES {
        return Err(EmError::config(format!(
            "journaled record holds {} bytes, {} expected",
            buf.len(),
            T::BYTES
        )));
    }
    Ok(T::read_bytes(&buf))
}

/// Serialised image of a [`MultiSelectManifest`] — what the journal stores.
/// Partition segments appear as `(id, len)` pairs, answers as hex-encoded
/// record payloads.
#[derive(Debug, PartialEq, Eq)]
struct MsImage {
    input: (u64, u64),
    m: usize,
    partitioned: bool,
    next_group: usize,
    checkpoints: u64,
    ranks: Vec<u64>,
    offsets: Vec<u64>,
    /// Per-group segment lists; groups not yet built (or already released)
    /// are empty.
    parts: Vec<Vec<(u64, u64)>>,
    answers: Vec<String>,
}

impl JournalState for MsImage {
    const KIND: &'static str = "multi-select-manifest";
    const VERSION: u32 = 1;

    fn encode(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "input {} {}", self.input.0, self.input.1);
        let _ = writeln!(out, "m {}", self.m);
        let _ = writeln!(out, "partitioned {}", self.partitioned);
        let _ = writeln!(out, "next-group {}", self.next_group);
        let _ = writeln!(out, "checkpoints {}", self.checkpoints);
        for &r in &self.ranks {
            let _ = writeln!(out, "rank {r}");
        }
        for &o in &self.offsets {
            let _ = writeln!(out, "offset {o}");
        }
        for (i, segs) in self.parts.iter().enumerate() {
            let _ = write!(out, "part {i}");
            for (id, len) in segs {
                let _ = write!(out, " {id} {len}");
            }
            let _ = writeln!(out);
        }
        for a in &self.answers {
            let _ = writeln!(out, "answer {a}");
        }
    }

    fn decode(body: &str) -> Result<Self> {
        fn bad(line: &str) -> EmError {
            EmError::config(format!("multi-select journal: bad line {line:?}"))
        }
        let mut img = MsImage {
            input: (0, 0),
            m: 1,
            partitioned: false,
            next_group: 0,
            checkpoints: 0,
            ranks: Vec::new(),
            offsets: Vec::new(),
            parts: Vec::new(),
            answers: Vec::new(),
        };
        for line in body.lines() {
            let (key, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
            match key {
                "input" => {
                    let (a, b) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                    img.input = (
                        a.parse().map_err(|_| bad(line))?,
                        b.parse().map_err(|_| bad(line))?,
                    );
                }
                "m" => img.m = rest.parse().map_err(|_| bad(line))?,
                "partitioned" => img.partitioned = rest.parse().map_err(|_| bad(line))?,
                "next-group" => img.next_group = rest.parse().map_err(|_| bad(line))?,
                "checkpoints" => img.checkpoints = rest.parse().map_err(|_| bad(line))?,
                "rank" => img.ranks.push(rest.parse().map_err(|_| bad(line))?),
                "offset" => img.offsets.push(rest.parse().map_err(|_| bad(line))?),
                "part" => {
                    let mut it = rest.split(' ');
                    let idx: usize = it
                        .next()
                        .ok_or_else(|| bad(line))?
                        .parse()
                        .map_err(|_| bad(line))?;
                    if idx != img.parts.len() {
                        return Err(bad(line));
                    }
                    let rest: Vec<&str> = it.collect();
                    if !rest.len().is_multiple_of(2) {
                        return Err(bad(line));
                    }
                    let mut segs = Vec::with_capacity(rest.len() / 2);
                    for pair in rest.chunks(2) {
                        segs.push((
                            pair[0].parse().map_err(|_| bad(line))?,
                            pair[1].parse().map_err(|_| bad(line))?,
                        ));
                    }
                    img.parts.push(segs);
                }
                "answer" => img.answers.push(rest.to_string()),
                _ => return Err(bad(line)),
            }
        }
        Ok(img)
    }
}

/// Checkpointed state of a recoverable multi-selection. Owns the prepass
/// partitions of groups not yet selected; survives any number of failed
/// resume attempts.
#[derive(Debug)]
pub struct MultiSelectManifest<T: Record> {
    opts: MsOptions,
    /// Caller's rank list, in caller order (the output order).
    ranks: Vec<u64>,
    /// Sorted, deduplicated working ranks.
    sorted: Vec<u64>,
    /// Base-case group capacity at construction.
    m: usize,
    /// Number of rank groups `g = ⌈K/m⌉`.
    groups: usize,
    /// The partition prepass (unit 0) has completed (vacuously true when
    /// `g ≤ 1`).
    partitioned: bool,
    /// Per-group partitions (empty before the prepass and after release).
    parts: Vec<Partition<T>>,
    /// Global-rank offset of each group's partition.
    offsets: Vec<u64>,
    /// Found elements for groups `0..next_group`, in sorted-rank order.
    answers: Vec<T>,
    next_group: usize,
    /// Journal, input binding (fixed at construction) and unit
    /// accounting.
    cp: Checkpoint,
}

impl<T: Record> MultiSelectManifest<T> {
    /// A fresh manifest for selecting `ranks` (1-based, any order,
    /// duplicates allowed) from `input`. Validates ranks against the input
    /// length and charges the synthetic read of the caller's rank list,
    /// mirroring [`crate::multi_select_with`].
    pub fn new(input: &EmFile<T>, ranks: &[u64], opts: MsOptions) -> Result<Self> {
        let ctx = input.ctx().clone();
        let n = input.len();
        for &r in ranks {
            if r == 0 || r > n {
                return Err(EmError::config(format!("rank {r} out of range [1, {n}]")));
            }
        }
        ctx.stats()
            .charge_reads((ranks.len() as u64).div_ceil(ctx.config().block_size() as u64));
        let mut sorted: Vec<u64> = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let m = base_case_capacity_n::<T>(&ctx, n, &opts);
        let groups = sorted.len().div_ceil(m.max(1));
        Ok(Self {
            opts,
            ranks: ranks.to_vec(),
            sorted,
            m,
            groups,
            // A single group (or no ranks) needs no prepass.
            partitioned: groups <= 1,
            parts: Vec::new(),
            offsets: vec![0],
            answers: Vec::new(),
            next_group: 0,
            cp: Checkpoint::new(&ctx, MULTI_SELECT_JOURNAL, Some((input.id(), n))),
        })
    }

    /// Whether selection has completed and yielded its output.
    pub fn is_done(&self) -> bool {
        self.cp.is_done()
    }

    /// Completed work units so far (each one a checkpoint).
    pub fn checkpoints(&self) -> u64 {
        self.cp.checkpoints()
    }

    /// Number of rank groups (`⌈K/m⌉`; each is one work unit, plus one
    /// prepass unit when there is more than one group).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Largest I/O cost of any single completed work unit — the empirical
    /// bound on crash rework.
    pub fn max_unit_ios(&self) -> u64 {
        self.cp.max_unit_ios()
    }

    /// A human-readable snapshot of the manifest.
    pub fn describe(&self) -> String {
        let mut s = String::from("em-multi-select-manifest v1\n");
        self.image(self.cp.checkpoints()).encode(&mut s);
        s
    }

    fn image(&self, checkpoints: u64) -> MsImage {
        MsImage {
            input: self.input(),
            m: self.m,
            partitioned: self.partitioned,
            next_group: self.next_group,
            checkpoints,
            ranks: self.ranks.clone(),
            offsets: self.offsets.clone(),
            parts: self
                .parts
                .iter()
                .map(|p| p.segments().iter().map(|s| (s.id(), s.len())).collect())
                .collect(),
            answers: self.answers.iter().map(rec_to_hex).collect(),
        }
    }

    /// The input identity `(id, len)`, bound at construction.
    fn input(&self) -> (u64, u64) {
        self.cp.input().unwrap_or_default()
    }

    /// Record a completed work unit: durably commit the manifest image.
    fn commit(&mut self) -> Result<()> {
        self.cp.commit(&self.image(self.cp.checkpoints() + 1))
    }

    /// Drive the multi-selection of `input` forward from wherever this
    /// manifest left off, until completion or the next terminal error.
    /// Idempotent over failures: only the interrupted work unit is redone
    /// on the next call. Returns the selected elements in the caller's
    /// original rank order.
    pub fn run(&mut self, input: &EmFile<T>) -> Result<Vec<T>> {
        self.cp.start(input.id(), input.len())?;
        let ctx = self.cp.ctx().clone();
        let _phase = ctx.stats().phase_guard("multi-select/recoverable");
        resume_inner(input, self, &ctx)
    }
}

/// One-shot recoverable multi-selection with default options — semantically
/// identical to [`crate::multi_select`], with checkpointing overhead. Use
/// [`MultiSelectManifest::new`] + [`MultiSelectManifest::run`] directly to
/// keep the manifest across failures.
pub fn multi_select_recoverable<T: Record>(input: &EmFile<T>, ranks: &[u64]) -> Result<Vec<T>> {
    MultiSelectManifest::new(input, ranks, MsOptions::default())?.run(input)
}

fn resume_inner<T: Record>(
    input: &EmFile<T>,
    manifest: &mut MultiSelectManifest<T>,
    ctx: &EmContext,
) -> Result<Vec<T>> {
    let k = manifest.sorted.len();
    let m = manifest.m;
    let g = manifest.groups;

    // Unit 0: partition prepass at every m-th target rank (only when the
    // rank set spans several groups).
    if !manifest.partitioned {
        let unit = manifest.cp.begin_unit();
        let boundaries: Vec<u64> = (1..g).map(|i| manifest.sorted[i * m - 1]).collect();
        let parts = multi_partition_at_ranks(input, &boundaries)?;
        debug_assert_eq!(parts.len(), g);
        // ---- checkpoint: all partitions durable, referenced by the journal ----
        for p in &parts {
            for s in p.segments() {
                s.set_persistent(true);
            }
        }
        let mut offsets = Vec::with_capacity(g);
        offsets.push(0);
        offsets.extend(boundaries);
        manifest.parts = parts;
        manifest.offsets = offsets;
        manifest.partitioned = true;
        manifest.commit()?;
        manifest.cp.end_unit(unit);
    }

    // Units 1..=g: per-group base-case selection.
    while manifest.next_group < g {
        let i = manifest.next_group;
        let unit = manifest.cp.begin_unit();
        let lo = i * m;
        let hi = ((i + 1) * m).min(k);
        let offset = manifest.offsets[i];
        let local: Vec<u64> = manifest.sorted[lo..hi]
            .iter()
            .map(|&r| r - offset)
            .collect();
        let found = if g == 1 {
            multi_select_segs(ctx, std::slice::from_ref(input), &local, manifest.opts)?
        } else {
            debug_assert_eq!(segs_len(manifest.parts[i].segments()), {
                let end = manifest
                    .offsets
                    .get(i + 1)
                    .copied()
                    .unwrap_or(manifest.input().1);
                end - offset
            });
            multi_select_segs(ctx, manifest.parts[i].segments(), &local, manifest.opts)?
        };
        manifest.answers.extend(found);
        manifest.next_group += 1;
        // ---- checkpoint: the group's splitter elements are durable ----
        manifest.commit()?;
        // Only now is the group's partition releasable.
        if g > 1 {
            let part = std::mem::replace(&mut manifest.parts[i], Partition::empty());
            for s in part.segments() {
                s.set_persistent(false);
            }
        }
        manifest.cp.end_unit(unit);
    }

    // Map answers (sorted-rank order) back to the caller's order.
    debug_assert_eq!(manifest.answers.len(), k);
    let out = manifest
        .ranks
        .iter()
        .map(|r| {
            let i = manifest.sorted.binary_search(r).expect("rank present");
            manifest.answers[i]
        })
        .collect();
    manifest.cp.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, FaultPlan};

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        emcore::SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    fn many_group_opts() -> MsOptions {
        MsOptions {
            base_capacity_override: Some(3),
            ..MsOptions::default()
        }
    }

    #[test]
    fn fault_free_matches_plain_multi_select() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let n = 6000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 11)))
            .unwrap();
        let ranks: Vec<u64> = vec![4000, 7, 7, 1500, 3000, 5999, 420, 2222, 808, 1, 6000];
        let want = crate::multi_select(&f, &ranks).unwrap();
        let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
        let got = m.run(&f).unwrap();
        assert_eq!(got, want);
        assert!(m.is_done());
        assert!(m.groups() > 1, "override must force several groups");
        let stats = c.stats().snapshot();
        assert_eq!(stats.redone_ios, 0);
        assert!(stats.journal_writes as usize >= m.groups());
    }

    #[test]
    fn single_group_path() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(3000, 12)))
            .unwrap();
        let got = multi_select_recoverable(&f, &[1, 1500, 3000]).unwrap();
        assert_eq!(got, vec![0, 1499, 2999]);
    }

    #[test]
    fn empty_ranks_complete_immediately() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &[5u64, 1]).unwrap();
        assert!(multi_select_recoverable(&f, &[]).unwrap().is_empty());
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &[1u64, 2, 3]).unwrap();
        assert!(MultiSelectManifest::new(&f, &[0], MsOptions::default()).is_err());
        assert!(MultiSelectManifest::new(&f, &[4], MsOptions::default()).is_err());
    }

    #[test]
    fn crash_and_resume_preserves_output_and_bounds_rework() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let n = 5000u64;
        let data = shuffled(n, 13);
        let ranks: Vec<u64> = (1..=12).map(|i| i * 400).collect();
        // Fault-free reference.
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();

        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(250);
        c.install_fault_plan(plan.clone());
        let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
        let mut crashes = 0;
        let got = loop {
            match m.run(&f) {
                Ok(out) => break out,
                Err(EmError::Crashed) => {
                    crashes += 1;
                    assert!(crashes < 100);
                    plan.clear_crash();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(got, want);
        assert_eq!(crashes, 1);
        let stats = c.stats().snapshot();
        assert!(stats.redone_ios > 0);
        assert!(
            stats.redone_ios <= m.max_unit_ios(),
            "rework {} vs unit bound {}",
            stats.redone_ios,
            m.max_unit_ios()
        );
    }

    #[test]
    fn completed_manifest_rejects_reuse_and_wrong_input() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &shuffled(100, 14)).unwrap();
        let mut m = MultiSelectManifest::new(&f, &[50], MsOptions::default()).unwrap();
        let _ = m.run(&f).unwrap();
        assert!(matches!(m.run(&f), Err(EmError::Config(_))));
        let g = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let mut m2 = MultiSelectManifest::new(&f, &[50], MsOptions::default()).unwrap();
        assert!(matches!(m2.run(&g), Err(EmError::Config(_))));
    }

    #[test]
    fn journal_cleaned_up_on_completion_disk() {
        let ranks: Vec<u64> = (1..=9).map(|i| i * 400).collect();
        // Measure a fault-free run's device-attempt count so the crash can
        // be planted near the end, i.e. after several checkpoints.
        let attempts = {
            let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
            let f = c
                .stats()
                .paused(|| EmFile::from_slice(&c, &shuffled(4000, 15)))
                .unwrap();
            let p = FaultPlan::new(0);
            c.install_fault_plan(p.clone());
            let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
            m.run(&f).unwrap();
            p.attempts()
        };

        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(4000, 15)))
            .unwrap();
        let meta = c
            .backing_dir()
            .unwrap()
            .join("multi-select-manifest.journal");
        let plan = FaultPlan::new(0).fatal_at(attempts - 5);
        c.install_fault_plan(plan.clone());
        let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
        assert!(m.run(&f).is_err());
        assert!(m.checkpoints() > 0, "crash planted after first checkpoint");
        assert!(meta.exists(), "journal persisted after crash");
        plan.clear_crash();
        let got = m.run(&f).unwrap();
        assert_eq!(got.len(), ranks.len());
        assert!(!meta.exists(), "journal removed after completion");
    }

    /// A fixed image: three groups, the first already selected and
    /// released, two answers found.
    fn golden_image() -> MsImage {
        MsImage {
            input: (3, 9000),
            m: 4,
            partitioned: true,
            next_group: 2,
            checkpoints: 3,
            ranks: vec![100, 50, 100],
            offsets: vec![0, 60, 120],
            parts: vec![vec![], vec![(7, 60), (8, 60)], vec![(9, 8880)]],
            answers: vec![rec_to_hex(&42u64), rec_to_hex(&u64::MAX)],
        }
    }

    #[test]
    fn image_roundtrips_through_journal_encoding() {
        let img = golden_image();
        let mut body = String::new();
        img.encode(&mut body);
        assert_eq!(MsImage::decode(&body).unwrap(), img);
        assert_eq!(rec_from_hex::<u64>(&img.answers[1]).unwrap(), u64::MAX);
    }

    /// The encoded body of [`golden_image`] is pinned: a change here
    /// breaks every journal already on disk.
    #[test]
    fn journal_encoding_is_pinned() {
        let mut body = String::new();
        golden_image().encode(&mut body);
        assert_eq!(
            body,
            "input 3 9000\nm 4\npartitioned true\nnext-group 2\ncheckpoints 3\n\
             rank 100\nrank 50\nrank 100\noffset 0\noffset 60\noffset 120\n\
             part 0\npart 1 7 60 8 60\npart 2 9 8880\n\
             answer 2a00000000000000\nanswer ffffffffffffffff\n"
        );
        assert_eq!(
            (MsImage::KIND, MsImage::VERSION),
            ("multi-select-manifest", 1)
        );
    }
}
