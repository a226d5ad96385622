//! Crash-recoverable approximate K-partitioning.
//!
//! [`crate::approx_partitioning`] (paper §5.2, Theorem 6) builds its whole
//! output inside one recursion; a fatal fault unwinds everything. This
//! module realises the *same partition sizes* — the contract captured by
//! `partitioning::target_sizes` — through a binary split tree whose every
//! step is checkpointed to a durable [`emcore::Journal`] in a
//! [`PartitionManifest`], so a crash redoes at most one in-flight split.
//!
//! ## Work units
//!
//! Let `cum` be the cumulative target sizes. The root work node covers
//! partitions `0..K`; each unit splits a node's segment list at the
//! cumulative boundary nearest its middle partition (one
//! [`emselect::split_at_rank_segs`] call, `O(len/B)` expected I/Os), making
//! the tree `O(lg K)` levels of `O(N/B)` total work each. A node's input
//! segments are released only **after** both children's segment lists are
//! durable in the journal; a completed partition's segments stay persistent
//! until the whole partitioning finishes. Zero-size partitions (left-
//! grounded padding, `a = 0` fronts) are materialised as empty without
//! I/O.
//!
//! Journal commits charge [`emcore::Counters::journal_writes`]; redone work
//! after a crash is additionally counted in
//! [`emcore::Counters::redone_ios`].
//!
//! ## Example: crash and resume
//!
//! ```
//! use apsplit::{PartitionManifest, ProblemSpec};
//! use emcore::{EmConfig, EmContext, EmError, EmFile, FaultPlan};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::tiny());
//! let data: Vec<u64> = (0..4000).rev().collect();
//! let input = EmFile::from_slice(&ctx, &data).unwrap();
//! let spec = ProblemSpec::new(4000, 8, 450, 600).unwrap();
//!
//! let plan = FaultPlan::new(0).fatal_at(400);
//! ctx.install_fault_plan(plan.clone());
//! let mut m = PartitionManifest::new(&input, &spec).unwrap();
//! assert!(matches!(m.run(&input), Err(EmError::Crashed)));
//! plan.clear_crash();
//! let parts = m.run(&input).unwrap();
//! assert_eq!(parts.len(), 8);
//! assert_eq!(parts.iter().map(|p| p.len()).sum::<u64>(), 4000);
//! ```

use emcore::{Checkpoint, EmContext, EmError, EmFile, JournalState, Record, Result};
use emselect::{split_at_rank_segs, Partition};

use crate::partitioning::{target_sizes, PartitionOptions, Partitioning};
use crate::spec::ProblemSpec;
use crate::splitters::check_input;

/// Name of the partitioning checkpoint journal within its backing store.
pub const PARTITION_JOURNAL: &str = "partition-manifest";

/// A pending node of the binary split tree: the records destined for
/// partitions `lo..=hi` (inclusive), physically held by `segs` — `None`
/// means the (borrowed, never released) root input.
#[derive(Debug)]
struct Node<T: Record> {
    lo: usize,
    hi: usize,
    segs: Option<Vec<EmFile<T>>>,
}

/// Segment lists as journaled: `(file id, record count)` pairs; `None`
/// marks the root (input-borrowing) node.
type SegIds = Option<Vec<(u64, u64)>>;

/// Serialised image of a [`PartitionManifest`] — what the journal stores.
#[derive(Debug, PartialEq, Eq)]
struct PartImage {
    input: (u64, u64),
    spec: (u64, u64, u64, u64),
    checkpoints: u64,
    /// Completed partitions: `(slot index, segment (id, len) pairs)`.
    slots: Vec<(usize, Vec<(u64, u64)>)>,
    /// Pending split-tree nodes, stack bottom first.
    nodes: Vec<(usize, usize, SegIds)>,
}

impl JournalState for PartImage {
    const KIND: &'static str = "partition-manifest";
    const VERSION: u32 = 1;

    fn encode(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "input {} {}", self.input.0, self.input.1);
        let (n, k, a, b) = self.spec;
        let _ = writeln!(out, "spec {n} {k} {a} {b}");
        let _ = writeln!(out, "checkpoints {}", self.checkpoints);
        for (i, segs) in &self.slots {
            let _ = write!(out, "slot {i}");
            for (id, len) in segs {
                let _ = write!(out, " {id} {len}");
            }
            let _ = writeln!(out);
        }
        for (lo, hi, segs) in &self.nodes {
            let _ = write!(out, "node {lo} {hi}");
            match segs {
                None => {
                    let _ = write!(out, " root");
                }
                Some(segs) => {
                    for (id, len) in segs {
                        let _ = write!(out, " {id} {len}");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }

    fn decode(body: &str) -> Result<Self> {
        fn bad(line: &str) -> EmError {
            EmError::config(format!("partition journal: bad line {line:?}"))
        }
        fn pairs(toks: &[&str], line: &str) -> Result<Vec<(u64, u64)>> {
            if !toks.len().is_multiple_of(2) {
                return Err(bad(line));
            }
            let mut out = Vec::with_capacity(toks.len() / 2);
            for pair in toks.chunks(2) {
                out.push((
                    pair[0].parse().map_err(|_| bad(line))?,
                    pair[1].parse().map_err(|_| bad(line))?,
                ));
            }
            Ok(out)
        }
        let mut img = PartImage {
            input: (0, 0),
            spec: (0, 0, 0, 0),
            checkpoints: 0,
            slots: Vec::new(),
            nodes: Vec::new(),
        };
        for line in body.lines() {
            let (key, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
            let toks: Vec<&str> = rest.split(' ').collect();
            match key {
                "input" => {
                    if toks.len() != 2 {
                        return Err(bad(line));
                    }
                    img.input = (
                        toks[0].parse().map_err(|_| bad(line))?,
                        toks[1].parse().map_err(|_| bad(line))?,
                    );
                }
                "spec" => {
                    if toks.len() != 4 {
                        return Err(bad(line));
                    }
                    img.spec = (
                        toks[0].parse().map_err(|_| bad(line))?,
                        toks[1].parse().map_err(|_| bad(line))?,
                        toks[2].parse().map_err(|_| bad(line))?,
                        toks[3].parse().map_err(|_| bad(line))?,
                    );
                }
                "checkpoints" => img.checkpoints = rest.parse().map_err(|_| bad(line))?,
                "slot" => {
                    let idx: usize = toks[0].parse().map_err(|_| bad(line))?;
                    img.slots.push((idx, pairs(&toks[1..], line)?));
                }
                "node" => {
                    if toks.len() < 2 {
                        return Err(bad(line));
                    }
                    let lo: usize = toks[0].parse().map_err(|_| bad(line))?;
                    let hi: usize = toks[1].parse().map_err(|_| bad(line))?;
                    let segs = if toks.get(2) == Some(&"root") {
                        None
                    } else {
                        Some(pairs(&toks[2..], line)?)
                    };
                    img.nodes.push((lo, hi, segs));
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(img)
    }
}

/// Checkpointed state of a recoverable approximate partitioning. Owns the
/// completed partitions and the pending split-tree nodes; survives any
/// number of failed [`PartitionManifest::run`] attempts.
#[derive(Debug)]
pub struct PartitionManifest<T: Record> {
    spec: ProblemSpec,
    opts: PartitionOptions,
    /// Cumulative target partition sizes (`cum[i]` = records in
    /// partitions `0..=i`).
    cum: Vec<u64>,
    /// Completed partitions by index.
    slots: Vec<Option<Partition<T>>>,
    /// Pending nodes, processed LIFO (leftmost-deepest first).
    work: Vec<Node<T>>,
    /// Journal, input binding (fixed at construction) and unit
    /// accounting.
    cp: Checkpoint,
}

impl<T: Record> PartitionManifest<T> {
    /// A fresh manifest for partitioning `input` under `spec` with default
    /// options.
    pub fn new(input: &EmFile<T>, spec: &ProblemSpec) -> Result<Self> {
        Self::new_with(input, spec, PartitionOptions::default())
    }

    /// [`PartitionManifest::new`] with explicit options (only the splitter
    /// strategy is consulted).
    pub fn new_with(input: &EmFile<T>, spec: &ProblemSpec, opts: PartitionOptions) -> Result<Self> {
        check_input(input, spec)?;
        let sizes = target_sizes(spec);
        let k = sizes.len();
        debug_assert_eq!(k, spec.k as usize);
        let mut cum = Vec::with_capacity(k);
        let mut acc = 0u64;
        for s in &sizes {
            acc += s;
            cum.push(acc);
        }
        debug_assert_eq!(acc, spec.n);
        Ok(Self {
            spec: *spec,
            opts,
            cum,
            slots: (0..k).map(|_| None).collect(),
            work: vec![Node {
                lo: 0,
                hi: k - 1,
                segs: None,
            }],
            cp: Checkpoint::new(
                input.ctx(),
                PARTITION_JOURNAL,
                Some((input.id(), input.len())),
            ),
        })
    }

    /// Whether partitioning has completed and yielded its output.
    pub fn is_done(&self) -> bool {
        self.cp.is_done()
    }

    /// Completed work units so far (each one a checkpoint).
    pub fn checkpoints(&self) -> u64 {
        self.cp.checkpoints()
    }

    /// Largest I/O cost of any single completed work unit — the empirical
    /// bound on crash rework.
    pub fn max_unit_ios(&self) -> u64 {
        self.cp.max_unit_ios()
    }

    /// The problem spec this manifest was created for.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// A human-readable snapshot of the manifest.
    pub fn describe(&self) -> String {
        let mut s = String::from("em-partition-manifest v1\n");
        self.image(self.cp.checkpoints()).encode(&mut s);
        s
    }

    fn image(&self, checkpoints: u64) -> PartImage {
        let seg_ids = |p: &Partition<T>| -> Vec<(u64, u64)> {
            p.segments().iter().map(|s| (s.id(), s.len())).collect()
        };
        PartImage {
            // Bound at construction.
            input: self.cp.input().unwrap_or_default(),
            spec: (self.spec.n, self.spec.k, self.spec.a, self.spec.b),
            checkpoints,
            slots: self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|p| (i, seg_ids(p))))
                .collect(),
            nodes: self
                .work
                .iter()
                .map(|n| {
                    (
                        n.lo,
                        n.hi,
                        n.segs
                            .as_ref()
                            .map(|v| v.iter().map(|s| (s.id(), s.len())).collect()),
                    )
                })
                .collect(),
        }
    }

    /// Record a completed work unit: durably commit the manifest image.
    fn commit(&mut self) -> Result<()> {
        self.cp.commit(&self.image(self.cp.checkpoints() + 1))
    }

    /// Drive the partitioning of `input` forward from wherever this
    /// manifest left off, until completion or the next terminal error.
    /// Idempotent over failures: only the interrupted split is redone on
    /// the next call.
    pub fn run(&mut self, input: &EmFile<T>) -> Result<Partitioning<T>> {
        self.cp.start(input.id(), input.len())?;
        let ctx = self.cp.ctx().clone();
        let _phase = ctx.stats().phase_guard("approx-partitioning/recoverable");
        resume_inner(input, self, &ctx)
    }
}

/// One-shot recoverable approximate partitioning with default options —
/// realises exactly the sizes of [`crate::approx_partitioning`], with
/// checkpointing overhead. Use [`PartitionManifest::new`] +
/// [`PartitionManifest::run`] directly to keep the manifest across
/// failures.
pub fn approx_partitioning_recoverable<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
) -> Result<Partitioning<T>> {
    PartitionManifest::new(input, spec)?.run(input)
}

fn resume_inner<T: Record>(
    input: &EmFile<T>,
    manifest: &mut PartitionManifest<T>,
    ctx: &EmContext,
) -> Result<Partitioning<T>> {
    let strategy = manifest.opts.strategy;
    while !manifest.work.is_empty() {
        let unit = manifest.cp.begin_unit();
        let (lo, hi, is_root) = {
            let nd = manifest.work.last().expect("non-empty work stack");
            (nd.lo, nd.hi, nd.segs.is_none())
        };
        // Trace-only span per split-tree node: redo points land inside it.
        let _unit = ctx.stats().trace_span(|| format!("split/{lo}-{hi}"));
        let start = if lo == 0 { 0 } else { manifest.cum[lo - 1] };
        let node_len = manifest.cum[hi] - start;

        if node_len == 0 {
            // Every covered partition is empty; no I/O.
            manifest.work.pop();
            for s in lo..=hi {
                manifest.slots[s] = Some(Partition::empty());
            }
            manifest.commit()?;
            manifest.cp.end_unit(unit);
            continue;
        }

        if lo == hi {
            // Leaf: the node's records *are* partition `lo`.
            let part = if is_root {
                // K = 1 (or a degenerate spec): materialise a copy so the
                // output owns its storage, like the non-recoverable path.
                let f = emselect::copy_segs(ctx, std::slice::from_ref(input))?;
                f.set_persistent(true);
                Partition::from_file(f)
            } else {
                let nd = manifest.work.last_mut().expect("non-empty work stack");
                Partition::from_segments(nd.segs.take().expect("non-root leaf"))
            };
            manifest.work.pop();
            manifest.slots[lo] = Some(part);
            // ---- checkpoint: partition `lo`'s segments are durable ----
            manifest.commit()?;
            manifest.cp.end_unit(unit);
            continue;
        }

        let mid = lo + (hi - lo) / 2;
        let cut = manifest.cum[mid] - start;

        if cut == 0 {
            // Partitions lo..=mid all have target size 0; no I/O.
            for s in lo..=mid {
                manifest.slots[s] = Some(Partition::empty());
            }
            manifest.work.last_mut().expect("non-empty").lo = mid + 1;
            manifest.commit()?;
            manifest.cp.end_unit(unit);
            continue;
        }
        if cut == node_len {
            // Partitions mid+1..=hi all have target size 0; no I/O.
            for s in mid + 1..=hi {
                manifest.slots[s] = Some(Partition::empty());
            }
            manifest.work.last_mut().expect("non-empty").hi = mid;
            manifest.commit()?;
            manifest.cp.end_unit(unit);
            continue;
        }

        // The real work unit: split this node's records at local rank
        // `cut` so partitions lo..=mid get the `cut` smallest.
        let (low, high) = {
            let nd = manifest.work.last().expect("non-empty work stack");
            let segs: &[EmFile<T>] = match &nd.segs {
                Some(v) => v,
                None => std::slice::from_ref(input),
            };
            let (low, high, _boundary) = split_at_rank_segs(ctx, segs, cut, strategy)?;
            (low, high)
        };
        for s in low.segments().iter().chain(high.segments()) {
            s.set_persistent(true);
        }
        let parent = manifest.work.pop().expect("non-empty work stack");
        manifest.work.push(Node {
            lo: mid + 1,
            hi,
            segs: Some(high.into_segments()),
        });
        manifest.work.push(Node {
            lo,
            hi: mid,
            segs: Some(low.into_segments()),
        });
        // ---- checkpoint: both children's segment lists are durable ----
        manifest.commit()?;
        // Only now may the parent's (non-root) input segments be released.
        if let Some(segs) = parent.segs {
            for s in &segs {
                s.set_persistent(false);
            }
        }
        manifest.cp.end_unit(unit);
    }

    let parts: Partitioning<T> = manifest
        .slots
        .iter_mut()
        .map(|s| s.take().expect("all slots filled"))
        .collect();
    // Ownership moves to the caller: restore delete-on-drop semantics.
    for p in &parts {
        for s in p.segments() {
            s.set_persistent(false);
        }
    }
    manifest.cp.finish()?;
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_partitioning;
    use emcore::{EmConfig, FaultPlan, SplitMix64};

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    fn flat(parts: &[Partition<u64>]) -> Vec<u64> {
        let mut all = Vec::new();
        for p in parts {
            all.extend(p.to_vec().unwrap());
        }
        all
    }

    fn check_recoverable(n: u64, k: u64, a: u64, b: u64, seed: u64) {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let spec = ProblemSpec::new(n, k, a, b).unwrap();
        let data = shuffled(n, seed);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
        let report = c
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(report.ok, "{spec}: {report:?}");
        let sizes: Vec<u64> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, crate::partitioning::target_sizes(&spec), "{spec}");
        let mut all = c.stats().paused(|| flat(&parts));
        all.sort_unstable();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(all, want, "{spec}");
    }

    #[test]
    fn fault_free_all_groundedness_classes() {
        check_recoverable(4000, 8, 10, 4000, 51); // right-grounded
        check_recoverable(4000, 8, 0, 4000, 52); // right, a = 0
        check_recoverable(4000, 8, 0, 900, 53); // left-grounded
        check_recoverable(4000, 8, 450, 600, 54); // two-sided easy
        check_recoverable(4000, 8, 2, 3000, 55); // two-sided hard
        check_recoverable(4096, 16, 256, 256, 56); // exact
        check_recoverable(100, 1, 0, 100, 57); // K = 1 root leaf
    }

    #[test]
    fn fault_free_charges_journal_writes_no_redone() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let spec = ProblemSpec::new(3000, 8, 300, 500).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(3000, 58)))
            .unwrap();
        let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
        assert_eq!(parts.len(), 8);
        let stats = c.stats().snapshot();
        assert_eq!(stats.redone_ios, 0);
        assert!(stats.journal_writes > 0);
    }

    #[test]
    fn crash_and_resume_preserves_output_and_bounds_rework() {
        let n = 5000u64;
        let spec = ProblemSpec::new(n, 8, 100, 3000).unwrap();
        let data = shuffled(n, 59);
        // Fault-free reference output.
        let want = {
            let c = EmContext::new_in_memory(EmConfig::tiny());
            let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
            c.stats().paused(|| flat(&parts))
        };

        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(300);
        c.install_fault_plan(plan.clone());
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        let mut crashes = 0;
        let parts = loop {
            match m.run(&f) {
                Ok(parts) => break parts,
                Err(EmError::Crashed) => {
                    crashes += 1;
                    assert!(crashes < 100);
                    plan.clear_crash();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(crashes, 1);
        let got = c.stats().paused(|| flat(&parts));
        assert_eq!(got, want, "resumed output must equal fault-free output");
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
        let spec = ProblemSpec::new(200, 4, 20, 100).unwrap();
        let f = EmFile::from_slice(&c, &shuffled(200, 60)).unwrap();
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        let _ = m.run(&f).unwrap();
        assert!(matches!(m.run(&f), Err(EmError::Config(_))));
        let g = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let mut m2 = PartitionManifest::new(&f, &spec).unwrap();
        assert!(matches!(m2.run(&g), Err(EmError::Config(_))));
    }

    #[test]
    fn journal_cleaned_up_on_completion_disk() {
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let spec = ProblemSpec::new(4000, 8, 100, 3000).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(4000, 61)))
            .unwrap();
        let meta = c.backing_dir().unwrap().join("partition-manifest.journal");
        let plan = FaultPlan::new(0).fatal_at(600);
        c.install_fault_plan(plan.clone());
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        assert!(m.run(&f).is_err());
        assert_eq!(meta.exists(), m.checkpoints() > 0);
        plan.clear_crash();
        let parts = m.run(&f).unwrap();
        assert_eq!(parts.len(), 8);
        assert!(!meta.exists(), "journal removed after completion");
        let report = c
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(report.ok);
    }

    /// A fixed image: two completed slots and two pending nodes, the
    /// bottom one still borrowing the root input.
    fn golden_image() -> PartImage {
        PartImage {
            input: (5, 4000),
            spec: (4000, 8, 100, 3000),
            checkpoints: 7,
            slots: vec![(0, vec![(9, 100), (10, 40)]), (3, vec![])],
            nodes: vec![(0, 7, None), (4, 7, Some(vec![(11, 2000)]))],
        }
    }

    #[test]
    fn image_roundtrips_through_journal_encoding() {
        let img = golden_image();
        let mut body = String::new();
        img.encode(&mut body);
        assert_eq!(PartImage::decode(&body).unwrap(), img);
    }

    /// The encoded body of [`golden_image`] is pinned: a change here
    /// breaks every journal already on disk.
    #[test]
    fn journal_encoding_is_pinned() {
        let mut body = String::new();
        golden_image().encode(&mut body);
        assert_eq!(
            body,
            "input 5 4000\nspec 4000 8 100 3000\ncheckpoints 7\n\
             slot 0 9 100 10 40\nslot 3\nnode 0 7 root\nnode 4 7 11 2000\n"
        );
        assert_eq!(
            (PartImage::KIND, PartImage::VERSION),
            ("partition-manifest", 1)
        );
    }
}
