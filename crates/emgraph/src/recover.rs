//! Crash-recoverable clustering: rounds checkpointed through the
//! shared journal so a crash redoes at most one round.
//!
//! The only algorithm state that must survive a crash is the current
//! label file — everything inside a round (annotation files, mover and
//! admission files, the half-written next label file) is derived and
//! unwinds with the crash. The [`ClusterManifest`] therefore journals
//! just `(round, labels file, moves history)` plus the input binding,
//! commits after every completed round (the labels file marked
//! persistent *before* the previous round's file is released), and
//! [`ClusterManifest::load`] resumes across processes on a
//! directory-backed context, garbage-collecting the crashed attempt's
//! orphans.

use emcore::{Checkpoint, EmContext, EmError, EmFile, JournalState, Result};

use crate::build::Graph;
use crate::cluster::{count_clusters, initial_labels, lp_round, ClusterOptions, Clustering};

/// Name of the clustering checkpoint journal within its backing store.
pub const CLUSTER_JOURNAL: &str = "graph-cluster";

/// Checkpointed state of a recoverable clustering run. One work unit =
/// one label-propagation round (unit 0 is the identity labeling).
#[derive(Debug)]
pub struct ClusterManifest {
    /// Input binding beyond the edge file's `(id, len)` (which `cp`
    /// holds): vertex count and the option echo — a journal must not
    /// replay against a different graph or different parameters.
    vertices: u64,
    rounds: u32,
    cap: u64,
    /// Completed rounds and their label file.
    round: u32,
    labels: Option<EmFile<u64>>,
    /// Vertices moved per completed round (a trailing 0 means the loop
    /// converged early and must not resume).
    moves: Vec<u64>,
    /// Journal, edge-file binding and unit accounting.
    cp: Checkpoint,
}

/// Serialised image of a [`ClusterManifest`] — what the journal stores.
#[derive(Debug, PartialEq, Eq)]
struct ClusterImage {
    input: Option<(u64, u64)>,
    vertices: u64,
    rounds: u32,
    cap: u64,
    round: u32,
    labels: Option<(u64, u64)>,
    moves: Vec<u64>,
    checkpoints: u64,
}

impl JournalState for ClusterImage {
    const KIND: &'static str = "graph-cluster";
    const VERSION: u32 = 1;

    fn encode(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "vertices {}", self.vertices);
        let _ = writeln!(out, "rounds {}", self.rounds);
        let _ = writeln!(out, "cap {}", self.cap);
        let _ = writeln!(out, "round {}", self.round);
        let _ = writeln!(out, "checkpoints {}", self.checkpoints);
        if let Some((id, len)) = self.input {
            let _ = writeln!(out, "input {id} {len}");
        }
        if let Some((id, len)) = self.labels {
            let _ = writeln!(out, "labels {id} {len}");
        }
        for m in &self.moves {
            let _ = writeln!(out, "moved {m}");
        }
    }

    fn decode(body: &str) -> Result<Self> {
        fn bad(line: &str) -> EmError {
            EmError::config(format!("graph-cluster journal: bad line {line:?}"))
        }
        fn pair(rest: &str, line: &str) -> Result<(u64, u64)> {
            let (a, b) = rest.split_once(' ').ok_or_else(|| bad(line))?;
            Ok((
                a.parse().map_err(|_| bad(line))?,
                b.parse().map_err(|_| bad(line))?,
            ))
        }
        let mut img = ClusterImage {
            input: None,
            vertices: 0,
            rounds: 0,
            cap: 0,
            round: 0,
            labels: None,
            moves: Vec::new(),
            checkpoints: 0,
        };
        for line in body.lines() {
            let (key, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
            match key {
                "vertices" => img.vertices = rest.parse().map_err(|_| bad(line))?,
                "rounds" => img.rounds = rest.parse().map_err(|_| bad(line))?,
                "cap" => img.cap = rest.parse().map_err(|_| bad(line))?,
                "round" => img.round = rest.parse().map_err(|_| bad(line))?,
                "checkpoints" => img.checkpoints = rest.parse().map_err(|_| bad(line))?,
                "input" => img.input = Some(pair(rest, line)?),
                "labels" => img.labels = Some(pair(rest, line)?),
                "moved" => img.moves.push(rest.parse().map_err(|_| bad(line))?),
                _ => return Err(bad(line)),
            }
        }
        Ok(img)
    }
}

impl ClusterManifest {
    /// A fresh manifest for `opts`: no rounds completed.
    pub fn new(ctx: &EmContext, opts: &ClusterOptions) -> Self {
        Self {
            vertices: 0,
            rounds: opts.rounds,
            cap: opts.max_cluster_size,
            round: 0,
            labels: None,
            moves: Vec::new(),
            cp: Checkpoint::new(ctx, CLUSTER_JOURNAL, None),
        }
    }

    /// Reload an interrupted clustering from `ctx`'s backing directory:
    /// read the `graph-cluster` journal, sweep the crashed attempt's
    /// orphans (see [`Checkpoint::load`]) and reopen the checkpointed
    /// label file. Returns `Ok(None)` when no journal exists.
    pub fn load(ctx: &EmContext) -> Result<Option<Self>> {
        let Some((cp, img)) = Checkpoint::load::<ClusterImage>(ctx, CLUSTER_JOURNAL, |img| {
            let files = img.labels.iter().map(|&(id, _)| id);
            (img.input, img.checkpoints, files.collect())
        })?
        else {
            return Ok(None);
        };
        let labels = img
            .labels
            .map(|(id, len)| ctx.open_file::<u64>(id, len))
            .transpose()?;
        Ok(Some(Self {
            vertices: img.vertices,
            rounds: img.rounds,
            cap: img.cap,
            round: img.round,
            labels,
            moves: img.moves,
            cp,
        }))
    }

    /// Completed rounds so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Completed work units so far (each one a checkpoint).
    pub fn checkpoints(&self) -> u64 {
        self.cp.checkpoints()
    }

    /// Whether the clustering has completed and yielded its output.
    pub fn is_done(&self) -> bool {
        self.cp.is_done()
    }

    /// Vertices moved per completed round.
    pub fn moves(&self) -> &[u64] {
        &self.moves
    }

    /// The `(id, len)` of the canonical edge file this manifest
    /// clusters, once known.
    pub fn input(&self) -> Option<(u64, u64)> {
        self.cp.input()
    }

    /// The vertex-id space of the bound graph (0 until bound).
    pub fn vertices(&self) -> u64 {
        self.vertices
    }

    /// Largest I/O cost of any single completed work unit — the
    /// empirical bound on crash rework (≤ one round).
    pub fn max_unit_ios(&self) -> u64 {
        self.cp.max_unit_ios()
    }

    /// A human-readable snapshot of the manifest.
    pub fn describe(&self) -> String {
        let mut s = String::from("em-graph-cluster-manifest v1\n");
        self.image(self.cp.checkpoints()).encode(&mut s);
        s
    }

    fn image(&self, checkpoints: u64) -> ClusterImage {
        ClusterImage {
            input: self.cp.input(),
            vertices: self.vertices,
            rounds: self.rounds,
            cap: self.cap,
            round: self.round,
            labels: self.labels.as_ref().map(|f| (f.id(), f.len())),
            moves: self.moves.clone(),
            checkpoints,
        }
    }

    /// Install `next` as the checkpointed label file: persist it, commit
    /// the journal, then release the previous round's file — in that
    /// order, so every committed image references a durable file.
    fn swap_labels(&mut self, next: EmFile<u64>) -> Result<()> {
        next.set_persistent(true);
        let prev = self.labels.replace(next);
        self.cp.commit(&self.image(self.cp.checkpoints() + 1))?;
        if let Some(prev) = prev {
            prev.set_persistent(false);
        }
        Ok(())
    }

    /// Drive the clustering of `graph` forward from wherever this
    /// manifest left off, until completion or the next terminal error.
    /// Idempotent over failures: only the interrupted round is redone on
    /// the next call. A fresh manifest binds to `graph`; a resumed one
    /// refuses any other graph.
    pub fn run(&mut self, graph: &Graph) -> Result<Clustering> {
        let edges = graph.edges();
        let fresh = self.cp.input().is_none();
        self.cp.start(edges.id(), edges.len())?;
        if fresh {
            self.vertices = graph.vertices();
        } else if self.vertices != graph.vertices() {
            return Err(EmError::config(format!(
                "{CLUSTER_JOURNAL}: manifest belongs to a {}-vertex graph, got {}",
                self.vertices,
                graph.vertices()
            )));
        }
        let ctx = self.cp.ctx().clone();
        let _phase = ctx.stats().phase_guard("graph/cluster");
        drive_rounds(&ctx, graph, self)
    }
}

fn drive_rounds(
    ctx: &EmContext,
    graph: &Graph,
    manifest: &mut ClusterManifest,
) -> Result<Clustering> {
    // The label array is the dominant RAM cost: hold one governor lease
    // for the whole run and re-read its grant every round, so a squeeze
    // between rounds shrinks the next round's window, never correctness.
    let floor = ctx
        .config()
        .block_size()
        .min(graph.vertices().max(1) as usize);
    let lease = ctx.governor().lease("graph-labels", floor, 2)?;

    // Unit 0: the identity labeling.
    if manifest.labels.is_none() {
        let unit = manifest.cp.begin_unit();
        let _unit = ctx.stats().trace_span(|| "graph/round#0".to_string());
        let init = initial_labels(ctx, graph.vertices())?;
        manifest.swap_labels(init)?;
        manifest.cp.end_unit(unit);
    }

    // Units 1..: one round each, until the budget or convergence.
    while manifest.round < manifest.rounds && manifest.moves.last() != Some(&0) {
        let unit = manifest.cp.begin_unit();
        let _unit = ctx
            .stats()
            .trace_span(|| format!("graph/round#{}", manifest.round + 1));
        let old = manifest.labels.as_ref().ok_or_else(|| {
            EmError::config("graph cluster invariant violated: missing label file")
        })?;
        let (next, moved) = lp_round(ctx, graph, old, manifest.cap, &lease)?;
        manifest.round += 1;
        manifest.moves.push(moved);
        manifest.swap_labels(next)?;
        manifest.cp.end_unit(unit);
    }

    // Finalize: read-only summary work after the last checkpoint — a
    // crash here redoes no round.
    let labels = manifest
        .labels
        .take()
        .ok_or_else(|| EmError::config("graph cluster invariant violated: missing label file"))?;
    let clusters = count_clusters(&labels)?;
    let result = Clustering {
        rounds_run: manifest.round,
        moves: manifest.moves.clone(),
        clusters,
        labels,
    };
    manifest.cp.finish()?;
    // The output leaves the manifest's custody: normal drop semantics.
    result.labels.set_persistent(false);
    Ok(result)
}

/// Cluster `graph` with per-round checkpointing — the one-shot entry
/// point. For crash survival across attempts, keep your own manifest
/// and call [`ClusterManifest::run`].
pub fn cluster(graph: &Graph, opts: &ClusterOptions) -> Result<Clustering> {
    ClusterManifest::new(graph.edges().ctx(), opts).run(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildOptions};
    use crate::cluster::labels_digest;
    use crate::edge::edges_from_pairs;
    use emcore::{EmConfig, EmContext, FaultPlan};

    fn graph_on(ctx: &EmContext, seed: u64, n: u64, m: usize) -> Graph {
        let mut rng = emcore::SplitMix64::new(seed);
        let pairs: Vec<(u64, u64)> = (0..m).map(|_| (rng.below(n), rng.below(n))).collect();
        let raw = edges_from_pairs(ctx, &pairs).unwrap();
        build_graph(ctx, &raw, &BuildOptions::default()).unwrap()
    }

    #[test]
    fn one_shot_cluster_reports_and_converges() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        // Two disjoint triangles: LP settles quickly.
        let raw =
            edges_from_pairs(&ctx, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let g = build_graph(&ctx, &raw, &BuildOptions::default()).unwrap();
        let c = cluster(&g, &ClusterOptions::default()).unwrap();
        assert!(c.rounds_run <= 8);
        assert_eq!(c.moves.last(), Some(&0), "converged");
        assert_eq!(c.labels.len(), 6);
        // Each triangle collapses to one label.
        let labels = c.labels.to_vec().unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(c.clusters, 2);
    }

    #[test]
    fn crash_mid_round_resumes_with_bounded_rework() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let g = graph_on(&ctx, 5, 200, 2000);
        let opts = ClusterOptions {
            rounds: 4,
            max_cluster_size: 0,
        };
        // Reference run, fault-free.
        let want = cluster(&g, &opts).unwrap();
        let want_digest = labels_digest(&want.labels).unwrap();

        // Crash somewhere inside the round loop, then resume.
        let plan = FaultPlan::new(0).fatal_at(400);
        ctx.install_fault_plan(plan.clone());
        let mut manifest = ClusterManifest::new(&ctx, &opts);
        let crashed = manifest.run(&g);
        assert!(matches!(crashed, Err(EmError::Crashed)));
        assert!(!manifest.is_done());
        plan.clear_crash();
        ctx.clear_fault_plan();
        let got = manifest.run(&g).unwrap();
        assert!(manifest.is_done());
        assert_eq!(labels_digest(&got.labels).unwrap(), want_digest);
        assert_eq!(got.moves, want.moves);
        // ≤ 1 redone round, by construction and by accounting.
        let stats = ctx.stats().snapshot();
        assert!(stats.redone_ios > 0, "redone work must be accounted");
        assert!(
            stats.redone_ios <= manifest.max_unit_ios(),
            "rework {} exceeds one round {}",
            stats.redone_ios,
            manifest.max_unit_ios()
        );
    }

    #[test]
    fn completed_manifest_rejects_reuse_and_wrong_input() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let g = graph_on(&ctx, 7, 50, 300);
        let opts = ClusterOptions {
            rounds: 2,
            max_cluster_size: 0,
        };
        let mut manifest = ClusterManifest::new(&ctx, &opts);
        let _ = manifest.run(&g).unwrap();
        assert!(matches!(manifest.run(&g), Err(EmError::Config(_))));
        // A fresh manifest crashed against g must reject another graph.
        let plan = FaultPlan::new(0).fatal_at(100);
        ctx.install_fault_plan(plan.clone());
        let mut m2 = ClusterManifest::new(&ctx, &opts);
        assert!(m2.run(&g).is_err());
        plan.clear_crash();
        ctx.clear_fault_plan();
        let other = graph_on(&ctx, 8, 60, 400);
        assert!(matches!(m2.run(&other), Err(EmError::Config(_))));
        let done = m2.run(&g).unwrap();
        assert_eq!(done.labels.len(), 50);
    }

    #[test]
    fn cross_process_resume_on_disk() {
        let dir = std::env::temp_dir().join(format!("emgraph-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ClusterOptions {
            rounds: 3,
            max_cluster_size: 16,
        };
        let (edges_id, edges_len, want_digest);
        {
            // "Process 1": build, start clustering, crash.
            let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
            let g = graph_on(&ctx, 21, 120, 1200);
            g.edges().set_persistent(true);
            (edges_id, edges_len) = (g.edges().id(), g.edges().len());
            // Fault-free reference digest first, on a scratch context.
            let ctx2 = EmContext::new_in_memory(EmConfig::tiny());
            let g2 = graph_on(&ctx2, 21, 120, 1200);
            want_digest = labels_digest(&cluster(&g2, &opts).unwrap().labels).unwrap();

            let plan = FaultPlan::new(0).fatal_at(600);
            ctx.install_fault_plan(plan.clone());
            let mut manifest = ClusterManifest::new(&ctx, &opts);
            let r = manifest.run(&g);
            assert!(matches!(r, Err(EmError::Crashed)));
        }
        {
            // "Process 2": fresh context over the same directory.
            let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
            let mut manifest = ClusterManifest::load(&ctx)
                .unwrap()
                .expect("journal exists");
            let edges = ctx.open_file::<crate::Edge>(edges_id, edges_len).unwrap();
            let g = crate::rebind_graph(&ctx, edges, manifest.vertices()).unwrap();
            let got = manifest.run(&g).unwrap();
            assert_eq!(labels_digest(&got.labels).unwrap(), want_digest);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_roundtrips_through_journal_encoding() {
        let img = ClusterImage {
            input: Some((3, 4096)),
            vertices: 100,
            rounds: 8,
            cap: 32,
            round: 5,
            labels: Some((9, 100)),
            moves: vec![40, 12, 3, 1, 0],
            checkpoints: 6,
        };
        let mut body = String::new();
        img.encode(&mut body);
        assert_eq!(ClusterImage::decode(&body).unwrap(), img);
    }

    /// A fixed image: the bound edge file and round 2's label file.
    fn golden_image() -> ClusterImage {
        ClusterImage {
            input: Some((0, 24)),
            vertices: 6,
            rounds: 8,
            cap: 4,
            round: 2,
            labels: Some((1, 6)),
            moves: vec![3, 1],
            checkpoints: 3,
        }
    }

    /// Encoded body of [`golden_image`], as written by the `v1` image
    /// layout. A change here breaks every journal already on disk.
    const GOLDEN_BODY: &str = "vertices 6\nrounds 8\ncap 4\nround 2\ncheckpoints 3\n\
        input 0 24\nlabels 1 6\nmoved 3\nmoved 1\n";

    /// The whole committed document for [`golden_image`].
    const GOLDEN_DOC: &str = "emjournal v2 graph-cluster 1 86 fe087f84221f0d8c\n\
        vertices 6\nrounds 8\ncap 4\nround 2\ncheckpoints 3\n\
        input 0 24\nlabels 1 6\nmoved 3\nmoved 1\n";

    #[test]
    fn journal_encoding_is_pinned() {
        let mut body = String::new();
        golden_image().encode(&mut body);
        assert_eq!(body, GOLDEN_BODY);
        assert!(GOLDEN_DOC.ends_with(GOLDEN_BODY));
        assert_eq!(
            (ClusterImage::KIND, ClusterImage::VERSION),
            ("graph-cluster", 1)
        );
    }

    #[test]
    fn golden_document_loads_from_a_directory() {
        let dir = std::env::temp_dir().join(format!("emgraph-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // File 0 stands in for the bound edge file, 1 is round 2's
            // label file, 2 is an orphan of the "crashed" attempt.
            let c = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
            for len in [24u64, 6, 5] {
                let v: Vec<u64> = (0..len).collect();
                EmFile::from_slice(&c, &v).unwrap().set_persistent(true);
            }
            std::fs::write(dir.join("graph-cluster.journal"), GOLDEN_DOC).unwrap();
        }
        let c = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let m = ClusterManifest::load(&c).unwrap().expect("journal exists");
        assert_eq!(
            m.describe(),
            format!("em-graph-cluster-manifest v1\n{GOLDEN_BODY}")
        );
        assert_eq!((m.round(), m.vertices(), m.moves()), (2, 6, &[3, 1][..]));
        assert_eq!(c.list_file_ids().unwrap(), vec![0, 1], "orphan swept");
        drop((m, c));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn describe_reports_progress() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let m = ClusterManifest::new(
            &ctx,
            &ClusterOptions {
                rounds: 6,
                max_cluster_size: 10,
            },
        );
        let d = m.describe();
        assert!(d.contains("rounds 6"));
        assert!(d.contains("cap 10"));
    }
}
