//! The checkpoint spine shared by every crash-recoverable job.
//!
//! The workspace has four checkpointed algorithms — external sort
//! (`emsort`), multi-selection (`emselect`), approximate partitioning
//! (`apsplit`) and semi-external clustering (`emgraph`). Each one keeps a
//! durable manifest in a named [`crate::Journal`], redoes at most one
//! in-flight work unit after a crash, and sweeps orphaned block files on
//! resume.
//!
//! The bookkeeping those manifests share lives here, once, as a
//! [`Checkpoint`]: the journal, the bound input identity, the count of
//! completed units, redo detection and the rework accounting. Each
//! manifest embeds one and drives itself through its own `run` method:
//!
//! ```text
//! let mut manifest = SortManifest::new(&ctx, None);
//! let out = manifest.run(&input)?; // call again after a crash
//! ```

use crate::ctx::EmContext;
use crate::error::{EmError, Result};
use crate::journal::{Journal, JournalState};
use crate::stats::Counters;

/// Durable progress of one recoverable job: its [`Journal`], the input it
/// is bound to, and how many work units have completed.
///
/// The driving protocol, per call of a manifest's `run`:
///
/// 1. [`Checkpoint::start`] refuses a completed job and binds (first run)
///    or verifies (resume) the input identity — before any I/O;
/// 2. every work unit is bracketed by [`Checkpoint::begin_unit`] /
///    [`Checkpoint::end_unit`], and made durable by
///    [`Checkpoint::commit`];
/// 3. [`Checkpoint::finish`] marks the job done and removes the journal.
///
/// A unit that begins while the previous attempt's unit of the same index
/// never committed is a *redo*: its I/O is charged to
/// [`Counters::redone_ios`].
#[derive(Debug)]
pub struct Checkpoint {
    journal: Journal,
    /// Input file identity `(id, len)`, pinned at the first start (or at
    /// construction) so a journal cannot be replayed against the wrong
    /// input.
    input: Option<(u64, u64)>,
    /// Completed work units.
    checkpoints: u64,
    /// Index of the unit currently (or last) being executed — when a unit
    /// starts and this already equals `checkpoints`, the unit is a redo of
    /// one a crash interrupted.
    in_flight: Option<u64>,
    /// Largest I/O cost of any single completed work unit (the empirical
    /// rework bound a crash can force).
    max_unit_ios: u64,
    /// The job has produced its output.
    done: bool,
}

/// An open work unit: whether it redoes an interrupted one, and the
/// counters to diff when it ends.
#[derive(Debug)]
#[must_use = "a work unit must be closed with Checkpoint::end_unit"]
pub struct Unit {
    redo: bool,
    before: Counters,
}

impl Checkpoint {
    /// A fresh checkpoint journaling under `name` on `ctx`, optionally
    /// bound to an input identity up front.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid journal name (callers pass constants).
    pub fn new(ctx: &EmContext, name: &str, input: Option<(u64, u64)>) -> Self {
        Self {
            journal: Journal::new(ctx, name).expect("valid journal name"),
            input,
            checkpoints: 0,
            in_flight: None,
            max_unit_ios: 0,
            done: false,
        }
    }

    /// Reload an interrupted job from `ctx`'s backing directory: load the
    /// `name` journal and garbage-collect every block file that neither
    /// the recorded input nor the journal references. `restore` reads
    /// the decoded image's input identity, completed-unit count and
    /// referenced file ids. Returns `Ok(None)` when no journal exists.
    ///
    /// The sweep assumes one recoverable job per backing directory —
    /// every live file must be reachable from this journal. Requires a
    /// directory-backed context (memory-backed block files cannot
    /// outlive their context).
    pub fn load<S: JournalState>(
        ctx: &EmContext,
        name: &str,
        restore: impl FnOnce(&S) -> (Option<(u64, u64)>, u64, Vec<u64>),
    ) -> Result<Option<(Self, S)>> {
        if ctx.backing_dir().is_none() {
            return Err(EmError::config(format!(
                "{name}: cross-process resume requires a directory-backed context"
            )));
        }
        let mut cp = Self::new(ctx, name, None);
        let Some(img) = cp.journal.load::<S>()? else {
            return Ok(None);
        };
        let (input, checkpoints, mut keep) = restore(&img);
        keep.extend(input.map(|(id, _)| id));
        ctx.gc_orphans(&keep)?;
        cp.input = input;
        cp.checkpoints = checkpoints;
        Ok(Some((cp, img)))
    }

    /// Begin a drive over the input `(id, len)`: refuse a completed job,
    /// then bind the identity on a fresh checkpoint or verify it on a
    /// resumed one.
    ///
    /// # Errors
    ///
    /// [`EmError::Config`] when the job already completed (its
    /// temporaries are gone) or belongs to a different input.
    pub fn start(&mut self, id: u64, len: u64) -> Result<()> {
        let name = self.journal.name();
        if self.done {
            return Err(EmError::config(format!(
                "{name}: manifest already completed; create a fresh one"
            )));
        }
        match self.input {
            None => self.input = Some((id, len)),
            Some((bid, blen)) if (bid, blen) != (id, len) => {
                return Err(EmError::config(format!(
                    "{name}: manifest belongs to input (id {bid}, len {blen}), \
                     got (id {id}, len {len})"
                )))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Open the next work unit, detecting whether it redoes one a crash
    /// interrupted.
    pub fn begin_unit(&mut self) -> Unit {
        let redo = self.in_flight == Some(self.checkpoints);
        self.in_flight = Some(self.checkpoints);
        Unit {
            redo,
            before: self.ctx().stats().snapshot(),
        }
    }

    /// Close `unit`: account its I/O toward [`Checkpoint::max_unit_ios`],
    /// and toward [`Counters::redone_ios`] if it was a redo.
    pub fn end_unit(&mut self, unit: Unit) {
        let stats = self.journal.ctx().stats();
        let spent = stats.snapshot().since(&unit.before).total_ios();
        self.max_unit_ios = self.max_unit_ios.max(spent);
        if unit.redo {
            stats.record_redone_ios(spent);
        }
    }

    /// Record a completed unit and durably commit `image`, which must
    /// already count it (`checkpoints() + 1`).
    pub fn commit<S: JournalState>(&mut self, image: &S) -> Result<()> {
        self.checkpoints += 1;
        self.journal.commit(image)
    }

    /// Mark the job done and remove its journal.
    pub fn finish(&mut self) -> Result<()> {
        self.done = true;
        self.journal.remove()
    }

    /// The context the journal (and so the job) lives on.
    pub fn ctx(&self) -> &EmContext {
        self.journal.ctx()
    }

    /// The bound input identity `(id, len)`, once known.
    pub fn input(&self) -> Option<(u64, u64)> {
        self.input
    }

    /// Completed work units so far (each one a commit).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Largest I/O cost of any single work unit completed through this
    /// value — the empirical bound on crash rework.
    pub fn max_unit_ios(&self) -> u64 {
        self.max_unit_ios
    }

    /// Whether the job completed and yielded its output.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmConfig;
    use crate::file::EmFile;

    struct Count(u64);

    impl JournalState for Count {
        const KIND: &'static str = "count";
        const VERSION: u32 = 1;
        fn encode(&self, out: &mut String) {
            out.push_str(&self.0.to_string());
        }
        fn decode(body: &str) -> Result<Self> {
            body.parse()
                .map(Count)
                .map_err(|_| EmError::config("count: bad body"))
        }
    }

    #[test]
    fn start_binds_fresh_and_verifies_resumed_input() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut cp = Checkpoint::new(&ctx, "fake-manifest", None);
        cp.start(7, 100).unwrap();
        assert_eq!(cp.input(), Some((7, 100)));
        cp.start(7, 100).unwrap();
        let err = cp.start(3, 100).unwrap_err();
        assert!(matches!(err, EmError::Config(_)));
        assert!(err.to_string().contains("belongs to input"), "{err}");

        let mut bound = Checkpoint::new(&ctx, "fake-manifest", Some((3, 5)));
        assert!(bound.start(3, 6).is_err());
        bound.start(3, 5).unwrap();
    }

    #[test]
    fn refuses_completed_job() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut cp = Checkpoint::new(&ctx, "fake-manifest", None);
        cp.start(7, 1).unwrap();
        cp.finish().unwrap();
        assert!(cp.is_done());
        let err = cp.start(7, 1).unwrap_err();
        assert!(err.to_string().contains("already completed"), "{err}");
    }

    #[test]
    fn redo_of_an_uncommitted_unit_is_charged() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut cp = Checkpoint::new(&ctx, "fake-manifest", None);
        let data: Vec<u64> = (0..64).collect();

        // Unit 0 runs, then "crashes" before its commit.
        let unit = cp.begin_unit();
        EmFile::from_slice(&ctx, &data).unwrap();
        drop(unit);
        assert_eq!(ctx.stats().snapshot().redone_ios, 0);

        // The retry of unit 0 is a redo; unit 1 is not.
        let unit = cp.begin_unit();
        EmFile::from_slice(&ctx, &data).unwrap();
        cp.commit(&Count(1)).unwrap();
        cp.end_unit(unit);
        let redone = ctx.stats().snapshot().redone_ios;
        assert!(redone > 0);
        assert_eq!(cp.max_unit_ios(), redone);

        let unit = cp.begin_unit();
        cp.commit(&Count(2)).unwrap();
        cp.end_unit(unit);
        assert_eq!(ctx.stats().snapshot().redone_ios, redone);
        assert_eq!(cp.checkpoints(), 2);
        assert_eq!(ctx.stats().snapshot().journal_writes, 2);
    }

    #[test]
    fn load_restores_bookkeeping_and_sweeps_orphans() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let err = Checkpoint::load::<Count>(&ctx, "fake-manifest", |_| (None, 0, vec![]));
        assert!(
            err.is_err(),
            "memory contexts cannot resume across processes"
        );

        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let none = Checkpoint::load::<Count>(&ctx, "fake-manifest", |_| (None, 0, vec![]));
        assert!(none.unwrap().is_none());
        for len in [4u64, 5, 6] {
            let v: Vec<u64> = (0..len).collect();
            EmFile::from_slice(&ctx, &v).unwrap().set_persistent(true);
        }
        let mut cp = Checkpoint::new(&ctx, "fake-manifest", Some((0, 4)));
        cp.commit(&Count(1)).unwrap();
        let (cp, img) =
            Checkpoint::load::<Count>(&ctx, "fake-manifest", |img| (Some((0, 4)), img.0, vec![2]))
                .unwrap()
                .expect("journal exists");
        assert_eq!((cp.input(), cp.checkpoints(), img.0), (Some((0, 4)), 1, 1));
        assert_eq!(ctx.list_file_ids().unwrap(), vec![0, 2]);
    }
}
