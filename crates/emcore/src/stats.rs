//! I/O accounting.
//!
//! Every block transfer performed through an [`crate::EmFile`] is charged to
//! the [`IoStats`] handle of the owning [`crate::EmContext`]. Counters can be
//! snapshotted and diffed, and named *phases* attribute I/Os to
//! sub-algorithms (e.g. "sample", "distribute", "base-case"). Phases double
//! as trace spans: when a [`crate::TraceSink`] is installed on the context,
//! every phase open/close is emitted as a span event carrying its exact
//! counter delta (see [`crate::trace`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

use crate::fault::IoOp;
use crate::trace::{PointKind, Tracer};

/// A plain set of counters. Snapshots and phase totals use this type.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Block reads.
    pub reads: u64,
    /// Block writes.
    pub writes: u64,
    /// Key comparisons (only charged by algorithms that opt in).
    pub comparisons: u64,
    /// Bytes read from the file backend (0 on the memory backend).
    pub bytes_read: u64,
    /// Bytes written to the file backend (0 on the memory backend).
    pub bytes_written: u64,
    /// Device attempts that failed and were retried under the context's
    /// [`crate::RetryPolicy`]. Successful attempts are charged to
    /// `reads`/`writes` as usual, so with an empty fault plan this is 0 and
    /// every other counter is unchanged.
    pub retries: u64,
    /// Block reads that failed checksum verification (each such attempt also
    /// counts toward `retries` if it was retried).
    pub corrupt_reads: u64,
    /// Checkpoint-journal commits (see [`crate::Journal`]). Journal commits
    /// are host-side metadata writes, not block transfers, so they are *not*
    /// part of [`Counters::total_ios`].
    pub journal_writes: u64,
    /// Block I/Os spent *re-executing* a work unit that a crash interrupted
    /// (charged by recoverable algorithms when they redo an in-flight unit
    /// on resume). These I/Os are also counted in `reads`/`writes`; this
    /// counter isolates the rework overhead.
    pub redone_ios: u64,
    /// Physical block reads actually performed by the device layer —
    /// block-cache misses plus uncached reads. With the cache disabled
    /// (`cache_blocks = 0`) every logical read is physical, so this equals
    /// `reads`.
    pub physical_reads: u64,
    /// Physical block writes performed by the device layer. The block cache
    /// is write-through (writes are never absorbed), so this always equals
    /// `writes`.
    pub physical_writes: u64,
    /// Block-cache hits: logical reads served from the buffer pool without
    /// a device transfer. Always 0 with the cache disabled.
    pub cache_hits: u64,
    /// Block-cache misses: logical reads that consulted the buffer pool,
    /// went to the device, and populated a frame. Always 0 with the cache
    /// disabled.
    pub cache_misses: u64,
    /// Strict-mode memory charges denied with a typed
    /// [`crate::EmError::MemoryExceeded`] (the caller retried smaller,
    /// degraded, or surfaced the error — nothing panicked).
    pub mem_denials: u64,
    /// Governor budget squeezes delivered via `EmContext::set_mem_budget`
    /// (shrinks only; restores are visible in the trace stream).
    pub mem_reclaims: u64,
}

impl Counters {
    /// Total block I/Os: reads + writes.
    #[inline]
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Model-charged (*logical*) block I/Os — a synonym for
    /// [`Counters::total_ios`], named for the logical/physical split. Every
    /// Table-1 comparison and predicted-bound check uses this quantity: a
    /// block-cache hit is still one logical I/O in the EM model, so enabling
    /// the cache never changes it.
    #[inline]
    pub fn logical_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Physical device transfers: `physical_reads + physical_writes`. This
    /// is what the hardware actually did; `logical_ios - physical_ios` is
    /// the traffic the buffer pool absorbed.
    #[inline]
    pub fn physical_ios(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Cache hit rate over logical reads that consulted the buffer pool
    /// (`hits / (hits + misses)`); 0.0 when the cache never engaged.
    pub fn cache_hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }

    /// Component-wise difference `self - earlier`. Saturates at zero so that
    /// diffing against a later snapshot does not panic in release builds.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            comparisons: self.comparisons.saturating_sub(earlier.comparisons),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            retries: self.retries.saturating_sub(earlier.retries),
            corrupt_reads: self.corrupt_reads.saturating_sub(earlier.corrupt_reads),
            journal_writes: self.journal_writes.saturating_sub(earlier.journal_writes),
            redone_ios: self.redone_ios.saturating_sub(earlier.redone_ios),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            mem_denials: self.mem_denials.saturating_sub(earlier.mem_denials),
            mem_reclaims: self.mem_reclaims.saturating_sub(earlier.mem_reclaims),
        }
    }

    /// Component-wise sum. Saturates like [`Counters::since`] so that
    /// accumulating totals over a long campaign can never overflow-panic in
    /// debug builds.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            reads: self.reads.saturating_add(other.reads),
            writes: self.writes.saturating_add(other.writes),
            comparisons: self.comparisons.saturating_add(other.comparisons),
            bytes_read: self.bytes_read.saturating_add(other.bytes_read),
            bytes_written: self.bytes_written.saturating_add(other.bytes_written),
            retries: self.retries.saturating_add(other.retries),
            corrupt_reads: self.corrupt_reads.saturating_add(other.corrupt_reads),
            journal_writes: self.journal_writes.saturating_add(other.journal_writes),
            redone_ios: self.redone_ios.saturating_add(other.redone_ios),
            physical_reads: self.physical_reads.saturating_add(other.physical_reads),
            physical_writes: self.physical_writes.saturating_add(other.physical_writes),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            cache_misses: self.cache_misses.saturating_add(other.cache_misses),
            mem_denials: self.mem_denials.saturating_add(other.mem_denials),
            mem_reclaims: self.mem_reclaims.saturating_add(other.mem_reclaims),
        }
    }
}

/// Render a byte count with a binary-unit suffix ("3.2 MiB").
fn fmt_bytes(f: &mut std::fmt::Formatter<'_>, bytes: u64) -> std::fmt::Result {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        write!(f, "{bytes} B")
    } else {
        write!(f, "{v:.1} {}", UNITS[unit])
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} I/Os ({} reads, {} writes, ",
            self.total_ios(),
            self.reads,
            self.writes
        )?;
        fmt_bytes(f, self.bytes_read)?;
        write!(f, " read, ")?;
        fmt_bytes(f, self.bytes_written)?;
        write!(f, " written)")?;
        if self.retries != 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        if self.corrupt_reads != 0 {
            write!(f, ", {} corrupt reads", self.corrupt_reads)?;
        }
        if self.journal_writes != 0 {
            write!(f, ", {} journal commits", self.journal_writes)?;
        }
        if self.redone_ios != 0 {
            write!(f, ", {} redone I/Os", self.redone_ios)?;
        }
        if self.cache_hits + self.cache_misses != 0 {
            write!(
                f,
                ", cache {}/{} hits ({} physical I/Os)",
                self.cache_hits,
                self.cache_hits + self.cache_misses,
                self.physical_ios()
            )?;
        }
        if self.mem_denials != 0 {
            write!(f, ", {} mem denials", self.mem_denials)?;
        }
        if self.mem_reclaims != 0 {
            write!(f, ", {} mem reclaims", self.mem_reclaims)?;
        }
        Ok(())
    }
}

/// One open phase/span on the stack.
#[derive(Debug)]
struct Scope {
    name: String,
    start: Counters,
    /// Trace span id (0 when tracing was disabled at open time).
    span: u64,
    /// Whether the delta is added to `phase_totals` on close. Trace-only
    /// spans (work units, recursion levels) set this false so they appear
    /// in the span tree without double-counting in the flat totals.
    charge: bool,
}

/// The counters themselves, as per-field relaxed atomics. Charging an I/O
/// from a worker thread is a couple of `fetch_add`s — no lock, no parking —
/// so the accounting layer stays off the critical path of a parallel sort
/// even when every worker charges on every block.
#[derive(Debug, Default)]
struct AtomicCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    comparisons: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    retries: AtomicU64,
    corrupt_reads: AtomicU64,
    journal_writes: AtomicU64,
    redone_ios: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    mem_denials: AtomicU64,
    mem_reclaims: AtomicU64,
}

impl AtomicCounters {
    fn load(&self) -> Counters {
        Counters {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
            journal_writes: self.journal_writes.load(Ordering::Relaxed),
            redone_ios: self.redone_ios.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            mem_denials: self.mem_denials.load(Ordering::Relaxed),
            mem_reclaims: self.mem_reclaims.load(Ordering::Relaxed),
        }
    }

    fn zero(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.comparisons.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.corrupt_reads.store(0, Ordering::Relaxed);
        self.journal_writes.store(0, Ordering::Relaxed);
        self.redone_ios.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.mem_denials.store(0, Ordering::Relaxed);
        self.mem_reclaims.store(0, Ordering::Relaxed);
    }
}

/// Bookkeeping that genuinely needs mutual exclusion: phase scopes and
/// totals. The hot counters live outside this lock (see [`AtomicCounters`]);
/// this mutex is only taken at phase boundaries and for reports.
#[derive(Debug, Default)]
struct StatsInner {
    /// Open phases, kept **per thread**: concurrent workers each see their
    /// own LIFO stack, so interleaved begin/end from different threads never
    /// pop each other's scopes.
    scope_stacks: HashMap<ThreadId, Vec<Scope>>,
    phase_totals: BTreeMap<String, Counters>,
}

impl StatsInner {
    /// The calling thread's scope stack (created on first use).
    fn stack(&mut self) -> &mut Vec<Scope> {
        self.scope_stacks
            .entry(std::thread::current().id())
            .or_default()
    }

    fn open_scope_names(&self) -> Vec<&str> {
        self.scope_stacks
            .values()
            .flatten()
            .map(|s| s.name.as_str())
            .collect()
    }
}

impl Drop for StatsInner {
    fn drop(&mut self) {
        // An open phase at teardown means a begin_phase without a matching
        // end_phase somewhere — attribution was silently dropped. Only
        // assert when not already unwinding, to avoid a double panic.
        if !std::thread::panicking() {
            let open = self.open_scope_names();
            debug_assert!(
                open.is_empty(),
                "IoStats dropped with {} open phase(s): {:?} — use phase_guard()",
                open.len(),
                open
            );
        }
    }
}

/// Shared state of one [`IoStats`] handle: lock-free hot counters plus a
/// mutex for the cold phase bookkeeping.
#[derive(Debug, Default)]
struct StatsShared {
    counters: AtomicCounters,
    /// Nesting depth of [`IoStats::paused`] sections.
    paused: AtomicU32,
    /// The trace channel (internally synchronised; disabled = one atomic
    /// flag check per hook).
    tracer: Tracer,
    book: Mutex<StatsInner>,
}

/// Cheaply cloneable handle to a shared set of I/O counters.
///
/// Thread-safe (`Send + Sync`) and **lock-free on the hot path**: the
/// counters are per-field relaxed atomics, so worker threads of a parallel
/// sort charge into the same totals without ever contending on a lock.
/// Phases are tracked per thread (each thread has its own LIFO stack)
/// behind a mutex that is only taken at phase boundaries; under concurrency
/// a phase's delta includes I/Os charged by other threads while it was
/// open, so per-phase attribution is exact only for single-threaded
/// sections. Global counters are always exact; a [`IoStats::snapshot`]
/// taken while other threads are mid-charge may be skewed by the I/Os in
/// flight at that instant.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<StatsShared>,
}

impl IoStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, StatsInner> {
        self.inner.book.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The trace channel shared with the owning context.
    pub(crate) fn tracer(&self) -> Tracer {
        self.inner.tracer.clone()
    }

    /// Whether accounting is currently paused (oracle/verification scans).
    /// Trace point emission respects this too.
    #[inline]
    pub(crate) fn is_paused(&self) -> bool {
        self.inner.paused.load(Ordering::Relaxed) > 0
    }

    #[inline]
    pub(crate) fn record_read_block(&self, file: u64, block: u64, bytes: u64) {
        if self.is_paused() {
            return;
        }
        self.inner.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_read
            .fetch_add(bytes, Ordering::Relaxed);
        self.inner.tracer.note_access(IoOp::Read, file, block);
    }

    #[inline]
    pub(crate) fn record_write_block(&self, file: u64, block: u64, bytes: u64) {
        if self.is_paused() {
            return;
        }
        self.inner.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.inner
            .counters
            .bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        self.inner.tracer.note_access(IoOp::Write, file, block);
    }

    /// Charge one physical (device-level) block read. Called by the device
    /// layer on every actual transfer; a block-cache hit skips it.
    #[inline]
    pub(crate) fn record_physical_read(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .physical_reads
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one physical (device-level) block write. The cache is
    /// write-through, so every logical write is also physical.
    #[inline]
    pub(crate) fn record_physical_write(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .physical_writes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one buffer-pool hit (a logical read served without a device
    /// transfer).
    #[inline]
    pub(crate) fn record_cache_hit(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one buffer-pool miss (the lookup went to the device and the
    /// frame was populated).
    #[inline]
    pub(crate) fn record_cache_miss(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .cache_misses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one retried device attempt (see [`Counters::retries`]).
    #[inline]
    pub(crate) fn record_retry(&self) {
        if !self.is_paused() {
            self.inner.counters.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one checksum-verification failure.
    #[inline]
    pub(crate) fn record_corrupt_read(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .corrupt_reads
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one checkpoint-journal commit. Journal commits are metadata
    /// writes outside the block-I/O model, so `total_ios` is unaffected.
    #[inline]
    pub fn record_journal_write(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .journal_writes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge `n` block I/Os as *rework*: I/Os spent re-executing a work
    /// unit that a crash interrupted. Called by recoverable algorithms when
    /// a resumed run redoes its in-flight unit; the I/Os themselves are
    /// already in `reads`/`writes`. Emits a `work_unit_redo` trace point
    /// attributed to the innermost open span.
    #[inline]
    pub fn record_redone_ios(&self, n: u64) {
        if !self.is_paused() {
            self.inner
                .counters
                .redone_ios
                .fetch_add(n, Ordering::Relaxed);
            self.inner.tracer.point(PointKind::WorkUnitRedo { ios: n });
        }
    }

    /// Charge one strict-mode memory denial: a typed
    /// [`crate::EmError::MemoryExceeded`] handed back instead of a panic.
    #[inline]
    pub fn record_mem_denial(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .mem_denials
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge one governor budget squeeze (a shrink delivered through
    /// `EmContext::set_mem_budget`).
    #[inline]
    pub fn record_mem_reclaim(&self) {
        if !self.is_paused() {
            self.inner
                .counters
                .mem_reclaims
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge `n` key comparisons. Algorithms that want comparison counts
    /// (e.g. for checking the `Θ(N lg K)` internal-memory bound) call this.
    #[inline]
    pub fn record_comparisons(&self, n: u64) {
        if !self.is_paused() {
            self.inner
                .counters
                .comparisons
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Charge `n` synthetic block reads. Used by top-level entry points to
    /// account for consuming caller-supplied rank lists (see DESIGN.md,
    /// model-fidelity notes).
    pub fn charge_reads(&self, n: u64) {
        if !self.is_paused() {
            self.inner.counters.reads.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> Counters {
        self.inner.counters.load()
    }

    /// Reset all counters and phase records to zero. Debug-asserts that no
    /// phase is open — resetting mid-phase would misattribute the rest of
    /// that phase's I/Os.
    pub fn reset(&self) {
        let mut g = self.lock();
        debug_assert!(
            g.open_scope_names().is_empty(),
            "IoStats::reset inside an open phase ({:?})",
            g.open_scope_names()
        );
        self.inner.counters.zero();
        g.scope_stacks.clear();
        g.phase_totals.clear();
    }

    /// Run `f` without recording any I/O. Used for workload materialisation
    /// and verification scans that are not part of the algorithm under
    /// measurement. Pauses nest.
    pub fn paused<R>(&self, f: impl FnOnce() -> R) -> R {
        self.inner.paused.fetch_add(1, Ordering::Relaxed);
        let _guard = PauseGuard { stats: self };
        f()
    }

    /// Begin a named phase. Phases nest; each `end_phase` closes the most
    /// recent open phase and adds its delta to that phase's running total.
    /// Prefer [`IoStats::phase_guard`], which closes on early return and
    /// unwinding.
    pub fn begin_phase(&self, name: impl Into<String>) {
        self.push_scope(name.into(), true, None);
    }

    fn push_scope(&self, name: String, charge: bool, parent: Option<u64>) {
        let start = self.snapshot();
        let mut g = self.lock();
        // The tracer has its own interior state, independent of ours.
        let span = self.inner.tracer.span_open_under(&name, parent);
        g.stack().push(Scope {
            name,
            start,
            span,
            charge,
        });
    }

    /// Trace span id of the calling thread's innermost open phase, or 0 if
    /// none is open (or tracing is disabled). Capture this on a coordinating
    /// thread and pass it to [`IoStats::trace_span_under`] from workers so
    /// their spans nest under the coordinating phase.
    pub fn current_span_id(&self) -> u64 {
        self.lock().stack().last().map(|s| s.span).unwrap_or(0)
    }

    /// End the innermost open phase *of the calling thread*, returning its
    /// delta. Returns `None` if this thread has no phase open.
    pub fn end_phase(&self) -> Option<Counters> {
        let now = self.snapshot();
        let mut g = self.lock();
        let scope = g.stack().pop();
        let tid = std::thread::current().id();
        if g.scope_stacks.get(&tid).is_some_and(|s| s.is_empty()) {
            g.scope_stacks.remove(&tid);
        }
        let scope = scope?;
        let delta = now.since(&scope.start);
        if scope.charge {
            let slot = g.phase_totals.entry(scope.name).or_default();
            *slot = slot.plus(&delta);
        }
        self.inner.tracer.span_close(scope.span, &delta);
        Some(delta)
    }

    /// Begin a named phase and return a guard that ends it on drop — the
    /// `?`-safe form of [`IoStats::begin_phase`]: the phase closes (and its
    /// trace span stays balanced) on early return, error propagation, and
    /// unwinding.
    pub fn phase_guard(&self, name: impl Into<String>) -> SpanGuard<'_> {
        self.begin_phase(name);
        SpanGuard {
            stats: self,
            open: true,
        }
    }

    /// Open a *trace-only* span: it appears in the span tree with its exact
    /// counter delta but is **not** added to [`IoStats::phase_totals`], so
    /// fine-grained structure (work units, recursion levels) can be traced
    /// without double-counting the flat per-phase totals. The name closure
    /// is only invoked when tracing is enabled; when disabled the returned
    /// guard is inert and the cost is one flag check.
    pub fn trace_span(&self, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        self.trace_span_impl(None, name)
    }

    /// Like [`IoStats::trace_span`] but with an explicit parent span id
    /// (from [`IoStats::current_span_id`] on the coordinating thread). A
    /// `parent` of 0 falls back to automatic parent resolution. Use from
    /// worker threads so their spans attach under the phase that charges
    /// their I/O rather than whatever another thread has open.
    pub fn trace_span_under(&self, parent: u64, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        let parent = (parent != 0).then_some(parent);
        self.trace_span_impl(parent, name)
    }

    fn trace_span_impl(&self, parent: Option<u64>, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        if !self.inner.tracer.is_enabled() {
            return SpanGuard {
                stats: self,
                open: false,
            };
        }
        self.push_scope(name(), false, parent);
        SpanGuard {
            stats: self,
            open: true,
        }
    }

    /// Run `f` inside a named phase. The phase closes even if `f` panics.
    pub fn phase<R>(&self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let _guard = self.phase_guard(name);
        f()
    }

    /// Accumulated totals per phase name, in name order.
    pub fn phase_totals(&self) -> Vec<(String, Counters)> {
        self.lock()
            .phase_totals
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// RAII guard for an open span — a charged phase
/// ([`IoStats::phase_guard`]) or a trace-only span ([`IoStats::trace_span`],
/// inert while tracing is off). Dropping it ends the span.
#[must_use = "dropping the guard immediately ends the span"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    stats: &'a IoStats,
    open: bool,
}

impl SpanGuard<'_> {
    /// End the span now, returning its delta (`None` for an inert guard).
    pub fn end(mut self) -> Option<Counters> {
        if !std::mem::take(&mut self.open) {
            return None;
        }
        self.stats.end_phase()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.open {
            self.stats.end_phase();
        }
    }
}

struct PauseGuard<'a> {
    stats: &'a IoStats,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.stats.inner.paused.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_and_writes() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 128);
        s.record_read_block(0, 1, 128);
        s.record_write_block(0, 0, 64);
        let c = s.snapshot();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.total_ios(), 3);
        assert_eq!(c.bytes_read, 256);
        assert_eq!(c.bytes_written, 64);
    }

    #[test]
    fn since_diffs() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 0);
        let snap = s.snapshot();
        s.record_read_block(0, 1, 0);
        s.record_write_block(0, 0, 0);
        let d = s.snapshot().since(&snap);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn plus_saturates() {
        let a = Counters {
            reads: u64::MAX - 1,
            comparisons: u64::MAX,
            ..Counters::default()
        };
        let b = Counters {
            reads: 5,
            comparisons: 5,
            writes: 1,
            ..Counters::default()
        };
        let c = a.plus(&b);
        assert_eq!(c.reads, u64::MAX);
        assert_eq!(c.comparisons, u64::MAX);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn display_includes_bytes_and_fault_counters() {
        let c = Counters {
            reads: 2,
            writes: 1,
            bytes_read: 3 * 1024 * 1024,
            bytes_written: 512,
            ..Counters::default()
        };
        let s = c.to_string();
        assert_eq!(s, "3 I/Os (2 reads, 1 writes, 3.0 MiB read, 512 B written)");
        let c2 = Counters {
            retries: 4,
            journal_writes: 2,
            redone_ios: 9,
            ..c
        };
        let s2 = c2.to_string();
        assert!(s2.contains("4 retries"), "{s2}");
        assert!(s2.contains("2 journal commits"), "{s2}");
        assert!(s2.contains("9 redone I/Os"), "{s2}");
    }

    #[test]
    fn paused_suppresses_counting() {
        let s = IoStats::new();
        s.paused(|| {
            s.record_read_block(0, 0, 0);
            s.record_write_block(0, 0, 0);
            // nesting
            s.paused(|| s.record_read_block(0, 1, 0));
            s.record_read_block(0, 2, 0);
        });
        s.record_read_block(0, 3, 0);
        assert_eq!(s.snapshot().total_ios(), 1);
    }

    #[test]
    fn phases_accumulate() {
        let s = IoStats::new();
        s.phase("scan", || {
            s.record_read_block(0, 0, 0);
            s.record_read_block(0, 1, 0);
        });
        s.phase("scan", || s.record_read_block(0, 2, 0));
        s.phase("merge", || s.record_write_block(1, 0, 0));
        let totals = s.phase_totals();
        assert_eq!(totals.len(), 2);
        let scan = totals.iter().find(|(n, _)| n == "scan").unwrap();
        assert_eq!(scan.1.reads, 3);
        let merge = totals.iter().find(|(n, _)| n == "merge").unwrap();
        assert_eq!(merge.1.writes, 1);
    }

    #[test]
    fn nested_phases_charge_both() {
        let s = IoStats::new();
        s.begin_phase("outer");
        s.record_read_block(0, 0, 0);
        s.begin_phase("inner");
        s.record_read_block(0, 1, 0);
        let inner = s.end_phase().unwrap();
        let outer = s.end_phase().unwrap();
        assert_eq!(inner.reads, 1);
        assert_eq!(outer.reads, 2);
        assert!(s.end_phase().is_none());
    }

    #[test]
    fn phase_guard_closes_on_early_return() {
        let s = IoStats::new();
        let attempt = |fail: bool| -> Result<(), ()> {
            let _g = s.phase_guard("guarded");
            s.record_read_block(0, 0, 0);
            if fail {
                return Err(());
            }
            s.record_read_block(0, 1, 0);
            Ok(())
        };
        attempt(true).unwrap_err();
        attempt(false).unwrap();
        let totals = s.phase_totals();
        let g = totals.iter().find(|(n, _)| n == "guarded").unwrap();
        // Both attempts attributed, including the early-returning one.
        assert_eq!(g.1.reads, 3);
        assert!(s.end_phase().is_none(), "guards left no phase open");
    }

    #[test]
    fn phase_guard_end_returns_delta() {
        let s = IoStats::new();
        let g = s.phase_guard("p");
        s.record_write_block(0, 0, 0);
        let delta = g.end().unwrap();
        assert_eq!(delta.writes, 1);
    }

    #[test]
    fn trace_span_disabled_is_inert_and_charges_nothing() {
        let s = IoStats::new();
        {
            let _t = s.trace_span(|| unreachable!("name closure must not run when disabled"));
            s.record_read_block(0, 0, 0);
        }
        assert!(s.phase_totals().is_empty());
        assert_eq!(s.snapshot().reads, 1);
    }

    #[test]
    fn trace_span_does_not_pollute_phase_totals() {
        use crate::trace::RingSink;
        let s = IoStats::new();
        let ring = RingSink::new(0);
        s.tracer().install(Box::new(ring.clone()), 0, 0);
        {
            let _p = s.phase_guard("charged");
            let _t = s.trace_span(|| "unit/0".into());
            s.record_read_block(0, 0, 0);
        }
        s.tracer().finish();
        let totals = s.phase_totals();
        assert_eq!(totals.len(), 1, "only the charged phase has a total");
        assert_eq!(totals[0].0, "charged");
        // ...but both appear as spans in the trace.
        let names: Vec<String> = ring
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::SpanOpen { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["charged".to_string(), "unit/0".to_string()]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 8);
        s.phase("p", || s.record_write_block(0, 0, 8));
        s.reset();
        assert_eq!(s.snapshot(), Counters::default());
        assert!(s.phase_totals().is_empty());
    }

    #[test]
    fn retries_and_corrupt_reads_tracked() {
        let s = IoStats::new();
        s.record_retry();
        s.record_retry();
        s.record_corrupt_read();
        s.paused(|| {
            s.record_retry();
            s.record_corrupt_read();
        });
        let c = s.snapshot();
        assert_eq!(c.retries, 2);
        assert_eq!(c.corrupt_reads, 1);
        // Retries are not block I/Os.
        assert_eq!(c.total_ios(), 0);
    }

    #[test]
    fn journal_and_redo_counters_tracked() {
        let s = IoStats::new();
        s.record_journal_write();
        s.record_redone_ios(7);
        s.paused(|| {
            s.record_journal_write();
            s.record_redone_ios(5);
        });
        let c = s.snapshot();
        assert_eq!(c.journal_writes, 1);
        assert_eq!(c.redone_ios, 7);
        // Neither counter is a block transfer.
        assert_eq!(c.total_ios(), 0);
        let d = s.snapshot().since(&Counters::default());
        assert_eq!(d.journal_writes, 1);
        assert_eq!(d.redone_ios, 7);
    }

    #[test]
    fn comparisons_tracked() {
        let s = IoStats::new();
        s.record_comparisons(10);
        s.paused(|| s.record_comparisons(5));
        assert_eq!(s.snapshot().comparisons, 10);
    }

    #[test]
    fn physical_and_cache_counters_tracked() {
        let s = IoStats::new();
        s.record_read_block(0, 0, 0);
        s.record_physical_read();
        s.record_cache_miss();
        s.record_read_block(0, 0, 0);
        s.record_cache_hit();
        s.record_write_block(0, 1, 0);
        s.record_physical_write();
        let c = s.snapshot();
        assert_eq!(c.logical_ios(), c.total_ios());
        assert_eq!(c.logical_ios(), 3);
        assert_eq!(c.physical_ios(), 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert!((c.cache_hit_rate() - 0.5).abs() < 1e-12);
        // Cache counters never feed the model-charged totals.
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn cache_hit_rate_zero_when_disengaged() {
        let c = Counters::default();
        assert_eq!(c.cache_hit_rate(), 0.0);
    }

    #[test]
    fn counters_shared_across_threads() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        s.record_read_block(t, i, 8);
                        s.record_comparisons(2);
                    }
                });
            }
        });
        let c = s.snapshot();
        assert_eq!(c.reads, 1000);
        assert_eq!(c.comparisons, 2000);
        assert_eq!(c.bytes_read, 8000);
    }

    #[test]
    fn phase_stacks_are_per_thread() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    let _g = s.phase_guard("worker");
                    s.record_read_block(0, 0, 0);
                    // Nested phases stay LIFO within this thread even while
                    // other threads open/close their own.
                    s.phase("inner", || {
                        s.record_write_block(0, 0, 0);
                    });
                });
            }
        });
        // All scopes closed; totals conserve the global counters.
        assert!(s.end_phase().is_none());
        let c = s.snapshot();
        assert_eq!(c.reads, 4);
        assert_eq!(c.writes, 4);
    }

    #[test]
    fn iostats_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoStats>();
        assert_send_sync::<Counters>();
    }
}
