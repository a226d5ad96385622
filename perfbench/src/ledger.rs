//! Operation accounting, samples and spans for one run.

use std::collections::BTreeMap;
use std::sync::Arc;

use emcore::{EmContext, Result};

use crate::spans::Recorder;

/// Samples of one kind of iteration, by metric name.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Everything a run accumulates.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (every call into the system and every query).
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Samples from untraced iterations.
    pub plain: Samples,
    /// Samples from traced iterations.
    pub traced: Samples,
    /// The run's spans.
    pub rec: Arc<Recorder>,
    /// Seconds of each host probe (see `host`).
    pub host_s: Vec<f64>,
}

impl Ledger {
    /// Count `attempted` operations of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: {failed} of {attempted} {what} operations failed");
        }
    }

    /// Start an iteration; `traced` switches span recording on for it.
    pub fn iter(&mut self, traced: bool) -> Iter<'_> {
        self.rec.set_on(traced);
        Iter {
            ledger: self,
            traced,
            parent: None,
        }
    }
}

/// One iteration's view of the ledger.
pub struct Iter<'a> {
    pub ledger: &'a mut Ledger,
    pub traced: bool,
    /// The span the iteration's calls are recorded under.
    pub parent: Option<u64>,
}

impl Iter<'_> {
    /// Add a sample to this iteration's kind.
    pub fn sample(&mut self, name: impl Into<String>, v: f64) {
        let map = if self.traced {
            &mut self.ledger.traced
        } else {
            &mut self.ledger.plain
        };
        map.entry(name.into()).or_default().push(v);
    }

    /// The latest sample of `name` in this iteration's kind (0 if none).
    pub fn last(&self, name: &str) -> f64 {
        let map = if self.traced {
            &self.ledger.traced
        } else {
            &self.ledger.plain
        };
        map.get(name).and_then(|v| v.last().copied()).unwrap_or(0.0)
    }

    /// Check an answer of an operation already counted, timed under a
    /// `bench.verify` span; a wrong answer counts as a failure.
    pub fn check(&mut self, what: &str, ok: impl FnOnce() -> bool) {
        let (ok, _) = self.ledger.rec.time("bench.verify", self.parent, |_| ok());
        if !ok {
            self.ledger.failed += 1;
            eprintln!("perfbench: wrong answer from {what}");
        }
    }

    fn call<T>(
        &mut self,
        ctx: &EmContext,
        what: &str,
        span: &'static str,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<(T, f64, emcore::Counters)> {
        self.ledger.attempted += 1;
        let before = ctx.stats().snapshot();
        let (r, secs) = self.ledger.rec.time(span, self.parent, |_| f());
        let io = ctx.stats().snapshot().since(&before);
        match r {
            Ok(v) => Some((v, secs, io)),
            Err(e) => {
                self.ledger.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// A user-facing operation on `ctx`: records `<key>_s`, `<key>_ios`
    /// (logical) and `<key>_physical_ios`. Returns the result, or `None`
    /// after counting a failure.
    pub fn op<T>(
        &mut self,
        ctx: &EmContext,
        key: &str,
        span: &'static str,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        let (v, secs, io) = self.call(ctx, key, span, f)?;
        self.sample(format!("{key}_s"), secs);
        self.sample(format!("{key}_ios"), io.logical_ios() as f64);
        self.sample(format!("{key}_physical_ios"), io.physical_ios() as f64);
        Some(v)
    }

    /// A single-layer call: records its wall time under `metric`.
    pub fn layer<T>(
        &mut self,
        ctx: &EmContext,
        metric: &'static str,
        span: &'static str,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        let (v, secs, _) = self.call(ctx, metric, span, f)?;
        self.sample(metric, secs);
        Some(v)
    }
}
