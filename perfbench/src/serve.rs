//! The serve family: windows of single-rank queries against an
//! `emserve::Router` over `SHARDS` shards, offered open-loop at a fixed
//! rate or closed-loop with a fixed number in flight.
//!
//! One sender thread submits the queries; one collector thread waits for
//! the answers in submission order. Open loop, query `i` is due at
//! `t0 + i/rate` and latency runs from that intended send time, so a
//! sender stalled inside `rank()` (admission control blocks on a full
//! queue) charges the stall to every query it delays. Closed loop, the
//! sender blocks once it is a fixed number of tickets ahead of the
//! collector, and the window's queries over its length is the rate the
//! fleet sustains. A query finishing before an earlier one is observed
//! when the earlier one is, so the reported latency is an upper bound.
//! The served data is a permutation of `0..N`, so the exact answer for
//! rank `r` is `r − 1`.
//!
//! The fleet lives on the memory backend in every workload. On the
//! directory backend each index refinement commits a journal with
//! `fsync`, and on a shared disk (ext4 with online discard) those commits
//! ranged from under a millisecond to over 100 ms from one run to the
//! next, moving serve latency by 30–50% between identical runs.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use emcore::{EmContext, Result, SplitMix64};
use emserve::{QueryService, Router, ServeReport, ServiceTicket};

use crate::shape::{serve_options, Shape, HOT_RANKS, SHARDS, TAIL_SHARE, ZIPF_S};
use crate::spans::Recorder;

const DATASET: &str = "ds";

/// Ranks asked per warm-up query.
const WARM_BATCH: usize = 256;

/// A running fleet with its dataset registered and its index warm.
pub struct ServeSet {
    router: Router<u64>,
    router_ctx: EmContext,
    shards: Vec<EmContext>,
    /// The query mix, cycled through by successive windows.
    stream: Vec<u64>,
    next: usize,
    next_req: u64,
}

/// What one open-loop window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Client latency from the intended send time, ms.
    pub lat_ms: Vec<f64>,
    /// Time the sender spent inside `rank()`, ms.
    pub submit_ms: Vec<f64>,
    /// How late the sender started each send against the schedule, ms.
    pub late_ms: Vec<f64>,
    /// From the first intended send to the last answer, s.
    pub secs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Fleet counters over the window.
    pub report: ServeReport,
    pub logical_ios: u64,
    pub physical_ios: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

/// How a window offers its queries.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: query `i` is due at `t0 + i/rate`, however the fleet
    /// keeps up.
    Rate(f64),
    /// Closed loop: a query is sent as soon as the sender is fewer than
    /// this many tickets ahead of the collector.
    Ahead(usize),
}

/// The hot ranks of the query mix (the Zipf stream's support).
fn hot_ranks(n: u64, seed: u64) -> Vec<u64> {
    // With s = 0 the stream is uniform over the same hot set; enough
    // draws see every member.
    let mut hot = workloads::zipf_query_ranks(n, HOT_RANKS, 0.0, 16 * HOT_RANKS as usize, seed);
    hot.sort_unstable();
    hot.dedup();
    hot
}

/// `len` query ranks: Zipf over the hot ranks, with a `TAIL_SHARE` of
/// uniformly random ranks.
fn query_stream(n: u64, seed: u64, len: usize) -> Vec<u64> {
    let hot = workloads::zipf_query_ranks(n, HOT_RANKS, ZIPF_S, len, seed);
    let mut rng = SplitMix64::new(seed ^ 0x7a11);
    hot.into_iter()
        .map(|r| {
            if rng.unit() < TAIL_SHARE {
                1 + rng.below(n)
            } else {
                r
            }
        })
        .collect()
}

fn counters(ctxs: &[EmContext]) -> emcore::Counters {
    ctxs.iter().fold(emcore::Counters::default(), |acc, c| {
        acc.plus(&c.stats().snapshot())
    })
}

fn evictions(ctxs: &[EmContext]) -> u64 {
    ctxs.iter().map(|c| c.cache().evictions()).sum()
}

impl ServeSet {
    /// Start the fleet (memory backend, `shape`'s block cache), register
    /// `data` (a permutation of `0..n`) and warm the index with every hot
    /// rank.
    pub fn setup(shape: &Shape, data: Vec<u64>, seed: u64) -> Result<Self> {
        let n = data.len() as u64;
        let (router_ctx, shards) = emserve::shard_fleet_in_memory(shape.serve_config(), SHARDS);
        let router = Router::<u64>::start(&router_ctx, &shards, serve_options())?;
        router.register(DATASET, data)?;
        let hot = hot_ranks(n, seed);
        let tickets = router.rank_batch(
            DATASET,
            hot.chunks(WARM_BATCH).map(<[u64]>::to_vec).collect(),
        )?;
        for (chunk, t) in hot.chunks(WARM_BATCH).zip(tickets) {
            let a = t.wait()?;
            if a.approx || a.values.iter().zip(chunk).any(|(&v, &r)| v != r - 1) {
                return Err(emcore::EmError::config("warm-up answered wrongly"));
            }
        }
        Ok(ServeSet {
            router,
            router_ctx,
            shards,
            stream: query_stream(n, seed, 1 << 18),
            next: 0,
            next_req: 1,
        })
    }

    fn all_ctxs(&self) -> Vec<EmContext> {
        let mut v = self.shards.clone();
        v.push(self.router_ctx.clone());
        v
    }

    /// The router's context, whose metrics registry the shards share.
    pub fn router_ctx(&self) -> &EmContext {
        &self.router_ctx
    }

    /// Offer `count` queries under `load` and audit every answer.
    pub fn window(
        &mut self,
        load: Load,
        count: usize,
        rec: &Recorder,
        parent: Option<u64>,
    ) -> Window {
        let ctxs = self.all_ctxs();
        let (io0, ev0) = (counters(&ctxs), evictions(&ctxs));
        let rep0 = QueryService::<u64>::stats(&self.router).unwrap_or_default();
        let ranks: Vec<u64> = (0..count)
            .map(|i| self.stream[(self.next + i) % self.stream.len()])
            .collect();
        self.next = (self.next + count) % self.stream.len();
        let req0 = self.next_req;
        self.next_req += count as u64;

        type Msg = (u64, Instant, Instant, u64, Result<ServiceTicket<u64>>);
        // Open loop: the channel never fills, so the sender keeps its
        // schedule. Closed loop: the sender blocks once it is `ahead`
        // tickets ahead of the collector.
        let (tx, rx) = mpsc::sync_channel::<Msg>(match load {
            Load::Rate(_) => count,
            Load::Ahead(ahead) => ahead,
        });
        let router = &self.router;
        let mut w = Window::default();
        let t0 = Instant::now() + Duration::from_millis(1);
        let (lat_ms, failed, last_done) = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut lat = Vec::with_capacity(count);
                let mut failed = 0u64;
                let mut last_done = t0;
                for (req, due, sent, rank, ticket) in rx {
                    let answer = ticket.and_then(ServiceTicket::wait);
                    let done = Instant::now();
                    rec.record("emserve.wait", parent, req, sent, done);
                    last_done = done;
                    let ok = match answer {
                        Ok(a) => !a.approx && a.values == [rank - 1],
                        Err(e) => {
                            eprintln!("perfbench: query for rank {rank} failed: {e}");
                            false
                        }
                    };
                    // A failed or refused query misses every latency limit.
                    lat.push(if ok {
                        (done - due).as_secs_f64() * 1e3
                    } else {
                        failed += 1;
                        f64::INFINITY
                    });
                }
                (lat, failed, last_done)
            });
            for (i, &rank) in ranks.iter().enumerate() {
                let now = Instant::now();
                let due = match load {
                    Load::Rate(rate) => t0 + Duration::from_secs_f64(i as f64 / rate),
                    Load::Ahead(_) => now.max(t0),
                };
                if due > now {
                    std::thread::sleep(due - now);
                }
                let send = Instant::now();
                let ticket = router.rank(DATASET, vec![rank]);
                let sent = Instant::now();
                let req = req0 + i as u64;
                rec.record("emserve.rank", parent, req, send, sent);
                w.late_ms.push((send - due).as_secs_f64() * 1e3);
                w.submit_ms.push((sent - send).as_secs_f64() * 1e3);
                tx.send((req, due, sent, rank, ticket))
                    .expect("the collector outlives the sender");
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        w.lat_ms = lat_ms;
        w.failed = failed;
        w.attempted = count as u64;
        w.secs = last_done.saturating_duration_since(t0).as_secs_f64();
        let rep1 = QueryService::<u64>::stats(&self.router).unwrap_or_default();
        w.report = report_delta(&rep1, &rep0);
        let io = counters(&ctxs).since(&io0);
        w.logical_ios = io.logical_ios();
        w.physical_ios = io.physical_ios();
        w.cache_hits = io.cache_hits;
        w.cache_misses = io.cache_misses;
        w.cache_evictions = evictions(&ctxs) - ev0;
        w
    }

    /// Shut the fleet down.
    pub fn teardown(mut self) -> Result<()> {
        self.router.shutdown()?;
        Ok(())
    }
}

fn report_delta(now: &ServeReport, then: &ServeReport) -> ServeReport {
    ServeReport {
        queries: now.queries - then.queries,
        batches: now.batches - then.batches,
        index_hits: now.index_hits - then.index_hits,
        selected: now.selected - then.selected,
        answer_us: now.answer_us - then.answer_us,
        failed: now.failed - then.failed,
        ..ServeReport::default()
    }
}
