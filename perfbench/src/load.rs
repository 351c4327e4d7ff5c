//! Open-loop load: seeded arrival schedules, the reader loop that serves
//! them through one `InferenceContext` per thread, and the churn writer
//! that mutates the world and calls `publish_delta` beside the readers.

use crate::trace::Tracer;
use gaia_core::trainer::Prediction;
use gaia_core::GraphForecaster;
use gaia_graph::{dirty_closure, extract_ego_into, EgoScratch};
use gaia_serving::{InferenceContext, ModelServer, ShardedModelServer};
use gaia_synth::{node_row_unchanged, refresh_dataset, MonthlySales, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most overdue requests one reader drains into a single `predict_batch`.
pub const MICRO_BATCH: usize = 8;

/// How long past a rung's end a reader keeps draining its backlog; what is
/// still queued then is counted as unserved (a missed request).
const DRAIN_S: f64 = 0.25;

/// Shop popularity: Zipf over a seeded permutation of the shop ids, or
/// uniform. The vendored `rand` only samples uniformly, so the Zipf draw
/// inverts a precomputed CDF.
pub struct Popularity {
    n: usize,
    /// Cumulative Zipf weights by rank; empty for uniform popularity.
    cdf: Vec<f64>,
    /// `perm[rank]` is the shop at that popularity rank.
    perm: Vec<u32>,
}

impl Popularity {
    pub fn zipf(n: usize, exponent: f64, rng: &mut StdRng) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-exponent);
                acc
            })
            .collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        Self { n, cdf, perm }
    }

    pub fn uniform(n: usize) -> Self {
        Self { n, cdf: Vec::new(), perm: Vec::new() }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        match self.cdf.last() {
            None => rng.gen_range(0..self.n) as u32,
            Some(&total) => {
                let u = rng.gen::<f64>() * total;
                let rank = self.cdf.partition_point(|&c| c <= u).min(self.n - 1);
                self.perm[rank]
            }
        }
    }
}

/// One open-loop request: due `due` seconds after the rung starts.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub due: f64,
    pub shop: u32,
    pub id: u64,
}

/// Poisson arrivals at `rate` per second for `secs` seconds (exponential
/// inter-arrival gaps), in due order.
pub fn schedule(
    rate: f64,
    secs: f64,
    pop: &Popularity,
    rng: &mut StdRng,
    first_id: u64,
) -> Vec<Req> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            return out;
        }
        let id = first_id + out.len() as u64;
        out.push(Req { due: t, shop: pop.sample(rng), id });
    }
}

/// Block until `due` seconds after `start`. Sleeping, not spinning: with
/// as many load threads as cores, a spinning thread leaves no core for the
/// rest of the system, and whatever else runs then preempts a reader. The
/// wake-up lateness this costs is reported as `serving.gen_late_p99_ms`.
pub fn wait_until(start: Instant, due: f64) {
    let target = start + Duration::from_secs_f64(due.max(0.0));
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// True when every value is finite and the prediction is for `shop`.
pub fn prediction_ok(pred: &Prediction, shop: usize) -> bool {
    pred.node == shop
        && !pred.model_space.is_empty()
        && pred.model_space.iter().all(|v| v.is_finite())
        && pred.currency.iter().all(|v| v.is_finite())
}

/// One rung for one reader. The readers of a rung share one arrival
/// schedule and claim overdue requests from it through `next`, so a stall
/// of one core (the host descheduling it) delays only the requests that
/// reader already claimed; the other keeps serving.
pub struct RungCmd {
    pub start: Instant,
    pub reqs: Arc<Vec<Req>>,
    /// Index of the first request no reader has claimed yet.
    pub next: Arc<AtomicUsize>,
    /// Rung length in seconds; arrivals stop here, draining stops
    /// `DRAIN_S` later.
    pub end: f64,
    pub trace: bool,
    /// Keep every request whose id is a multiple of this for the parity
    /// check.
    pub sample_every: u64,
}

/// A served response kept for the parity check, with the world revision of
/// the snapshot that served it.
pub struct Sample {
    pub shop: u32,
    pub model_space: Vec<f32>,
    pub rev: u64,
}

/// What one reader measured in one rung. Times are seconds.
#[derive(Default)]
pub struct RungOut {
    /// Per served request: due → prediction returned.
    pub latency: Vec<f64>,
    /// Per served request: due → its `predict_batch` started.
    pub queue_wait: Vec<f64>,
    /// Per served request: its `predict_batch` started → returned.
    pub service: Vec<f64>,
    /// Per idle wake-up: how late the reader woke for the next due request.
    pub gen_late: Vec<f64>,
    pub batches: usize,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub samples: Vec<Sample>,
    /// `(finish time, snapshot epoch)` at the first batch and whenever the
    /// epoch served from changes.
    pub epochs: Vec<(f64, u64)>,
    /// Epoch changes seen (snapshot reinstalls).
    pub reinstalls: usize,
    pub fresh_allocs: usize,
}

impl RungOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// A reader thread: one `InferenceContext`, warmed on `warm` (an empty
/// `RungOut` reports it ready), then one rung per command until the
/// channel closes. Returns its spans.
pub fn reader(
    server: &ModelServer,
    warm: &[usize],
    cmds: Receiver<RungCmd>,
    outs: Sender<RungOut>,
    mut tr: Tracer,
    serve_seed: u64,
) -> Vec<crate::trace::Span> {
    let open = tr.open();
    let mut ctx = server.inference_context();
    tr.close(open, "serving.inference_context", 0, 0, 1);
    // Warm the tape pool for every micro-batch size before any timing.
    let mut at = 0;
    for size in (1..=MICRO_BATCH).cycle().take(warm.len() / 4) {
        let end = (at + size).min(warm.len());
        black_box(ctx.predict_batch(&warm[at..end]));
        at = if end == warm.len() { 0 } else { end };
    }
    if outs.send(RungOut::default()).is_err() {
        return tr.take();
    }
    let mut state = ReaderState { last_rev: 0, last_epoch: None, ego: EgoScratch::new() };
    while let Ok(cmd) = cmds.recv() {
        let out = run_rung(&mut ctx, server, &cmd, &mut state, &mut tr, serve_seed);
        if outs.send(out).is_err() {
            break;
        }
    }
    tr.take()
}

struct ReaderState {
    last_rev: u64,
    last_epoch: Option<u64>,
    ego: EgoScratch,
}

fn run_rung(
    ctx: &mut InferenceContext<'_>,
    server: &ModelServer,
    cmd: &RungCmd,
    st: &mut ReaderState,
    tr: &mut Tracer,
    serve_seed: u64,
) -> RungOut {
    let reqs = &cmd.reqs;
    let mut out = RungOut::default();
    tr.set_on(cmd.trace);
    let allocs_before = ctx.tape_fresh_allocs();
    // The ego replay reads the graph and ego shape of the snapshot current
    // at rung start; only its duration is used.
    let snap = if cmd.trace { Some(server.snapshot()) } else { None };
    let start = cmd.start;
    let now = || start.elapsed().as_secs_f64();
    let mut batch: Vec<usize> = Vec::with_capacity(MICRO_BATCH);
    wait_until(start, 0.0);
    loop {
        let i = cmd.next.load(Ordering::Acquire);
        if i >= reqs.len() {
            break;
        }
        let t = now();
        if t > cmd.end + DRAIN_S {
            break;
        }
        if reqs[i].due > t {
            wait_until(start, reqs[i].due);
            out.gen_late.push(now() - reqs[i].due);
            continue;
        }
        let mut j = i + 1;
        while j < reqs.len() && j - i < MICRO_BATCH && reqs[j].due <= t {
            j += 1;
        }
        if cmd.next.compare_exchange(i, j, Ordering::AcqRel, Ordering::Acquire).is_err() {
            continue;
        }
        batch.clear();
        batch.extend(reqs[i..j].iter().map(|r| r.shop as usize));
        let first_id = reqs[i].id;

        let req_span = tr.open();
        let rev = ctx.world_rev();
        let prev_rev = st.last_rev;
        st.last_rev = prev_rev.max(rev);
        let epoch_before = ctx.snapshot_epoch();
        let predict_span = tr.open();
        let t0 = now();
        let preds = ctx.predict_batch(&batch);
        let t1 = now();
        tr.close(predict_span, "core.predict_batch", req_span.id, first_id, batch.len() as u64);
        let epoch = ctx.snapshot_epoch();
        if st.last_epoch != Some(epoch) {
            if st.last_epoch.is_some() {
                out.reinstalls += 1;
            }
            out.epochs.push((t1, epoch));
            st.last_epoch = Some(epoch);
        }
        if let Some(snap) = &snap {
            // Replayed after the call: ego extraction for the same centres
            // with the same per-centre seeds the request path uses.
            let ego_span = tr.open();
            let ego_cfg = snap.model.ego_config();
            for &shop in &batch {
                let mut rng = StdRng::seed_from_u64(splitmix(serve_seed, shop as u64));
                black_box(extract_ego_into(&snap.graph, shop, &ego_cfg, &mut rng, &mut st.ego));
            }
            tr.close_replayed(ego_span, "graph.extract_ego", predict_span.id, batch.len() as u64);
        }

        out.batches += 1;
        out.check(rev >= prev_rev, || format!("world_rev went backwards: {rev} < {prev_rev}"));
        out.check(preds.len() == batch.len(), || {
            format!("predict_batch returned {} for {} requests", preds.len(), batch.len())
        });
        for (req, pred) in reqs[i..j].iter().zip(&preds) {
            out.check(prediction_ok(pred, req.shop as usize), || {
                format!("request {} for shop {}: bad prediction {pred:?}", req.id, req.shop)
            });
            out.latency.push(t1 - req.due);
            out.queue_wait.push(t0 - req.due);
            out.service.push(t1 - t0);
            if req.id % cmd.sample_every == 0 && epoch == epoch_before {
                out.samples.push(Sample {
                    shop: req.shop,
                    model_space: pred.model_space.clone(),
                    rev,
                });
            }
        }
        tr.close(req_span, "bench.request", 0, first_id, batch.len() as u64);
    }
    out.fresh_allocs = ctx.tape_fresh_allocs() - allocs_before;
    out
}

/// Splitmix-style mix of a seed with a stream or node id. It is the
/// request path's per-centre ego-sampling seed (so the replay samples the
/// same egos) and derives the benchmark's independent seeded streams.
pub fn splitmix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One churn phase for the writer.
pub struct ChurnCmd {
    pub start: Instant,
    pub end: f64,
    pub period: f64,
    pub fraction: f64,
    pub trace: bool,
}

/// One churn event: a fresh seeded mutation and its `publish_delta`.
#[derive(Clone, Debug)]
pub struct ChurnEvent {
    /// Seconds after the rung start at which the mutation was applied.
    pub applied: f64,
    /// Snapshot epoch that first includes the mutation.
    pub epoch: u64,
    pub publish_s: f64,
}

/// What the writer did in one churn phase, with its publish checks.
#[derive(Default)]
pub struct ChurnOut {
    pub events: Vec<ChurnEvent>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// The writer thread: owns the world, applies a fresh seeded mutation of
/// `fraction` of the shops every `period` seconds and republishes it to the
/// whole fleet with `ShardedModelServer::publish_delta` (the master's
/// `ModelServer::publish_delta`, then a reslice of the shards it touched),
/// until the channel closes. Returns its spans.
pub fn writer(
    fleet: &ShardedModelServer,
    mut world: World,
    seed: u64,
    cmds: Receiver<ChurnCmd>,
    outs: Sender<ChurnOut>,
    mut tr: Tracer,
) -> Vec<crate::trace::Span> {
    let mut rng = StdRng::seed_from_u64(seed);
    let months = world.config.horizon + 2;
    while let Ok(cmd) = cmds.recv() {
        tr.set_on(cmd.trace);
        let mut out = ChurnOut::default();
        let n = world.shops.len();
        let count = ((n as f64 * cmd.fraction).round() as usize).max(1);
        let mut due = cmd.period / 2.0;
        while due < cmd.end {
            wait_until(cmd.start, due);
            due += cmd.period;
            let mutate = tr.open();
            for _ in 0..count {
                let shop = rng.gen_range(0..n) as u32;
                // Deep enough to reach from the target horizon back into
                // the input window, so every mutated row changes.
                let window: Vec<MonthlySales> = (0..months)
                    .map(|_| MonthlySales {
                        gmv: rng.gen_range(5_000.0..2_000_000.0),
                        orders: rng.gen_range(10.0..5_000.0),
                        customers: rng.gen_range(5.0..2_000.0),
                    })
                    .collect();
                world.record_sales(shop, &window);
            }
            let dirty = world.take_dirty();
            tr.close(mutate, "synth.record_sales", 0, 0, dirty.len() as u64);
            let applied = cmd.start.elapsed().as_secs_f64();
            let prev = if cmd.trace { Some(fleet.master().snapshot()) } else { None };
            let publish = tr.open();
            let t0 = Instant::now();
            let stats = fleet.publish_delta(&world, &dirty);
            let publish_s = t0.elapsed().as_secs_f64();
            tr.close(publish, "serving.publish_delta", 0, 0, stats.recomputed_nodes as u64);
            let epoch = fleet.master().publishes();
            out.attempted += 1;
            if stats.recomputed_nodes != stats.dirty_nodes || stats.dirty_nodes != dirty.len() {
                out.failed += 1;
                out.notes.push(format!(
                    "publish_delta recomputed {} nodes for {} dirty ({} marked)",
                    stats.recomputed_nodes,
                    stats.dirty_nodes,
                    dirty.len()
                ));
            }
            if let Some(prev) = prev {
                // Replay the public sub-calls of publish_delta on the same
                // inputs, to split its time by layer.
                let o = tr.open();
                let ds = refresh_dataset(&world, &prev.ds, dirty.nodes());
                tr.close_replayed(o, "synth.refresh_dataset", publish.id, dirty.len() as u64);
                let o = tr.open();
                let hops = prev.model.ego_config().hops;
                let closure = dirty_closure(&world.graph, dirty.nodes(), hops);
                tr.close_replayed(o, "graph.dirty_closure", publish.id, closure.len() as u64);
                let recompute: Vec<u32> = closure
                    .iter()
                    .copied()
                    .filter(|&v| {
                        (v as usize) < prev.ds.n && !node_row_unchanged(&ds, &prev.ds, v as usize)
                    })
                    .collect();
                let o = tr.open();
                black_box(prev.model.precompute_embeddings_delta(
                    &ds,
                    &prev.embeddings,
                    &recompute,
                ));
                tr.close_replayed(
                    o,
                    "core.precompute_embeddings_delta",
                    publish.id,
                    recompute.len() as u64,
                );
            }
            out.events.push(ChurnEvent { applied, epoch, publish_s });
        }
        if outs.send(out).is_err() {
            break;
        }
    }
    tr.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks_and_schedule_keeps_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = Popularity::zipf(1000, 1.0, &mut rng);
        let top = pop.perm[0];
        let hits = (0..10_000).filter(|_| pop.sample(&mut rng) == top).count();
        // Rank 1 of Zipf(1) over 1000 items has weight 1/H_1000 ≈ 0.134.
        assert!((1000..1700).contains(&hits), "{hits}");

        let reqs = schedule(10_000.0, 1.0, &pop, &mut rng, 7);
        assert!((9_500..10_500).contains(&reqs.len()), "{}", reqs.len());
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due && w[1].id == w[0].id + 1));
        assert!(reqs.iter().all(|r| r.due < 1.0 && (r.shop as usize) < 1000));
    }
}
