//! The repository benchmark: one command that runs a workload end to end,
//! checks every output, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs the same scenario on its own inputs (see
//! `perfbench/README.md` for why each exists and what each metric means):
//!
//! 1. set-up (`setup_s`), three times: derive the model configuration and,
//!    on `serve-zipf`, train the serving artifact with `OfflinePipeline` on
//!    a small world of the same family;
//! 2. cold boot to the first prediction (`ttfp_s`);
//! 3. a sweep scoring every shop once through `serve_sharded` (`score_rps`,
//!    `holdout_mape`), repeated during the open loop;
//! 4. open-loop serving in rounds: reference-rate rungs (`serve_p50_ms`,
//!    `serve_p99_ms`), rungs beside a churn writer calling `publish_delta`
//!    (`republish_ms`, `staleness_ms`) and a search over offered rates
//!    (`serve_goodput_rps`).
//!
//! `--trace 1` runs the same scenario with spans recorded around the calls
//! into each crate and prints the per-layer metrics instead; the spans are
//! written to `perfbench/out/`.

mod load;
mod trace;

use gaia_core::trainer::{Prediction, TrainConfig};
use gaia_core::GaiaConfig;
use gaia_graph::EgoConfig;
use gaia_serving::{ModelArtifact, ModelServer, OfflinePipeline, ShardedModelServer};
use gaia_synth::{build_dataset, World, WorldConfig};
use load::{
    prediction_ok, splitmix, ChurnCmd, ChurnEvent, ChurnOut, Popularity, RungCmd, RungOut,
    MICRO_BATCH,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use trace::{Span, Tracer};

/// Shops in the serving world of `serve-zipf`.
const SERVE_SHOPS: usize = 100_000;
/// Shops in the `pipeline` workload's world (trained inside the timed path).
const PIPELINE_SHOPS: usize = 20_000;
/// Shops in the small world the set-up trains the serving artifact on.
const ARTIFACT_SHOPS: usize = 10_000;
/// World seeds. The world configurations are part of a workload's
/// definition, fixed across `--seed`: the seed drives the load (arrival
/// times, requested shops, churn mutations, sampled checks). The worlds
/// themselves still differ from one generation to the next while
/// `World::generate` is not a function of its seed (README.md, "Known
/// defects").
const ARTIFACT_WORLD_SEED: u64 = 1_001;
const SERVE_WORLD_SEED: u64 = 2_002;
/// Set-up repetitions; `setup_s` is their median. The benchmark contract
/// asks for several set-ups in a run, so one slow set-up cannot move it.
const SETUP_REPS: usize = 3;
/// Cold-path repetitions; `ttfp_s` is their median.
const COLD_REPS: usize = 3;
/// Full sweeps over every shop: one before serving, then one every
/// `SWEEP_EVERY` rounds; `score_rps` is their median. A sweep scores every
/// shop in turn until it has made at least `SWEEP_REQUESTS` predictions,
/// so a small world's sweep is long enough to time.
const SWEEP_EVERY: usize = 3;
const SWEEP_REQUESTS: usize = 100_000;
const SHARDS: usize = 2;
/// Ego-sampling seed of the servers.
const SERVE_SEED: u64 = 42;
/// Model-initialisation seed of every training run.
const MODEL_SEED: u64 = 7;
/// Zipf exponent of shop popularity on `serve-zipf`.
const ZIPF_EXPONENT: f64 = 1.0;
/// The p99 latency limit that defines goodput, in seconds.
const LATENCY_LIMIT_S: f64 = 0.020;
/// Offered rate (requests/s) at which `serve_p50_ms`/`serve_p99_ms` and
/// the churn metrics are taken.
const REF_RATE: f64 = 8_000.0;
/// Coarse offered-rate ladder (requests/s), climbed until a rate misses
/// the limit; a staircase of `STAIR_STEPS` rungs then homes in on the
/// knee inside that bracket, and the goodput is the median rate of its
/// last `STAIR_KEPT` rungs.
const LADDER: [f64; 7] = [4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0];
const STAIR_STEPS: usize = 10;
const STAIR_KEPT: usize = 6;
/// The reference-rate, churn and sweep samples are taken in this many
/// rounds spread over the run, with this many goodput-search steps after
/// each.
const ROUNDS: usize = 12;
const SEARCH_STEPS_PER_ROUND: usize = 2;
/// Shares of `--seconds` given to the open-loop rungs: the warm-up rung,
/// all reference rounds together, all churn rounds together, and each
/// coarse and staircase search rung.
const WARM_SHARE: f64 = 0.03;
const REF_SHARE: f64 = 0.35;
const CHURN_SHARE: f64 = 0.25;
const COARSE_SHARE: f64 = 0.03;
const STAIR_SHARE: f64 = 0.03;
/// Share of shops each churn event mutates, and the time between events.
const CHURN_FRACTION: f64 = 0.01;
const CHURN_PERIOD_S: f64 = 0.3;
/// Shortest `--seconds` whose churn rounds still hold a churn event.
const MIN_SECONDS: f64 = 10.0;
/// Open-loop responses kept for the parity check: one request id in this
/// many.
const SAMPLE_EVERY: u64 = 61;
/// Sweep predictions re-checked against `ModelServer::predict_one`.
const PARITY_SAMPLES: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    ServeZipf,
    Pipeline,
}

impl Kind {
    const ALL: [Kind; 2] = [Kind::ServeZipf, Kind::Pipeline];

    fn name(self) -> &'static str {
        match self {
            Kind::ServeZipf => "serve-zipf",
            Kind::Pipeline => "pipeline",
        }
    }
}

#[derive(Clone, Debug)]
struct Plan {
    kind: Kind,
    shops: usize,
    artifact_shops: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Affinity-aware core count: training threads and open-loop threads.
    cores: usize,
}

impl Plan {
    fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Self {
        let shops = if kind == Kind::Pipeline { PIPELINE_SHOPS } else { SERVE_SHOPS };
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { kind, shops, artifact_shops: ARTIFACT_SHOPS, seed, seconds, trace, cores }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, printed in the summary (0 = one value).
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// Output checks: every operation is attempted once and failed at most once.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    fn absorb(&mut self, attempted: u64, failed: u64, notes: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for n in notes {
            self.note(n);
        }
    }
}

struct Outcome {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    checks: Checks,
    spans: Vec<Span>,
    rungs: Vec<RungSummary>,
    /// Distinct artifacts from the identical trainings of one run: the
    /// set-ups on `serve-zipf`, the cold paths on `pipeline`.
    distinct_artifacts: usize,
    /// Share of CPU time the hypervisor took from this VM during the run.
    steal_pct: f64,
}

/// Parity tier of this build: bit-exact scalar kernels, 1e-4 relative with
/// `simd`, 5e-3 relative with the half-precision cache.
fn parity_tolerance() -> f32 {
    if cfg!(feature = "embed-f16") {
        5e-3
    } else if cfg!(feature = "simd") {
        1e-4
    } else {
        0.0
    }
}

fn parity_ok(got: &[f32], want: &[f32]) -> bool {
    let tol = parity_tolerance();
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= tol * b.abs().max(1.0))
}

fn world_cfg(shops: usize, seed: u64) -> WorldConfig {
    WorldConfig { n_shops: shops, seed, ..WorldConfig::default() }
}

/// The serving model every workload trains: the small configuration the
/// serving benches have always used. Feature widths depend only on the
/// world family, so a tiny world of the family supplies them.
fn model_cfg() -> GaiaConfig {
    let ds = build_dataset(&World::generate(world_cfg(64, 1)));
    let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 4 };
    cfg
}

fn train_cfg(cores: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: 32,
        threads: cores,
        verbose: false,
        ..TrainConfig::default()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One open-loop rung as the controller saw it.
struct Rung {
    unserved: usize,
    /// Latencies (due → returned) of served requests, ascending, with every
    /// unserved request counted as an infinite latency.
    latency: Vec<f64>,
    pass: bool,
    outs: Vec<RungOut>,
    events: Vec<ChurnEvent>,
    /// Share of CPU time the hypervisor took from this VM during the rung.
    steal_pct: f64,
}

impl Rung {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency, q)
    }
}

#[derive(Clone, Debug)]
struct RungSummary {
    phase: &'static str,
    rate: f64,
    issued: usize,
    unserved: usize,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    pass: bool,
    churn_events: usize,
    /// Share of CPU time the hypervisor took from this VM during the rung.
    steal_pct: f64,
}

/// Drives the reader and writer threads one rung at a time.
struct Controller<'a> {
    server: &'a ModelServer,
    pop: &'a Popularity,
    rng: StdRng,
    next_id: u64,
    readers: Vec<mpsc::Sender<RungCmd>>,
    outs: mpsc::Receiver<RungOut>,
    churn: mpsc::Sender<ChurnCmd>,
    events: mpsc::Receiver<ChurnOut>,
    tr: Tracer,
    summaries: Vec<RungSummary>,
}

impl Controller<'_> {
    fn rung(
        &mut self,
        checks: &mut Checks,
        phase: &'static str,
        rate: f64,
        secs: f64,
        churn: bool,
        trace: bool,
    ) -> Rung {
        let reqs = Arc::new(load::schedule(rate, secs, self.pop, &mut self.rng, self.next_id));
        let next = Arc::new(AtomicUsize::new(0));
        let issued = reqs.len();
        self.next_id += issued as u64;
        self.tr.set_on(trace);
        let span = self.tr.open();
        let cpu_before = cpu_times();
        let start = Instant::now() + Duration::from_millis(20);
        for tx in &self.readers {
            let (reqs, next) = (Arc::clone(&reqs), Arc::clone(&next));
            tx.send(RungCmd { start, reqs, next, end: secs, trace, sample_every: SAMPLE_EVERY })
                .expect("reader thread is running");
        }
        if churn {
            let cmd = ChurnCmd {
                start,
                end: secs,
                period: CHURN_PERIOD_S,
                fraction: CHURN_FRACTION,
                trace,
            };
            self.churn.send(cmd).expect("writer thread is running");
        }
        let mut outs: Vec<RungOut> = self
            .readers
            .iter()
            .map(|_| self.outs.recv().expect("reader thread answered"))
            .collect();
        let events = if churn {
            let out = self.events.recv().expect("writer thread answered");
            checks.absorb(out.attempted, out.failed, out.notes);
            out.events
        } else {
            Vec::new()
        };
        self.tr.close(span, "bench.rung", 0, 0, issued as u64);
        let steal_pct = steal_pct(cpu_before, cpu_times());

        // Parity: responses served from the snapshot that is current now
        // (the writer is idle between rungs) must match a fresh
        // `predict_one` within the build's tier.
        let rev_now = self.server.snapshot().world_rev;
        for out in &mut outs {
            checks.absorb(out.attempted, out.failed, std::mem::take(&mut out.notes));
            for s in out.samples.iter().filter(|s| s.rev == rev_now) {
                let want = self.server.predict_one(s.shop as usize);
                checks.check(parity_ok(&s.model_space, &want.model_space), || {
                    format!(
                        "open-loop parity: shop {} got {:?}, want {:?}",
                        s.shop, s.model_space, want.model_space
                    )
                });
            }
        }

        let unserved = issued - next.load(Ordering::Acquire).min(issued);
        let mut latency: Vec<f64> = outs.iter().flat_map(|o| o.latency.iter().copied()).collect();
        latency.extend(std::iter::repeat_n(f64::INFINITY, unserved));
        let latency = sorted(latency);
        // No growing backlog: the last tenth of each reader's requests must
        // still meet the limit at the median.
        let tail_ok = outs.iter().all(|o| {
            let tail = &o.latency[o.latency.len() - o.latency.len() / 10..];
            tail.is_empty() || median(tail) <= LATENCY_LIMIT_S
        });
        let pass = unserved == 0 && tail_ok && percentile(&latency, 0.99) <= LATENCY_LIMIT_S;
        let rung = Rung { unserved, latency, pass, outs, events, steal_pct };
        self.summaries.push(RungSummary {
            phase,
            rate,
            issued,
            unserved,
            p50_ms: rung.p(0.5) * 1e3,
            p90_ms: rung.p(0.9) * 1e3,
            p99_ms: rung.p(0.99) * 1e3,
            p999_ms: rung.p(0.999) * 1e3,
            pass,
            churn_events: rung.events.len(),
            steal_pct,
        });
        rung
    }
}

/// The half of `rounds` (rounded up) in which the hypervisor stole the
/// least CPU time, in round order among equals. While the host holds the
/// VM's cores every reader stops, and a round's tail becomes the length of
/// those pauses, so the reference latencies are taken over the quieter
/// half. The choice rests on the host's steal counter alone, never on the
/// latencies: a change that slows some share of the requests slows the
/// same share in the chosen rounds.
fn quieter_half(rounds: &[Rung]) -> Vec<&Rung> {
    let mut by_steal: Vec<&Rung> = rounds.iter().collect();
    by_steal.sort_by(|a, b| a.steal_pct.total_cmp(&b.steal_pct));
    by_steal.truncate(rounds.len().div_ceil(2));
    by_steal
}

/// The `q` latency percentile over every sample of `rounds`, unserved
/// requests counted as infinite.
fn pooled(rounds: &[&Rung], q: f64) -> f64 {
    percentile(&sorted(rounds.iter().flat_map(|r| r.latency.iter().copied()).collect()), q)
}

/// Staleness of each churn event: from the mutation being applied until a
/// reader first returns a prediction served from a snapshot that includes
/// it. Events no reader caught before the rung ended are left out.
fn staleness(rung: &Rung) -> Vec<f64> {
    rung.events
        .iter()
        .filter_map(|ev| {
            rung.outs
                .iter()
                .filter_map(|o| o.epochs.iter().find(|&&(_, e)| e >= ev.epoch).map(|&(t, _)| t))
                .min_by(f64::total_cmp)
                .map(|t| t - ev.applied)
        })
        .collect()
}

fn run(plan: &Plan) -> Outcome {
    let origin = Instant::now();
    let cpu_start = cpu_times();
    let mut tr = Tracer::new(plan.trace, origin, 0);
    let mut checks = Checks::default();
    let n = plan.shops;

    // 1. Set-up: derive the model configuration and, on `serve-zipf`, train
    // the serving artifact on a small world of the family. `pipeline`
    // trains inside its timed cold path instead.
    let mut setup_secs = Vec::new();
    let mut prepared = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let root = tr.open();
        let model = model_cfg();
        let artifact = (plan.kind == Kind::ServeZipf).then(|| {
            let world = World::generate(world_cfg(plan.artifact_shops, ARTIFACT_WORLD_SEED));
            let mut pipeline =
                OfflinePipeline::new(model.clone(), train_cfg(plan.cores), MODEL_SEED);
            let span = tr.open();
            let (artifact, _, _) = pipeline.execute_month(&world);
            tr.close(span, "core.execute_month", root.id, 0, plan.artifact_shops as u64);
            artifact
        });
        tr.close(root, "bench.setup", 0, 0, rep as u64);
        setup_secs.push(t0.elapsed().as_secs_f64());
        prepared.push((model, artifact));
    }
    let mut checkpoints: Vec<String> =
        prepared.iter().filter_map(|(_, a)| a.as_ref().map(|a| a.checkpoint.clone())).collect();
    let (model, artifact) = prepared.pop().expect("set-up ran");
    drop(prepared);

    // 2. Cold path to the first prediction, `COLD_REPS` times; the last
    // boot serves the rest of the run.
    let mut rng = StdRng::seed_from_u64(splitmix(plan.seed, 2));
    let mut ttfp = Vec::new();
    let mut cold = None;
    for _ in 0..COLD_REPS {
        // Drop the previous stack first, or two fleets would set the peak.
        drop(cold.take());
        let boot = cold_path(plan, &model, artifact.as_ref(), &mut tr, &mut rng, &mut checks);
        ttfp.push(boot.ttfp_s);
        checkpoints.extend(boot.trained.clone());
        cold = Some(boot);
    }
    // Identical trainings should give identical artifacts. They do not
    // while `World::generate` is not a function of its seed (README.md,
    // "Known defects"), so this is reported, not failed.
    checkpoints.sort_unstable();
    checkpoints.dedup();
    let distinct_artifacts = checkpoints.len();
    drop(checkpoints);
    let Cold { world, fleet, dataset_mb, .. } = cold.expect("booted at least once");
    let server = fleet.master();
    let snap = server.snapshot();
    let cache_mb = snap.embeddings.approx_heap_bytes() as f64 / 1e6;

    // 3. Score every shop once through the sharded dispatcher; the first
    // sweep, before any churn, also gives the holdout MAPE.
    let shops: Vec<usize> = (0..n).cycle().take(SWEEP_REQUESTS.max(n)).collect();
    let (rps, preds, sweep_stats) = sweep(&fleet, &shops, &mut tr, &mut checks, &mut rng);
    let mut score_rps = vec![rps];
    let test = snap.ds.splits.test.clone();
    let forecast: Vec<Vec<f64>> = test.iter().map(|&v| preds[v].currency.clone()).collect();
    let actual: Vec<Vec<f64>> = test.iter().map(|&v| snap.ds.targets_raw_row(v).to_vec()).collect();
    let holdout_mape = gaia_eval::metrics_overall(&forecast, &actual).mape;
    drop((preds, forecast, actual, snap));

    // 4. Open-loop serving with the churn writer beside it, in rounds, so
    // the reference-rate, churn and sweep samples are spread over the run
    // rather than taken in one stretch of whatever the host is doing.
    let pop = match plan.kind {
        Kind::Pipeline => Popularity::uniform(n),
        _ => Popularity::zipf(n, ZIPF_EXPONENT, &mut rng),
    };
    let warm: Vec<usize> = (0..4_000).map(|_| pop.sample(&mut rng) as usize).collect();
    let s = plan.seconds;
    let mut phases = Phases::default();
    let thread_spans = std::thread::scope(|scope| {
        let (out_tx, out_rx) = mpsc::channel();
        let mut reader_txs = Vec::new();
        let mut handles = Vec::new();
        for r in 0..plan.cores {
            let (tx, rx) = mpsc::channel();
            let (out_tx, warm) = (out_tx.clone(), &warm);
            let tracer = Tracer::new(plan.trace, origin, 1 + r as u64);
            handles.push(
                scope.spawn(move || load::reader(server, warm, rx, out_tx, tracer, SERVE_SEED)),
            );
            reader_txs.push(tx);
        }
        let (churn_tx, churn_rx) = mpsc::channel();
        let (ev_tx, ev_rx) = mpsc::channel();
        let tracer = Tracer::new(plan.trace, origin, 1_000);
        let (fleet, churn_seed) = (&fleet, splitmix(plan.seed, 4));
        handles.push(
            scope.spawn(move || load::writer(fleet, world, churn_seed, churn_rx, ev_tx, tracer)),
        );
        // Every reader has warmed its context before the first rung starts.
        for _ in 0..plan.cores {
            out_rx.recv().expect("reader thread warmed up");
        }
        let mut ctl = Controller {
            server,
            pop: &pop,
            rng: StdRng::seed_from_u64(splitmix(plan.seed, 5)),
            next_id: 1,
            readers: reader_txs,
            outs: out_rx,
            churn: churn_tx,
            events: ev_rx,
            tr: Tracer::new(plan.trace, origin, 2_000),
            summaries: Vec::new(),
        };
        let k = &mut checks;
        let t = plan.trace;
        let per_round = |share: f64| share * s / ROUNDS as f64;
        ctl.rung(k, "warm", REF_RATE, WARM_SHARE * s, false, false);
        let mut search = Search::default();
        // A coarse rung that misses the limit is run once more, in the next
        // round, and counts as a miss only if it misses again: a stretch of
        // host noise must not end the climb, while a saturated server misses
        // both times. The staircase needs no retry, as one rung decides
        // nothing there. `None` when the search is done, `Some(false)` while
        // a retry is pending.
        let mut missed_once = false;
        let mut search_step = |ctl: &mut Controller<'_>, k: &mut Checks, ph: &mut Phases| {
            let (rate, secs) = search.next(s)?;
            let phase = match (missed_once, search.climbing()) {
                (true, _) => "retry",
                (false, true) => "search",
                (false, false) => "stair",
            };
            let rung = ctl.rung(k, phase, rate, secs, false, t);
            let decided = rung.pass || missed_once || !search.climbing();
            if decided {
                search.record(rate, rung.pass);
            }
            missed_once = !decided;
            ph.measured.push(rung);
            Some(decided)
        };
        for round in 0..ROUNDS {
            phases.refs.push(ctl.rung(k, "ref", REF_RATE, per_round(REF_SHARE), false, false));
            if t {
                let rung = ctl.rung(k, "ref-traced", REF_RATE, per_round(REF_SHARE), false, true);
                phases.traced_refs.push(rung);
            }
            phases.churns.push(ctl.rung(k, "churn", REF_RATE, per_round(CHURN_SHARE), true, t));
            if round % SWEEP_EVERY == SWEEP_EVERY - 1 {
                score_rps.push(sweep(fleet, &shops, &mut ctl.tr, k, &mut rng).0);
            }
            for _ in 0..SEARCH_STEPS_PER_ROUND {
                if search_step(&mut ctl, k, &mut phases) != Some(true) {
                    break;
                }
            }
        }
        while search_step(&mut ctl, k, &mut phases).is_some() {}
        phases.goodput = search.goodput();
        let mut spans = ctl.tr.take();
        phases.summaries = std::mem::take(&mut ctl.summaries);
        drop(ctl);
        for h in handles {
            spans.extend(h.join().expect("load thread panicked"));
        }
        spans
    });

    // End-to-end metrics.
    let publish_ms: Vec<f64> =
        phases.churns.iter().flat_map(|r| &r.events).map(|e| e.publish_s * 1e3).collect();
    let stale_ms: Vec<f64> = phases.churns.iter().flat_map(staleness).map(|s| s * 1e3).collect();
    if stale_ms.is_empty() {
        checks.note("no churn event was observed by a reader".to_string());
    }
    let refs = quieter_half(&phases.refs);
    let served_ref: usize = refs.iter().map(|r| r.latency.len() - r.unserved).sum();
    let end_to_end = vec![
        metric("serve_p50_ms", pooled(&refs, 0.5) * 1e3, "ms", served_ref),
        metric("serve_p99_ms", pooled(&refs, 0.99) * 1e3, "ms", served_ref),
        metric("serve_goodput_rps", phases.goodput, "1/s", 0),
        metric("republish_ms", median(&publish_ms), "ms", publish_ms.len()),
        metric("staleness_ms", median(&stale_ms), "ms", stale_ms.len()),
        metric("ttfp_s", median(&ttfp), "s", ttfp.len()),
        metric("score_rps", median(&score_rps), "1/s", score_rps.len()),
        metric("holdout_mape", holdout_mape, "ratio", test.len()),
        metric("setup_s", median(&setup_secs), "s", setup_secs.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 0),
    ];

    let mut spans = tr.take();
    spans.extend(thread_spans);
    let per_layer = if plan.trace {
        let all = || {
            phases
                .refs
                .iter()
                .chain(&phases.traced_refs)
                .chain(&phases.churns)
                .chain(&phases.measured)
        };
        layer_metrics(LayerInputs {
            spans: &spans,
            refs: &phases.refs,
            traced_refs: &phases.traced_refs,
            fresh_allocs: all().flat_map(|r| &r.outs).map(|o| o.fresh_allocs).sum(),
            reinstalls: all().flat_map(|r| &r.outs).map(|o| o.reinstalls).sum(),
            sweep: &sweep_stats,
            cache_mb,
            dataset_mb,
        })
    } else {
        Vec::new()
    };
    Outcome {
        end_to_end,
        per_layer,
        checks,
        spans,
        rungs: phases.summaries,
        distinct_artifacts,
        steal_pct: steal_pct(cpu_start, cpu_times()),
    }
}

/// The open-loop rungs of one run, by phase.
#[derive(Default)]
struct Phases {
    /// Untraced reference-rate rounds.
    refs: Vec<Rung>,
    /// Traced reference-rate rounds (`--trace 1` only).
    traced_refs: Vec<Rung>,
    /// The readers at the reference rate beside the churn writer.
    churns: Vec<Rung>,
    /// Goodput-search rungs, retries included.
    measured: Vec<Rung>,
    goodput: f64,
    summaries: Vec<RungSummary>,
}

/// The goodput search: climb `LADDER` until a rate misses the limit, then
/// run a staircase between the last rate met and the first missed. Near
/// the knee a rung meets the limit or not by chance (a host pause, how the
/// batches fall), so no single rung decides the goodput. The staircase
/// steps the rate up after each rung that meets the limit and down after
/// each miss, halving the step whenever the direction turns, and so
/// settles around the rate met half the time.
#[derive(Default)]
struct Search {
    coarse: usize,
    /// Highest ladder rate met.
    met: f64,
    /// Staircase state, set when the climb ends at a miss: the next rate,
    /// the step, the smallest step, and whether the last rung met the limit.
    rate: f64,
    step: f64,
    min_step: f64,
    last: Option<bool>,
    /// Rates of the staircase rungs run so far.
    stair: Vec<f64>,
}

impl Search {
    fn climbing(&self) -> bool {
        self.step == 0.0
    }

    /// The next rate to try and its rung length, or `None` when done.
    fn next(&self, seconds: f64) -> Option<(f64, f64)> {
        if self.climbing() {
            LADDER.get(self.coarse).map(|&rate| (rate, COARSE_SHARE * seconds))
        } else {
            (self.stair.len() < STAIR_STEPS).then_some((self.rate, STAIR_SHARE * seconds))
        }
    }

    fn record(&mut self, rate: f64, pass: bool) {
        if self.climbing() {
            self.coarse += 1;
            if pass {
                self.met = rate;
            } else {
                self.rate = (self.met + rate) / 2.0;
                self.step = (rate - self.met) / 4.0;
                self.min_step = (rate - self.met) / 32.0;
            }
            return;
        }
        self.stair.push(rate);
        if self.last.is_some_and(|last| last != pass) {
            self.step = (self.step / 2.0).max(self.min_step);
        }
        self.last = Some(pass);
        let next = if pass { rate + self.step } else { rate - self.step };
        self.rate = next.max(self.min_step);
    }

    /// The median rate of the staircase's last `STAIR_KEPT` rungs, or the
    /// highest ladder rate met when every ladder rate was met.
    fn goodput(&self) -> f64 {
        if self.stair.is_empty() {
            return self.met;
        }
        median(&self.stair[self.stair.len().saturating_sub(STAIR_KEPT)..])
    }
}

/// One booted serving stack and what its cold path measured.
struct Cold {
    world: World,
    fleet: ShardedModelServer,
    ttfp_s: f64,
    dataset_mb: f64,
    /// Checkpoint of the artifact trained in the timed path (`pipeline`).
    trained: Option<String>,
}

/// The cold offline→online path: world generation, the dataset (built, or
/// on `pipeline` built and trained on by `execute_month`), the boot publish
/// of a 2-shard fleet and its first `predict_one`, timed as a whole.
/// `artifact` is the set-up's artifact, which `pipeline` does not have.
fn cold_path(
    plan: &Plan,
    model: &GaiaConfig,
    artifact: Option<&ModelArtifact>,
    tr: &mut Tracer,
    rng: &mut StdRng,
    checks: &mut Checks,
) -> Cold {
    let n = plan.shops;
    let root = tr.open();
    let t0 = Instant::now();
    let span = tr.open();
    let world = World::generate(world_cfg(n, SERVE_WORLD_SEED));
    tr.close(span, "synth.world_gen", root.id, 0, n as u64);
    let mut train_span = None;
    let trained;
    let (artifact, ds) = match artifact {
        Some(artifact) => {
            let span = tr.open();
            let ds = build_dataset(&world);
            tr.close(span, "synth.build_dataset", root.id, 0, n as u64);
            trained = None;
            (artifact, ds)
        }
        None => {
            let mut pipeline =
                OfflinePipeline::new(model.clone(), train_cfg(plan.cores), MODEL_SEED);
            let span = tr.open();
            let (a, ds, _) = pipeline.execute_month(&world);
            tr.close(span, "core.execute_month", root.id, 0, n as u64);
            train_span = Some(span.id);
            trained = Some(a);
            (trained.as_ref().expect("just trained"), ds)
        }
    };
    let dataset_mb = ds.approx_heap_bytes() as f64 / 1e6;
    let boot = tr.open();
    let fleet = ShardedModelServer::new(artifact, &world, ds, SHARDS, SERVE_SEED);
    tr.close(boot, "serving.boot", root.id, 0, n as u64);
    let first = rng.gen_range(0..n);
    let span = tr.open();
    let pred = fleet.master().predict_one(first);
    tr.close(span, "serving.predict_one", root.id, 0, 1);
    let ttfp_s = t0.elapsed().as_secs_f64();
    tr.close(root, "bench.ttfp", 0, 0, n as u64);
    checks.check(prediction_ok(&pred, first), || format!("first prediction: {pred:?}"));
    if tr.on() {
        // Replayed: the boot publish precomputes every node's embeddings,
        // and execute_month builds the dataset before training.
        let snap = fleet.master().snapshot();
        let span = tr.open();
        black_box(snap.model.precompute_embeddings(&snap.ds));
        tr.close_replayed(span, "core.precompute_embeddings", boot.id, n as u64);
        if let Some(parent) = train_span {
            let span = tr.open();
            black_box(build_dataset(&world));
            tr.close_replayed(span, "synth.build_dataset", parent, n as u64);
        }
    }
    let trained = trained.map(|a| a.checkpoint);
    Cold { world, fleet, ttfp_s, dataset_mb, trained }
}

/// Score `shops` (every shop in turn) through `serve_sharded`, checking
/// every output and a seeded sample against `ModelServer::predict_one`.
/// Returns the scoring rate with the predictions and the dispatcher's
/// statistics.
fn sweep(
    fleet: &ShardedModelServer,
    shops: &[usize],
    tr: &mut Tracer,
    checks: &mut Checks,
    rng: &mut StdRng,
) -> (f64, Vec<Prediction>, gaia_serving::ServeStats) {
    let n = shops.len();
    let span = tr.open();
    let t0 = Instant::now();
    let (preds, stats) = fleet.serve_sharded(shops, MICRO_BATCH);
    let secs = t0.elapsed().as_secs_f64();
    tr.close(span, "serving.serve_sharded", 0, 0, n as u64);
    checks.check(preds.len() == n, || format!("serve_sharded returned {} of {n}", preds.len()));
    for (pred, &shop) in preds.iter().zip(shops) {
        checks.check(prediction_ok(pred, shop), || format!("sweep shop {shop}: {pred:?}"));
    }
    for _ in 0..PARITY_SAMPLES.min(n) {
        let slot = rng.gen_range(0..n);
        let want = fleet.master().predict_one(shops[slot]);
        let got = &preds[slot].model_space;
        checks.check(parity_ok(got, &want.model_space), || {
            format!("sweep parity: shop {} got {got:?}, want {:?}", shops[slot], want.model_space)
        });
    }
    (n as f64 / secs, preds, stats)
}

struct LayerInputs<'a> {
    spans: &'a [Span],
    refs: &'a [Rung],
    traced_refs: &'a [Rung],
    fresh_allocs: usize,
    reinstalls: usize,
    sweep: &'a gaia_serving::ServeStats,
    cache_mb: f64,
    dataset_mb: f64,
}

/// Per-layer metrics of a traced run (see README.md for the end-to-end
/// metric each should move).
fn layer_metrics(x: LayerInputs<'_>) -> Vec<Metric> {
    let spans = x.spans;
    // Median duration of the spans called `span`, scaled to `unit`.
    let timed = |name: &'static str, span: &str, unit: &'static str| {
        let d = trace::durations(spans, span);
        let scale = if unit == "ms" { 1e3 } else { 1.0 };
        metric(name, median(&d) * scale, unit, d.len())
    };
    let counts = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.count as f64).collect()
    };
    let (ego_s, ego_n) = trace::totals(spans, "graph.extract_ego");
    let (pred_s, pred_n) = trace::totals(spans, "core.predict_batch");
    let batches = counts("core.predict_batch").len();
    let (_, closure_total) = trace::totals(spans, "graph.dirty_closure");
    let (_, recomputed_total) = trace::totals(spans, "core.precompute_embeddings_delta");

    // Training time: the largest world's `execute_month`, minus its
    // replayed dataset build.
    let biggest = spans.iter().filter(|s| s.name == "core.execute_month").map(|s| s.count).max();
    let train: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.execute_month" && Some(s.count) == biggest)
        .map(|s| {
            let replayed: f64 =
                spans.iter().filter(|c| c.parent == s.id && c.replayed).map(Span::secs).sum();
            s.secs() - replayed
        })
        .collect();

    let reference_outs = || x.refs.iter().flat_map(|r| &r.outs);
    let per_request = |f: fn(&RungOut) -> &Vec<f64>| {
        sorted(reference_outs().flat_map(|o| f(o).iter().copied()).collect())
    };
    let queue_wait = per_request(|o| &o.queue_wait);
    let service = per_request(|o| &o.service);
    let gen_late = per_request(|o| &o.gen_late);

    let per_shard = &x.sweep.per_shard;
    let shard_mean = per_shard.iter().sum::<usize>() as f64 / per_shard.len().max(1) as f64;
    let shard_max = per_shard.iter().copied().max().unwrap_or(0) as f64;

    let events = trace::durations(spans, "graph.dirty_closure").len();
    let mut out = vec![
        metric("graph.ego_us", ego_s / ego_n.max(1) as f64 * 1e6, "us", ego_n as usize),
        metric("core.service_us", pred_s / pred_n.max(1) as f64 * 1e6, "us", pred_n as usize),
        metric("core.batch_size_mean", pred_n as f64 / batches.max(1) as f64, "count", batches),
        metric("core.tape_fresh_allocs", x.fresh_allocs as f64, "count", 0),
        metric(
            "serving.queue_wait_p50_ms",
            percentile(&queue_wait, 0.5) * 1e3,
            "ms",
            queue_wait.len(),
        ),
        metric(
            "serving.queue_wait_p99_ms",
            percentile(&queue_wait, 0.99) * 1e3,
            "ms",
            queue_wait.len(),
        ),
        metric("serving.service_p99_ms", percentile(&service, 0.99) * 1e3, "ms", service.len()),
        metric("serving.gen_late_p99_ms", percentile(&gen_late, 0.99) * 1e3, "ms", gen_late.len()),
        timed("synth.record_sales_ms", "synth.record_sales", "ms"),
        timed("synth.refresh_ms", "synth.refresh_dataset", "ms"),
        timed("graph.closure_ms", "graph.dirty_closure", "ms"),
        metric("graph.closure_nodes", median(&counts("graph.dirty_closure")), "count", events),
        timed("core.publish_delta_ms", "core.precompute_embeddings_delta", "ms"),
        metric(
            "core.recompute_ratio",
            recomputed_total as f64 / closure_total.max(1) as f64,
            "ratio",
            events,
        ),
        metric("serving.swap_reinstalls", x.reinstalls as f64, "count", 0),
        timed("synth.world_gen_s", "synth.world_gen", "s"),
        timed("synth.build_s", "synth.build_dataset", "s"),
        metric("core.train_epoch_s", median(&train), "s", train.len()),
        timed("serving.boot_publish_s", "serving.boot", "s"),
        metric(
            "serving.stolen_frac",
            x.sweep.stolen as f64 / x.sweep.requests.max(1) as f64,
            "ratio",
            x.sweep.requests,
        ),
        metric(
            "serving.shard_imbalance",
            shard_max / shard_mean.max(1.0),
            "ratio",
            per_shard.len(),
        ),
        metric("core.cache_mb", x.cache_mb, "MB", 0),
        metric("synth.dataset_mb", x.dataset_mb, "MB", 0),
    ];
    let layers = trace::self_time_by_layer(spans);
    for (layer, name) in [
        ("synth", "synth.self_s"),
        ("graph", "graph.self_s"),
        ("core", "core.self_s"),
        ("serving", "serving.self_s"),
    ] {
        let own = layers.iter().find(|(l, _)| *l == layer).map_or(0.0, |(_, s)| *s);
        out.push(metric(name, own, "s", 0));
    }
    let ratio = |q: f64| pooled(&quieter_half(x.traced_refs), q) / pooled(&quieter_half(x.refs), q);
    out.push(metric("trace.p50_ratio", ratio(0.5), "x", 0));
    out.push(metric("trace.p99_ratio", ratio(0.99), "x", 0));
    out
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, or zeros.
fn cpu_times() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Online CPUs of the host, ignoring this process's affinity mask.
fn cpus_online() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .map(|s| {
            s.trim()
                .split(',')
                .filter_map(|part| match part.split_once('-') {
                    Some((a, b)) => Some(b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1),
                    None => part.parse::<usize>().ok().map(|_| 1),
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find(|l| l.ends_with(reference))?.split(' ').next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Host {
    cpus_online: usize,
    cores: usize,
    rev: String,
}

impl Host {
    fn describe(&self, plan: &Plan) -> String {
        format!(
            "host cpus_online={} cores={} simd={} embed_f16={} rev={} workload={} seed={} \
             seconds={} trace={}",
            self.cpus_online,
            self.cores,
            cfg!(feature = "simd"),
            cfg!(feature = "embed-f16"),
            self.rev,
            plan.kind.name(),
            plan.seed,
            plan.seconds,
            plan.trace as u8
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_result(
    plan: &Plan,
    host: &Host,
    out: &Outcome,
    metrics: &[Metric],
) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let rungs: Vec<String> = out
        .rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"phase\": \"{}\", \"rate\": {}, \"issued\": {}, \"unserved\": {}, \
                 \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \"pass\": {}, \
                 \"churn_events\": {}, \"steal_pct\": {}}}",
                r.phase,
                r.rate,
                r.issued,
                r.unserved,
                json_num(r.p50_ms),
                json_num(r.p90_ms),
                json_num(r.p99_ms),
                json_num(r.p999_ms),
                r.pass,
                r.churn_events,
                r.steal_pct
            )
        })
        .collect();
    let notes: Vec<String> = out.checks.notes.iter().map(|n| format!("{n:?}")).collect();
    let json = format!(
        "{{\"host\": {{\"cpus_online\": {}, \"cores\": {}, \"simd\": {}, \"embed_f16\": {}, \
         \"rev\": \"{}\", \"steal_pct\": {}}}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"attempted\": {}, \"failed\": {}, \"notes\": [{}], \"distinct_trained_artifacts\": {}, \
         \"metrics\": {}, \"rungs\": [{}]}}\n",
        host.cpus_online,
        host.cores,
        cfg!(feature = "simd"),
        cfg!(feature = "embed-f16"),
        host.rev,
        out.steal_pct,
        plan.kind.name(),
        plan.seed,
        plan.seconds,
        plan.trace,
        out.checks.attempted,
        out.checks.failed,
        notes.join(", "),
        out.distinct_artifacts,
        metrics_json(metrics),
        rungs.join(", ")
    );
    let stem = format!("{}-trace{}", plan.kind.name(), plan.trace as u8);
    std::fs::write(dir.join(format!("{stem}.json")), json)?;
    if plan.trace {
        trace::write_jsonl(&dir.join(format!("{stem}-spans.jsonl")), &out.spans)?;
    }
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

const USAGE: &str = "usage: perfbench --workload <serve-zipf|pipeline> --seed <u64> \
                     --seconds <10..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(MIN_SECONDS..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside {MIN_SECONDS}..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Plan::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse_args(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host { cpus_online: cpus_online(), cores: plan.cores, rev: git_rev() };
    let mut out = run(&plan);
    let metrics = if plan.trace { out.per_layer.clone() } else { out.end_to_end.clone() };
    for m in &metrics {
        if !m.value.is_finite() {
            out.checks.check(false, || format!("metric {} was not measured", m.name));
        }
    }

    println!("{}", host.describe(&plan));
    for r in &out.rungs {
        println!(
            "rung {:<10} {:>9.0}/s issued {:>7} unserved {:>6} ms p50 {:>8.3} p90 {:>8.3} \
             p99 {:>8.3} p99.9 {:>8.3} {} churn_events {} steal {:.1}%",
            r.phase,
            r.rate,
            r.issued,
            r.unserved,
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            r.p999_ms,
            if r.pass { "pass" } else { "FAIL" },
            r.churn_events,
            r.steal_pct
        );
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        let n = if m.samples > 0 { format!("  (n={})", m.samples) } else { String::new() };
        println!("{:<28} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    let fail_frac = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    println!(
        "{:<28} {:>16.6} ratio  ({} failed of {} attempted)",
        "fail_frac", fail_frac, out.checks.failed, out.checks.attempted
    );
    println!("steal: {:.1}% of CPU time taken by the hypervisor during the run", out.steal_pct);
    println!(
        "determinism: {} distinct artifact(s) from {} identical trainings",
        out.distinct_artifacts,
        if plan.kind == Kind::Pipeline { COLD_REPS } else { SETUP_REPS }
    );
    for note in &out.checks.notes {
        println!("check: {note}");
    }
    if let Err(e) = write_result(&plan, &host, &out, &metrics) {
        eprintln!("could not write results under perfbench/out: {e}");
    }
    let values: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric { value: if m.value.is_finite() { m.value } else { 0.0 }, ..m })
        .collect();
    let correct = out.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics_json(&values)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `section` in the repository's
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body[1..].find("\"per_layer\"").map_or(body.len(), |e| e + 1)];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    /// Smoke and schema test with no timing gates: every workload, shrunk,
    /// runs clean and reports exactly the metrics `BENCHMARK.json` names.
    #[test]
    fn every_workload_runs_clean_and_reports_the_declared_metrics() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        assert!(e2e.iter().any(|n| n == "setup_s"));
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let trace = i % 2 == 0;
            let plan =
                Plan { shops: 600, artifact_shops: 300, ..Plan::new(kind, 5, MIN_SECONDS, trace) };
            let out = run(&plan);
            assert_eq!(out.checks.failed, 0, "{}: {:?}", kind.name(), out.checks.notes);
            let names: Vec<&str> = out.end_to_end.iter().map(|m| m.name).collect();
            assert_eq!(names, e2e, "{}", kind.name());
            if trace {
                let names: Vec<&str> = out.per_layer.iter().map(|m| m.name).collect();
                assert_eq!(names, layers, "{}", kind.name());
            }
            for m in out.end_to_end.iter().filter(|m| m.name != "staleness_ms") {
                assert!(m.value.is_finite(), "{}: {} = {}", kind.name(), m.name, m.value);
            }
        }
    }

    /// Against a server that meets the limit exactly up to 70k requests/s,
    /// the staircase settles within its smallest step of the knee, and a
    /// server that meets every ladder rate reports the top of the ladder.
    #[test]
    fn goodput_search_settles_at_the_knee() {
        let search_with = |knee: f64| {
            let mut search = Search::default();
            while let Some((rate, _)) = search.next(20.0) {
                search.record(rate, rate <= knee);
            }
            (search.goodput(), search.stair.len())
        };
        let (goodput, rungs) = search_with(70_000.0);
        assert_eq!(rungs, STAIR_STEPS);
        assert!((goodput - 70_000.0).abs() <= 64_000.0 / 32.0, "{goodput}");
        assert_eq!(search_with(1e9), (LADDER[LADDER.len() - 1], 0));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let plan =
            parse_args(&args("--workload pipeline --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((plan.kind, plan.seed, plan.trace), (Kind::Pipeline, 3, true));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload pipeline --seed x --seconds 10 --trace 0",
            "--workload pipeline --seed 3 --seconds 5 --trace 0",
            "--workload pipeline --seed 3 --seconds 10 --trace 2",
            "--workload pipeline --seed 3 --seconds 10",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
