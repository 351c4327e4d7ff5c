//! Feature extraction — the offline extractor stack of Fig. 5 (GMV Series
//! Extractor, Temporal/Static Feature Extractor) turning a [`World`] into
//! model-ready instances.
//!
//! GMV enters the models as standardised `log1p` values (`Scaler`), which is
//! also how predictions are mapped back to currency for MAE/RMSE/MAPE.
//!
//! Storage is flat arenas in copy-on-write chunks: every per-shop column
//! lives at a fixed offset of its shop's row inside a shared chunk of
//! `SEGMENT_NODES` consecutive shops, rather than one heap object per
//! shop. Cloning a dataset is a vector of `Arc` bumps, and an
//! incremental refresh copies only the chunks holding a rewritten row, so a
//! republish under churn costs what the churn costs. Consumers read rows
//! through the `*_row`/`temporal_at` accessors; the arenas themselves are
//! private so the stride contracts below cannot be bypassed.

use crate::config::WorldConfig;
use crate::world::{month_of_year, Role, World};
use gaia_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// `ln(1 + max(x, 0))` — the log transform every feature column funnels
/// through (scaler fits and every normalised cell), kept as the single
/// definition so the fit and transform paths cannot drift bit-wise.
#[inline]
fn log1p_pos(x: f64) -> f64 {
    (1.0 + x.max(0.0)).ln()
}

/// `log1p` + z-score scaler fitted on training shops only.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Scaler {
    /// Mean of `ln(1+gmv)` over observed training cells.
    pub mean: f32,
    /// Std of the same population (floored at 1e-3).
    pub std: f32,
}

impl Scaler {
    /// Fit from raw currency values.
    pub fn fit(raw: impl Iterator<Item = f64>) -> Self {
        Self::fit_logs(&raw.map(log1p_pos).collect::<Vec<f64>>())
    }

    /// Fit from already log-transformed values.
    fn fit_logs(logs: &[f64]) -> Self {
        assert!(!logs.is_empty(), "Scaler::fit on empty data");
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / logs.len() as f64;
        Self::from_moments(mean, var)
    }

    /// The shared tail of every fit path: population mean/variance (in f64)
    /// → stored f32 scaler. [`build_dataset`] accumulates the same sums as
    /// [`Scaler::fit_logs`] directly from its log arenas (identical
    /// value order, identical reductions) and lands here, so the fused fit
    /// is bit-identical to the iterator path — pinned by the
    /// `fused_arena_fit_matches_scaler_fit` test.
    fn from_moments(mean: f64, var: f64) -> Self {
        Self { mean: mean as f32, std: (var.sqrt() as f32).max(1e-3) }
    }

    /// Currency → normalised log space.
    pub fn normalize(&self, raw: f64) -> f32 {
        self.normalize_log(log1p_pos(raw))
    }

    /// `ln(1+raw)` → normalised log space. The shared tail of
    /// [`Scaler::normalize`], exposed within the crate so the full build
    /// can reuse logs it already computed for the scaler fits instead of
    /// taking a second `ln` per cell (bit-identical: same log value through
    /// the same expression).
    #[inline]
    pub(crate) fn normalize_log(&self, log: f64) -> f32 {
        ((log as f32) - self.mean) / self.std
    }

    /// Normalised log space → currency.
    pub fn denormalize(&self, z: f32) -> f64 {
        ((z * self.std + self.mean) as f64).exp() - 1.0
    }

    /// Currency → *positive* model space: the z-scored log value shifted by
    /// [`TARGET_SHIFT`]. Model outputs live here because the paper's
    /// prediction head (Eq. 9) ends in a ReLU, so the target space must be
    /// non-negative; the shift keeps targets ~N(TARGET_SHIFT, 1) > 0 while
    /// preserving unit-scale gradients for the MSE loss.
    pub fn normalize_pos(&self, raw: f64) -> f32 {
        self.normalize(raw) + TARGET_SHIFT
    }

    /// Positive model space → currency (floored at zero — a model-space
    /// value far below the shift corresponds to less than one currency unit).
    pub fn denormalize_pos(&self, z: f32) -> f64 {
        self.denormalize(z.max(0.0) - TARGET_SHIFT).max(0.0)
    }
}

/// Train/validation/test split over shop ids.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Splits {
    /// Training shop ids.
    pub train: Vec<usize>,
    /// Validation shop ids.
    pub val: Vec<usize>,
    /// Test shop ids (the Table I population).
    pub test: Vec<usize>,
}

/// Nodes per copy-on-write segment: the one granularity of node-keyed
/// shared storage. Shop `v`'s [`Dataset`] rows live in chunk
/// `v / SEGMENT_NODES`, and gaia-core's embedding cache (which re-exports
/// this constant) keeps node `v`'s values in segment `v / SEGMENT_NODES`,
/// so an incremental republish copies one dataset chunk and one cache
/// segment per dirty node. Small segments keep that copy close to the
/// dirty nodes' own bytes: at 1% churn almost every dirty node lands in a
/// segment of its own, which a republish copies whole. Smaller still
/// trades the copy for more `Arc` reference counts touched per clone and
/// shard slice (a probe of the cache at 16, 8 and 4 nodes chose 8). Must
/// stay ≤ 64: the cache's segment presence masks are one `u64` bit per
/// node.
pub const SEGMENT_NODES: usize = 8;

/// `f32` values per shop row inside a [`RowChunk`]: the input series
/// (`T`), the auxiliary temporal columns (`T·2`), the statics (`d_s`) and
/// the model-space targets (`T'`), in that order.
fn row_stride(t: usize, horizon: usize, d_s: usize) -> usize {
    t * (1 + D_AUX) + d_s + horizon
}

/// The per-shop columns of `SEGMENT_NODES` consecutive shops in two flat
/// arenas, one row after another at a fixed stride. Every chunk holds a
/// full `SEGMENT_NODES` rows; rows past the last shop stay zeroed and are
/// never read.
///
/// A row's `f32` columns are `[series | aux | statics | targets_norm]`
/// (see [`row_stride`]):
/// - the normalised GMV input series, `T` values;
/// - the scaler-dependent auxiliary temporal columns (log-orders,
///   log-customers), `T·2` values row-major `[T][2]`. The other three
///   temporal features are not stored per shop at all: sin/cos of the
///   month come from the shared `Dataset::trig` table (identical for
///   every shop) and the observed flag is derived from
///   [`Dataset::observed_len`] (observed months are a window suffix) —
///   see [`Dataset::temporal_at`]. Storing 2 of the 5 columns cuts the
///   dominant dataset arena to 40% without changing a single value the
///   model sees;
/// - the static features, `d_s` values;
/// - the model-space targets for the MSE loss (positive log space, see
///   [`Scaler::normalize_pos`]), `T'` values.
#[derive(Clone, Debug)]
struct RowChunk {
    /// `f32` row arena, `[R · row_stride]`.
    cols: Vec<f32>,
    /// Raw currency target arena `[R·T']` (future months).
    targets_raw: Vec<f64>,
}

impl RowChunk {
    fn zeroed(t: usize, horizon: usize, d_s: usize) -> Self {
        Self {
            cols: vec![0.0; SEGMENT_NODES * row_stride(t, horizon, d_s)],
            targets_raw: vec![0.0; SEGMENT_NODES * horizon],
        }
    }

    /// Mutable views of row `r`'s columns.
    fn row_mut(&mut self, r: usize, t: usize, horizon: usize, d_s: usize) -> RowMut<'_> {
        let s = row_stride(t, horizon, d_s);
        let (series, rest) = self.cols[r * s..(r + 1) * s].split_at_mut(t);
        let (aux, rest) = rest.split_at_mut(t * D_AUX);
        let (stat, norm) = rest.split_at_mut(d_s);
        let raw = &mut self.targets_raw[r * horizon..(r + 1) * horizon];
        RowMut { series, aux, stat, raw, norm }
    }

    /// Payload bytes of the two arenas.
    fn bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<f32>()
            + self.targets_raw.len() * std::mem::size_of::<f64>()
    }
}

/// Mutable views of one shop's per-row columns, as
/// [`RowChunk::row_mut`] hands them to [`write_node_row`].
struct RowMut<'a> {
    series: &'a mut [f32],
    aux: &'a mut [f32],
    stat: &'a mut [f32],
    raw: &'a mut [f64],
    norm: &'a mut [f32],
}

/// Model-ready dataset: per-shop input window features and horizon targets,
/// plus the graph-independent bookkeeping every model shares.
///
/// The per-shop feature columns live in `Arc`'d chunks of `SEGMENT_NODES`
/// rows (see the module docs). Read them through [`Dataset::gmv_row`] and
/// friends. Cloning shares every chunk; a write copies only the chunk it
/// lands in.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Number of shops.
    pub n: usize,
    /// Input window length `T`.
    pub t: usize,
    /// Forecast horizon `T'`.
    pub horizon: usize,
    /// Copy-on-write row chunks: chunk `k` holds shops
    /// `[k·SEGMENT_NODES, (k+1)·SEGMENT_NODES)`.
    chunks: Vec<Arc<RowChunk>>,
    /// Month sin/cos table for the input window, `[T]` — shared by every
    /// shop's temporal row.
    trig: Vec<(f32, f32)>,
    /// Observed months inside the input window per shop (`T` minus leading
    /// zeros) — the Fig 3 grouping key.
    pub observed_len: Vec<usize>,
    /// The fitted scaler.
    pub scaler: Scaler,
    /// Auxiliary scaler for monthly order counts (train-fitted, frozen
    /// across incremental refreshes like [`Dataset::scaler`]).
    pub orders_scaler: Scaler,
    /// Auxiliary scaler for monthly unique customers (same freezing rule).
    pub customers_scaler: Scaler,
    /// Largest model-space target seen on the training split, used to clamp
    /// predictions before the exp() back-transform (early-training overshoot
    /// would otherwise explode RMSE through the exponential).
    pub max_model_z: f32,
    /// Temporal feature width.
    pub d_t: usize,
    /// Static feature width.
    pub d_s: usize,
    /// Shop id splits.
    pub splits: Splits,
}

/// Width of the auxiliary temporal feature vector:
/// `[sin(month), cos(month), log-orders, log-customers, observed]`.
pub const D_TEMPORAL: usize = 5;

/// Stored (scaler-dependent) temporal columns per cell: log-orders and
/// log-customers. The remaining `D_TEMPORAL - D_AUX` columns are
/// synthesized on read (see [`Dataset::temporal_at`]).
const D_AUX: usize = 2;

/// Offset added to z-scored log targets so the model-space targets are
/// positive (the paper's prediction head, Eq. 9, ends in a ReLU). Targets
/// are ~N(TARGET_SHIFT, 1); prediction heads initialise their output bias
/// here so every model starts as the mean predictor.
pub const TARGET_SHIFT: f32 = 4.0;

/// Build the dataset from a generated world.
pub fn build_dataset(world: &World) -> Dataset {
    let cfg = &world.config;
    let n = world.shops.len();
    let t = cfg.input_window;
    let horizon = cfg.horizon;
    let in_start = cfg.input_start();
    let fut_start = cfg.horizon_start();

    // Deterministic 70/10/20 split.
    let mut ids: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_5711);
    ids.shuffle(&mut rng);
    let n_train = (n as f64 * 0.7) as usize;
    let n_val = (n as f64 * 0.1) as usize;
    let splits = Splits {
        train: ids[..n_train].to_vec(),
        val: ids[n_train..n_train + n_val].to_vec(),
        test: ids[n_train + n_val..].to_vec(),
    };

    // Pass A — one sequential walk over the shops computes everything that
    // does not need the fitted scalers: the log-domain input window of
    // every shop (one interleaved `[N·T·3]` arena: gmv, orders, customers
    // per cell), the static feature rows, the raw currency targets and
    // the observed window lengths. `ln` dominates the build at world
    // scale, and without the log arena each observed training cell would
    // pay it twice — once in the scaler fit and again in `normalize` when
    // the row is written. Unobserved cells stay 0.0 and are never read
    // (the fit and the normalisation pass both start at the first
    // observed cell).
    let window = fut_start - in_start;
    let d_s = cfg.n_industries + cfg.n_regions + 2;
    let mut logs = vec![0.0f64; n * window * 3];
    let mut chunks: Vec<RowChunk> =
        (0..n.div_ceil(SEGMENT_NODES)).map(|_| RowChunk::zeroed(t, horizon, d_s)).collect();
    let mut observed_len = vec![0usize; n];
    for v in 0..n {
        let shop = &world.shops[v];
        let row = chunks[v / SEGMENT_NODES].row_mut(v % SEGMENT_NODES, t, horizon, d_s);
        let first = shop.opened.saturating_sub(in_start).min(window);
        observed_len[v] = window - first;
        for i in first..window {
            let m = in_start + i;
            let cell = (v * window + i) * 3;
            logs[cell] = log1p_pos(shop.gmv[m]);
            logs[cell + 1] = log1p_pos(shop.orders[m]);
            logs[cell + 2] = log1p_pos(shop.customers[m]);
        }
        let stat = row.stat;
        stat[shop.industry as usize] = 1.0;
        stat[cfg.n_industries + shop.region as usize] = 1.0;
        stat[cfg.n_industries + cfg.n_regions] =
            if shop.role == Role::Supplier { 1.0 } else { 0.0 };
        stat[cfg.n_industries + cfg.n_regions + 1] = observed_len[v].min(t) as f32 / t as f32;
        for (h, m) in (fut_start..fut_start + horizon).enumerate() {
            row.raw[h] = shop.gmv[m];
        }
    }

    // Pass B — scalers fitted on observed training cells of the input
    // window only: GMV plus the two auxiliary magnitudes, accumulated
    // straight off the log arena in two walks over the (shuffled-order)
    // training shops: sums for the means, then squared deviations. No
    // gather copy. Each column's accumulator sees exactly the value
    // sequence a `Scaler::fit` over that column's observed train cells
    // would see (same shuffled shop order, same in-window order, same
    // left-to-right f64 folds), so the scalers are bit-identical to three
    // independent iterator fits — `fused_arena_fit_matches_scaler_fit`
    // pins this.
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for &v in &splits.train {
        let first = window - observed_len[v];
        for i in first..window {
            let cell = (v * window + i) * 3;
            sums[0] += logs[cell];
            sums[1] += logs[cell + 1];
            sums[2] += logs[cell + 2];
        }
        count += observed_len[v];
    }
    assert!(count > 0, "Scaler::fit on empty data");
    let means = sums.map(|s| s / count as f64);
    let mut var_sums = [0.0f64; 3];
    for &v in &splits.train {
        let first = window - observed_len[v];
        for i in first..window {
            let cell = (v * window + i) * 3;
            let (g, o, c) = (logs[cell], logs[cell + 1], logs[cell + 2]);
            var_sums[0] += (g - means[0]) * (g - means[0]);
            var_sums[1] += (o - means[1]) * (o - means[1]);
            var_sums[2] += (c - means[2]) * (c - means[2]);
        }
    }
    let scaler = Scaler::from_moments(means[0], var_sums[0] / count as f64);
    let orders_scaler = Scaler::from_moments(means[1], var_sums[1] / count as f64);
    let customers_scaler = Scaler::from_moments(means[2], var_sums[2] / count as f64);

    // Pass C — normalised columns, streamed entirely from the arenas of
    // pass A (no World access at all): the input series and auxiliary
    // columns from the log arena, the model-space targets from the raw
    // target arena (the same f64 values pass A copied out of the world,
    // so `normalize_pos` sees bit-identical inputs). Unobserved cells
    // keep their zero initialisation, matching `write_node_row`'s
    // explicit zeros — `refresh_of_unmutated_world_is_identity` pins the
    // build path against the refresh path.
    for v in 0..n {
        let first = window - observed_len[v];
        let row = chunks[v / SEGMENT_NODES].row_mut(v % SEGMENT_NODES, t, horizon, d_s);
        for i in first..window {
            let cell = (v * window + i) * 3;
            row.series[i] = scaler.normalize_log(logs[cell]);
            row.aux[i * D_AUX] = orders_scaler.normalize_log(logs[cell + 1]);
            row.aux[i * D_AUX + 1] = customers_scaler.normalize_log(logs[cell + 2]);
        }
        for h in 0..horizon {
            row.norm[h] = scaler.normalize_pos(row.raw[h]);
        }
    }
    drop(logs);
    let trig = month_trig(cfg);

    let mut ds = Dataset {
        n,
        t,
        horizon,
        chunks: chunks.into_iter().map(Arc::new).collect(),
        trig,
        observed_len,
        scaler,
        orders_scaler,
        customers_scaler,
        max_model_z: 0.0,
        d_t: D_TEMPORAL,
        d_s,
        splits,
    };
    ds.max_model_z = ds
        .splits
        .train
        .iter()
        .flat_map(|&v| ds.targets_norm_row(v).iter().copied())
        .fold(TARGET_SHIFT, f32::max)
        + 1.0;
    ds
}

/// Sin/cos month-of-year table for the input window. Identical for every
/// shop (all rows map the same `in_start..fut_start` months), so it is
/// computed once per (re)build instead of twice per window row per shop.
fn month_trig(cfg: &WorldConfig) -> Vec<(f32, f32)> {
    (cfg.input_start()..cfg.horizon_start())
        .map(|m| {
            let moy = month_of_year(m) as f32;
            let angle = std::f32::consts::TAU * moy / 12.0;
            (angle.sin(), angle.cos())
        })
        .collect()
}

/// Compute one shop's dataset row from the world under the given (already
/// fitted) scalers, writing into the dataset's arena slices. This is the
/// incremental-refresh row path; the full build streams the same values
/// through its arena passes, and the
/// `refresh_of_unmutated_world_is_identity` test pins the two paths to
/// bit-identical output. Every slice element is overwritten (statics via
/// an explicit fill), so stale refresh targets cannot leak through.
/// Returns the observed window length.
fn write_node_row(
    world: &World,
    v: usize,
    scaler: &Scaler,
    orders_scaler: &Scaler,
    customers_scaler: &Scaler,
    row: RowMut<'_>,
) -> usize {
    let RowMut { series, aux, stat, raw, norm } = row;
    let cfg = &world.config;
    let t = cfg.input_window;
    let in_start = cfg.input_start();
    let fut_start = cfg.horizon_start();
    let shop = &world.shops[v];
    for (row, m) in (in_start..fut_start).enumerate() {
        let observed = m >= shop.opened;
        series[row] = if observed { scaler.normalize(shop.gmv[m]) } else { 0.0 };
        let a = &mut aux[row * D_AUX..(row + 1) * D_AUX];
        a[0] = if observed { orders_scaler.normalize(shop.orders[m]) } else { 0.0 };
        a[1] = if observed { customers_scaler.normalize(shop.customers[m]) } else { 0.0 };
    }
    stat.fill(0.0);
    stat[shop.industry as usize] = 1.0;
    stat[cfg.n_industries + shop.region as usize] = 1.0;
    stat[cfg.n_industries + cfg.n_regions] = if shop.role == Role::Supplier { 1.0 } else { 0.0 };
    // Normalised age (how much of the window is observed).
    let obs = (fut_start - in_start).saturating_sub(shop.opened.saturating_sub(in_start));
    let obs = obs.min(t);
    stat[cfg.n_industries + cfg.n_regions + 1] = obs as f32 / t as f32;

    for (h, m) in (fut_start..fut_start + cfg.horizon).enumerate() {
        raw[h] = shop.gmv[m];
        norm[h] = scaler.normalize_pos(shop.gmv[m]);
    }
    obs
}

/// Refresh a dataset after world mutations, recomputing **only** the rows in
/// `dirty` (plus any nodes appended since `prev` was built) under the frozen
/// training-time statistics of `prev`. The result shares every row chunk
/// without such a row with `prev`; only the chunks holding a recomputed row
/// are copied (see [`Dataset::unshared_bytes`]).
///
/// Freezing is the point: scalers, splits and the `max_model_z` clamp were
/// fitted when the served model was trained, and a republish that does not
/// retrain must keep feeding the model inputs in the same normalisation —
/// otherwise every clean node's features (and thus its cached embedding)
/// would silently shift. New nodes (`prev.n..world.shops.len()`) are always
/// recomputed and join the test split: they were never seen in training.
///
/// Because rows are pure per-node functions of `(world, frozen scalers)`,
/// the result is bit-identical to [`refresh_dataset_full`] whenever `dirty`
/// covers every node whose shop data changed — the feature-space half of the
/// delta-vs-full parity wall.
pub fn refresh_dataset(world: &World, prev: &Dataset, dirty: &[u32]) -> Dataset {
    let n = world.shops.len();
    assert!(n >= prev.n, "refresh_dataset: worlds only grow (n={n} < prev {})", prev.n);
    let mut ds = prev.clone();
    ds.n = n;
    let (t, horizon, d_s) = (ds.t, ds.horizon, ds.d_s);
    ds.chunks
        .resize_with(n.div_ceil(SEGMENT_NODES), || Arc::new(RowChunk::zeroed(t, horizon, d_s)));
    ds.observed_len.resize(n, 0);
    for v in prev.n..n {
        ds.splits.test.push(v);
    }
    let (scaler, orders_scaler, customers_scaler) =
        (ds.scaler, ds.orders_scaler, ds.customers_scaler);
    let recompute = dirty.iter().map(|&v| v as usize).filter(|&v| v < prev.n).chain(prev.n..n);
    for v in recompute {
        let chunk = Arc::make_mut(&mut ds.chunks[v / SEGMENT_NODES]);
        let row = chunk.row_mut(v % SEGMENT_NODES, t, horizon, d_s);
        ds.observed_len[v] =
            write_node_row(world, v, &scaler, &orders_scaler, &customers_scaler, row);
    }
    ds
}

/// Full-teardown counterpart of [`refresh_dataset`]: recompute **every**
/// row from the world under `prev`'s frozen statistics. This is the
/// reference the delta parity wall compares against — same frozen scalers,
/// no dirty-set shortcuts.
pub fn refresh_dataset_full(world: &World, prev: &Dataset) -> Dataset {
    let all: Vec<u32> = (0..prev.n as u32).collect();
    refresh_dataset(world, prev, &all)
}

/// True when **every** per-node column of shop `v`'s row — input series,
/// temporal and static features, targets, observed length — is bit-identical
/// between two datasets. This is the incremental-republish skip test: a node
/// whose row did not move cannot produce a different embedding (embeddings
/// are pure functions of the row and the kernels are deterministic), so its
/// cached entries can be carried into the next generation untouched.
/// Comparison is bitwise (`f32`/`f64` equality) over the arena row slices,
/// so `NaN`s compare unequal and force a recompute — the conservative
/// direction.
pub fn node_row_unchanged(a: &Dataset, b: &Dataset, v: usize) -> bool {
    // The stored aux columns plus `observed_len` fully determine the
    // temporal row (sin/cos come from the shared trig table, the observed
    // flag from `observed_len`), so comparing them covers all of `d_t`.
    a.gmv_row(v) == b.gmv_row(v)
        && a.observed_len[v] == b.observed_len[v]
        && a.aux_row(v) == b.aux_row(v)
        && a.statics_row(v) == b.statics_row(v)
        && a.targets_raw_row(v) == b.targets_raw_row(v)
        && a.targets_norm_row(v) == b.targets_norm_row(v)
}

impl Dataset {
    /// Shop `v`'s `f32` columns `[series | aux | statics | targets_norm]`
    /// (see [`RowChunk`]).
    #[inline]
    fn cols(&self, v: usize) -> &[f32] {
        let s = row_stride(self.t, self.horizon, self.d_s);
        let r = v % SEGMENT_NODES;
        &self.chunks[v / SEGMENT_NODES].cols[r * s..(r + 1) * s]
    }

    /// Normalised GMV input series of shop `v` (length `T`).
    #[inline]
    pub fn gmv_row(&self, v: usize) -> &[f32] {
        &self.cols(v)[..self.t]
    }

    /// Mutable view of shop `v`'s input series (ablations and tests that
    /// perturb inputs in place). Copies `v`'s chunk first if another
    /// dataset still shares it.
    #[inline]
    pub fn gmv_row_mut(&mut self, v: usize) -> &mut [f32] {
        let (t, horizon, d_s) = (self.t, self.horizon, self.d_s);
        let chunk = Arc::make_mut(&mut self.chunks[v / SEGMENT_NODES]);
        chunk.row_mut(v % SEGMENT_NODES, t, horizon, d_s).series
    }

    /// Stored auxiliary temporal columns of shop `v`: `T·2` values,
    /// row-major `[T][2]` (log-orders, log-customers).
    #[inline]
    fn aux_row(&self, v: usize) -> &[f32] {
        &self.cols(v)[self.t..self.t * (1 + D_AUX)]
    }

    /// Temporal feature `k` of input-window row `row` for shop `v`.
    /// Columns 0/1 (month sin/cos) come from the shared trig table,
    /// columns 2/3 from the stored aux arena, and column 4 (observed
    /// flag) from `observed_len` — observed months are always a suffix of
    /// the input window, so `row` is observed iff `row ≥ T − observed`.
    #[inline]
    pub fn temporal_at(&self, v: usize, row: usize, k: usize) -> f32 {
        debug_assert!(row < self.t && k < self.d_t);
        match k {
            0 => self.trig[row].0,
            1 => self.trig[row].1,
            2 | 3 => self.aux_row(v)[row * D_AUX + (k - 2)],
            _ => {
                if row >= self.t - self.observed_len[v].min(self.t) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Materialise the full `[T][d_t]` temporal feature row of shop `v`
    /// into `out` (length `T·d_t`) — the layout [`Dataset::temporal_at`]
    /// indexes into. Model input builders write this straight into pooled
    /// tape buffers (`Graph::constant_fill`), so dropping the per-shop
    /// temporal arena did not add a heap allocation to the hot path.
    pub fn write_temporal_row(&self, v: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.t * self.d_t);
        let first = self.t - self.observed_len[v].min(self.t);
        let aux = self.aux_row(v);
        for row in 0..self.t {
            let o = &mut out[row * D_TEMPORAL..(row + 1) * D_TEMPORAL];
            let (sin_m, cos_m) = self.trig[row];
            o[0] = sin_m;
            o[1] = cos_m;
            o[2] = aux[row * D_AUX];
            o[3] = aux[row * D_AUX + 1];
            o[4] = if row >= first { 1.0 } else { 0.0 };
        }
    }

    /// Static features of shop `v` (length `d_s`).
    #[inline]
    pub fn statics_row(&self, v: usize) -> &[f32] {
        let a = self.t * (1 + D_AUX);
        &self.cols(v)[a..a + self.d_s]
    }

    /// Raw currency targets of shop `v` (length `T'`).
    #[inline]
    pub fn targets_raw_row(&self, v: usize) -> &[f64] {
        let r = v % SEGMENT_NODES;
        &self.chunks[v / SEGMENT_NODES].targets_raw[r * self.horizon..(r + 1) * self.horizon]
    }

    /// Model-space targets of shop `v` (length `T'`).
    #[inline]
    pub fn targets_norm_row(&self, v: usize) -> &[f32] {
        &self.cols(v)[self.t * (1 + D_AUX) + self.d_s..]
    }

    /// Approximate resident heap bytes of the feature store: every heap
    /// block's `capacity × element size` plus a 16-byte per-allocation
    /// overhead (allocator header/rounding). Inline struct headers are
    /// counted as part of their parent block. The world-scale bench tracks
    /// this figure versus `n_shops`; a row chunk is three allocations (the
    /// `Arc` and its two arenas) per `SEGMENT_NODES` shops.
    pub fn approx_heap_bytes(&self) -> usize {
        const OVH: usize = 16;
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>() + OVH
        }
        let chunks: usize =
            self.chunks.iter().map(|c| OVH + vec_bytes(&c.cols) + vec_bytes(&c.targets_raw)).sum();
        chunks
            + vec_bytes(&self.chunks)
            + vec_bytes(&self.trig)
            + vec_bytes(&self.observed_len)
            + vec_bytes(&self.splits.train)
            + vec_bytes(&self.splits.val)
            + vec_bytes(&self.splits.test)
    }

    /// Payload bytes of one full row chunk: the unit an incremental
    /// refresh copies per touched chunk.
    pub fn chunk_bytes(&self) -> usize {
        // Every chunk holds a full `SEGMENT_NODES` rows, so any one will do.
        self.chunks.first().map_or(0, |c| c.bytes())
    }

    /// Payload bytes of the row chunks this dataset holds in allocations
    /// of its own rather than shared with `prev` (compared by address, slot
    /// by slot): what [`refresh_dataset`] copied or allocated to build it
    /// from `prev`.
    pub fn unshared_bytes(&self, prev: &Dataset) -> usize {
        self.chunks
            .iter()
            .enumerate()
            .filter(|&(k, c)| prev.chunks.get(k).is_none_or(|p| !Arc::ptr_eq(c, p)))
            .map(|(_, c)| c.bytes())
            .sum()
    }

    /// Normalised-target tensor `[1, T']` for the loss.
    pub fn target_tensor(&self, v: usize) -> Tensor {
        Tensor::from_vec(vec![1, self.horizon], self.targets_norm_row(v).to_vec())
    }

    /// Map a model-space `[1, T']` prediction back to currency per month.
    /// Values are clamped to `[0, max_model_z]` before the exponential
    /// back-transform so an untrained or overshooting model cannot produce
    /// astronomically large currency values.
    pub fn denormalize_prediction(&self, pred: &Tensor) -> Vec<f64> {
        pred.data()
            .iter()
            .map(|&z| self.scaler.denormalize_pos(z.min(self.max_model_z)).max(0.0))
            .collect()
    }

    /// Shop ids in the test split whose observed window length is below
    /// `threshold` ("New Shop Group" of Fig 3) and the rest ("Old Shop
    /// Group").
    pub fn new_old_groups(&self, threshold: usize) -> (Vec<usize>, Vec<usize>) {
        let mut new_group = Vec::new();
        let mut old_group = Vec::new();
        for &v in &self.splits.test {
            if self.observed_len[v] < threshold {
                new_group.push(v);
            } else {
                old_group.push(v);
            }
        }
        (new_group, old_group)
    }
}

/// Convenience: generate a world and its dataset in one call.
pub fn generate_dataset(cfg: WorldConfig) -> (World, Dataset) {
    let world = World::generate(cfg);
    let ds = build_dataset(&world);
    (world, ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> (World, Dataset) {
        generate_dataset(WorldConfig::tiny())
    }

    #[test]
    fn scaler_roundtrip() {
        let s = Scaler::fit([10.0, 100.0, 1000.0, 250000.0].into_iter());
        for raw in [5.0, 500.0, 50_000.0] {
            let z = s.normalize(raw);
            let back = s.denormalize(z);
            assert!((back - raw).abs() / raw < 1e-3, "{raw} -> {z} -> {back}");
        }
    }

    #[test]
    fn pos_scaler_roundtrip_and_nonnegative() {
        let s = Scaler::fit([10.0, 100.0, 1000.0, 250000.0].into_iter());
        for raw in [5.0, 500.0, 50_000.0] {
            let z = s.normalize_pos(raw);
            assert!(z >= 0.0);
            let back = s.denormalize_pos(z);
            assert!((back - raw).abs() / raw < 1e-3, "{raw} -> {z} -> {back}");
        }
        // Negative model outputs clamp to zero currency.
        assert_eq!(s.denormalize_pos(-1.0), 0.0);
    }

    #[test]
    fn shapes_consistent() {
        let (world, ds) = dataset();
        assert_eq!(ds.n, world.shops.len());
        let mut trow = vec![0.0f32; ds.t * ds.d_t];
        for v in 0..ds.n {
            assert_eq!(ds.gmv_row(v).len(), ds.t);
            ds.write_temporal_row(v, &mut trow);
            for row in 0..ds.t {
                for k in 0..ds.d_t {
                    assert_eq!(trow[row * ds.d_t + k], ds.temporal_at(v, row, k));
                }
            }
            assert_eq!(ds.statics_row(v).len(), ds.d_s);
            assert_eq!(ds.targets_raw_row(v).len(), ds.horizon);
            assert_eq!(ds.targets_norm_row(v).len(), ds.horizon);
        }
    }

    #[test]
    fn splits_partition_everything() {
        let (_, ds) = dataset();
        let mut seen = vec![false; ds.n];
        for &v in ds.splits.train.iter().chain(&ds.splits.val).chain(&ds.splits.test) {
            assert!(!seen[v], "shop {v} in two splits");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shop missing from splits");
    }

    #[test]
    fn unobserved_months_are_zeroed_and_masked() {
        let (world, ds) = dataset();
        let in_start = world.config.input_start();
        for v in 0..ds.n {
            let shop = &world.shops[v];
            for row in 0..ds.t {
                let m = in_start + row;
                if m < shop.opened {
                    assert_eq!(ds.gmv_row(v)[row], 0.0);
                    assert_eq!(ds.temporal_at(v, row, 4), 0.0);
                } else {
                    assert_eq!(ds.temporal_at(v, row, 4), 1.0);
                }
            }
        }
    }

    #[test]
    fn static_one_hots_sum_to_two_plus_extras() {
        let (world, ds) = dataset();
        for v in 0..ds.n {
            let s = ds.statics_row(v);
            let ind_sum: f32 = s[..world.config.n_industries].iter().sum();
            let reg_sum: f32 =
                s[world.config.n_industries..][..world.config.n_regions].iter().sum();
            assert_eq!(ind_sum, 1.0);
            assert_eq!(reg_sum, 1.0);
        }
    }

    #[test]
    fn targets_are_future_months() {
        let (world, ds) = dataset();
        let fut = world.config.horizon_start();
        for v in 0..ds.n.min(10) {
            for h in 0..ds.horizon {
                assert_eq!(ds.targets_raw_row(v)[h], world.shops[v].gmv[fut + h]);
            }
        }
    }

    /// The month sin/cos table must reproduce the per-row trig calls it
    /// hoisted bit-for-bit (same f32 expression per month index).
    #[test]
    fn month_trig_matches_per_row_expression() {
        let cfg = WorldConfig::tiny();
        let trig = month_trig(&cfg);
        for (row, m) in (cfg.input_start()..cfg.horizon_start()).enumerate() {
            let moy = month_of_year(m) as f32;
            assert_eq!(trig[row].0.to_bits(), (std::f32::consts::TAU * moy / 12.0).sin().to_bits());
            assert_eq!(trig[row].1.to_bits(), (std::f32::consts::TAU * moy / 12.0).cos().to_bits());
        }
    }

    /// The fused arena fit in `build_dataset` (sums accumulated straight
    /// off the log arenas, no gather copy) must produce bit-identical
    /// scalers to the public `Scaler::fit` iterator path over the same
    /// observed training cells in the same shuffled order.
    #[test]
    fn fused_arena_fit_matches_scaler_fit() {
        let (world, ds) = generate_dataset(WorldConfig { n_shops: 300, ..WorldConfig::default() });
        let in_start = world.config.input_start();
        let fut_start = world.config.horizon_start();
        let (mut gmv, mut ord, mut cust) = (Vec::new(), Vec::new(), Vec::new());
        for &v in &ds.splits.train {
            let shop = &world.shops[v];
            for m in in_start..fut_start {
                if m >= shop.opened {
                    gmv.push(shop.gmv[m]);
                    ord.push(shop.orders[m]);
                    cust.push(shop.customers[m]);
                }
            }
        }
        for (got, expect) in [
            (ds.scaler, Scaler::fit(gmv.into_iter())),
            (ds.orders_scaler, Scaler::fit(ord.into_iter())),
            (ds.customers_scaler, Scaler::fit(cust.into_iter())),
        ] {
            assert_eq!(got.mean.to_bits(), expect.mean.to_bits());
            assert_eq!(got.std.to_bits(), expect.std.to_bits());
        }
    }

    #[test]
    fn new_old_grouping_respects_threshold() {
        let (_, ds) = dataset();
        let (new_g, old_g) = ds.new_old_groups(10);
        for &v in &new_g {
            assert!(ds.observed_len[v] < 10);
        }
        for &v in &old_g {
            assert!(ds.observed_len[v] >= 10);
        }
        assert_eq!(new_g.len() + old_g.len(), ds.splits.test.len());
    }

    fn datasets_bit_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.n, b.n);
        let (mut ta, mut tb) = (vec![0.0f32; a.t * a.d_t], vec![0.0f32; b.t * b.d_t]);
        for v in 0..a.n {
            assert_eq!(a.gmv_row(v), b.gmv_row(v), "gmv_norm row {v}");
            a.write_temporal_row(v, &mut ta);
            b.write_temporal_row(v, &mut tb);
            assert_eq!(ta, tb, "temporal row {v}");
            assert_eq!(a.statics_row(v), b.statics_row(v), "statics row {v}");
            assert_eq!(a.targets_norm_row(v), b.targets_norm_row(v), "targets row {v}");
            assert_eq!(a.observed_len[v], b.observed_len[v], "observed_len row {v}");
        }
        assert_eq!(a.max_model_z, b.max_model_z);
        assert_eq!(a.splits.train, b.splits.train);
        assert_eq!(a.splits.test, b.splits.test);
    }

    #[test]
    fn refresh_of_unmutated_world_is_identity() {
        let (world, ds) = dataset();
        datasets_bit_identical(&refresh_dataset(&world, &ds, &[]), &ds);
        datasets_bit_identical(&refresh_dataset_full(&world, &ds), &ds);
    }

    #[test]
    fn dirty_refresh_matches_full_refresh_after_mutations() {
        use crate::mutate::{MonthlySales, NewShop};
        use crate::world::Role;
        let (mut world, ds) = dataset();
        // A window longer than the horizon reaches back into the input
        // months, so both the inputs and the targets of shop 2 change.
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 9e4 + i as f64, orders: 120.0, customers: 80.0 })
            .collect();
        world.record_sales(2, &window);
        world.add_shop(NewShop {
            industry: 0,
            region: 0,
            role: Role::Retailer,
            owner: world.shops[5].owner,
            lead: 0,
        });
        let dirty = world.take_dirty();
        let delta = refresh_dataset(&world, &ds, dirty.nodes());
        let full = refresh_dataset_full(&world, &ds);
        datasets_bit_identical(&delta, &full);
        // The new shop joined the test split with an all-unobserved window.
        let new_id = ds.n;
        assert_eq!(delta.n, ds.n + 1);
        assert!(delta.splits.test.contains(&new_id));
        assert_eq!(delta.observed_len[new_id], 0);
        assert!(delta.gmv_row(new_id).iter().all(|&z| z == 0.0));
        // Frozen statistics carried over from the pre-mutation build.
        assert_eq!(delta.scaler.mean, ds.scaler.mean);
        assert_eq!(delta.max_model_z, ds.max_model_z);
        // And the dirty row actually changed, inputs and targets both.
        assert_ne!(delta.gmv_row(2), ds.gmv_row(2));
        assert_ne!(delta.targets_norm_row(2), ds.targets_norm_row(2));
    }

    #[test]
    fn refresh_without_the_dirty_row_leaves_it_stale() {
        // Negative control: the parity above is meaningful only because a
        // missing dirty id would produce a different dataset.
        use crate::mutate::MonthlySales;
        let (mut world, ds) = dataset();
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 9e4 + i as f64, orders: 120.0, customers: 80.0 })
            .collect();
        world.record_sales(2, &window);
        let stale = refresh_dataset(&world, &ds, &[]);
        assert_eq!(stale.gmv_row(2), ds.gmv_row(2));
        let fresh = refresh_dataset(&world, &ds, &[2]);
        assert_ne!(fresh.gmv_row(2), ds.gmv_row(2));
    }

    /// `node_row_unchanged` detects exactly the rows a refresh moved: the
    /// republish path uses it to skip recomputing embeddings for closure
    /// nodes whose inputs did not actually change.
    #[test]
    fn node_row_unchanged_flags_only_moved_rows() {
        use crate::mutate::MonthlySales;
        let (mut world, ds) = dataset();
        for v in 0..ds.n {
            assert!(node_row_unchanged(&ds, &ds, v), "identity must compare unchanged at {v}");
        }
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 7e4 + i as f64, orders: 90.0, customers: 60.0 })
            .collect();
        world.record_sales(3, &window);
        let fresh = refresh_dataset(&world, &ds, &[3]);
        assert!(!node_row_unchanged(&fresh, &ds, 3), "rewritten row must compare changed");
        for v in (0..ds.n).filter(|&v| v != 3) {
            assert!(node_row_unchanged(&fresh, &ds, v), "untouched row {v} compared changed");
        }
        // A dirty mark whose underlying data never moved refreshes to a
        // bit-identical row — the skip test must see through it.
        let remark = refresh_dataset(&world, &fresh, &[5]);
        assert!(node_row_unchanged(&remark, &fresh, 5));
    }

    /// A refresh is copy-on-write per row chunk: the chunk holding the
    /// rewritten row (and the one an appended shop lands in) is copied,
    /// every other chunk stays the previous dataset's allocation.
    #[test]
    fn refresh_copies_only_the_chunks_it_rewrites() {
        use crate::mutate::{MonthlySales, NewShop};
        let (mut world, ds) = dataset();
        assert!(ds.n > 2 * SEGMENT_NODES, "the probe needs a clean chunk between the writes");
        assert_eq!(refresh_dataset(&world, &ds, &[]).unshared_bytes(&ds), 0);
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 6e4 + i as f64, orders: 70.0, customers: 30.0 })
            .collect();
        let before = ds.gmv_row(2).to_vec();
        world.record_sales(2, &window);
        let dirty = world.take_dirty();
        let fresh = refresh_dataset(&world, &ds, dirty.nodes());
        assert_eq!(fresh.unshared_bytes(&ds), ds.chunk_bytes());
        for k in 1..ds.chunks.len() {
            assert!(Arc::ptr_eq(&fresh.chunks[k], &ds.chunks[k]), "clean chunk {k} copied");
        }
        // The previous dataset still reads its own row.
        assert_ne!(fresh.gmv_row(2), ds.gmv_row(2));
        assert_eq!(ds.gmv_row(2), &before[..]);
        // An appended shop lands in the last chunk (or a new one).
        world.add_shop(NewShop {
            industry: 0,
            region: 0,
            role: Role::Retailer,
            owner: u32::MAX,
            lead: 0,
        });
        let grown = refresh_dataset(&world, &fresh, world.dirty().nodes());
        assert_eq!(grown.unshared_bytes(&fresh), grown.chunk_bytes());
        assert_eq!(grown.chunks.len(), grown.n.div_ceil(SEGMENT_NODES));
        assert!(Arc::ptr_eq(&grown.chunks[0], &fresh.chunks[0]));
    }

    #[test]
    fn denormalize_prediction_is_positive() {
        let (_, ds) = dataset();
        let pred = Tensor::from_vec(vec![1, 3], vec![3.0, 4.0, 4.5]);
        let out = ds.denormalize_prediction(&pred);
        assert!(out.iter().all(|&x| x >= 0.0));
        assert!(out[2] > out[1] && out[1] > out[0]);
        // Overshoot is clamped, not exploded.
        let wild = Tensor::from_vec(vec![1, 3], vec![50.0, 50.0, 50.0]);
        let capped = ds.denormalize_prediction(&wild);
        assert!(capped[0] <= ds.scaler.denormalize_pos(ds.max_model_z) + 1.0);
    }
}
