//! The common interface every gradient-trained forecaster implements (Gaia
//! and all neural baselines), so one trainer/predictor drives them all and
//! Table I compares like with like.

use gaia_graph::{EgoConfig, EgoSubgraph};
use gaia_nn::ParamStore;
use gaia_synth::Dataset;
use gaia_tensor::{Graph, Tensor, VarId};

/// Slots of the per-node **layer-0 projection cache** (see
/// [`EmbedCache::proj_constant`]): the CAU's Q/K/V conv projections and the
/// ITA aggregation gate's source/destination projections, all evaluated on
/// the node's embedding `E_v`. Like `E_v` itself, these depend only on the
/// node's features and the parameters — never on the ego subgraph — so the
/// serving path can precompute them at publish time and skip the
/// per-request convolutions entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProjSlot {
    /// `Q_v = L^Q ⋆ E_v` (`[T, C]`, used when `v` aggregates).
    Q,
    /// `K_v = L^K ⋆ E_v` (`[T, C]`).
    K,
    /// `V_v = L^V ⋆ E_v` (`[T, C]`).
    V,
    /// Gate source projection `L^s ⋆ E_v` (`[T, 1]`).
    GateSrc,
    /// Gate destination projection `L^d ⋆ E_v` (`[T, 1]`).
    GateDst,
}

/// Nodes per copy-on-write cache segment (see [`EmbedCache`]): contiguous
/// node-id ranges `[k·SEGMENT_NODES, (k+1)·SEGMENT_NODES)` share one
/// `Arc`'d chunk, so an incremental republish re-allocates only the chunks
/// a dirty node lands in. The same granularity as the dataset's row chunks
/// (the constant is defined next to them, in `gaia_synth`).
pub use gaia_synth::SEGMENT_NODES;

// Segment presence masks are one `u64` bit per node.
const _: () = assert!(SEGMENT_NODES <= 64);

/// Element type of the frozen cache blocks: raw `f32` by default, IEEE 754
/// binary16 bits under the opt-in `embed-f16` feature (half the resident
/// bytes, dequantised into pooled tape buffers on read).
#[cfg(not(feature = "embed-f16"))]
type CacheElem = f32;
/// Element type of the frozen cache blocks (binary16 bits — see
/// [`crate::half`]).
#[cfg(feature = "embed-f16")]
type CacheElem = u16;

#[cfg(not(feature = "embed-f16"))]
#[inline]
fn encode_elem(x: f32) -> CacheElem {
    x
}
#[cfg(feature = "embed-f16")]
#[inline]
fn encode_elem(x: f32) -> CacheElem {
    crate::half::f32_to_f16(x)
}

#[cfg(not(feature = "embed-f16"))]
#[inline]
fn decode_elem(q: CacheElem) -> f32 {
    q
}
#[cfg(feature = "embed-f16")]
#[inline]
fn decode_elem(q: CacheElem) -> f32 {
    crate::half::f16_to_f32(q)
}

/// Elements one node occupies in a segment block for embedding dims
/// `(t, c)`: embed `[T,C]`, Q/K/V `[T,C]` each, two gate projections
/// `[T,1]` each, at the fixed offsets of [`slot_span`].
#[inline]
fn node_stride(t: usize, c: usize) -> usize {
    4 * t * c + 2 * t
}

/// `(offset, rows, cols)` of a projection slot inside a node's block.
#[inline]
fn slot_span(t: usize, c: usize, slot: ProjSlot) -> (usize, usize, usize) {
    let tc = t * c;
    match slot {
        ProjSlot::Q => (tc, t, c),
        ProjSlot::K => (2 * tc, t, c),
        ProjSlot::V => (3 * tc, t, c),
        ProjSlot::GateSrc => (4 * tc, t, 1),
        ProjSlot::GateDst => (4 * tc + t, t, 1),
    }
}

/// One shared chunk of [`SEGMENT_NODES`] consecutive nodes: embedding
/// values and layer-0 projections together in **one contiguous block** at
/// fixed per-node strides (node `off`'s embed at `off·stride`, projections
/// at [`slot_span`] offsets behind it), so an epoch either owns a segment's
/// storage — a single allocation — or shares all of it with the previous
/// epoch. Presence is tracked per node in the bit masks; absent entries
/// leave their lanes zeroed.
#[derive(Clone, Debug)]
struct Segment {
    data: Vec<CacheElem>,
    embed_mask: u64,
    proj_masks: [u64; 5],
}

impl Segment {
    fn empty(stride: usize) -> Self {
        Self {
            data: vec![Default::default(); SEGMENT_NODES * stride],
            embed_mask: 0,
            proj_masks: [0; 5],
        }
    }
}

/// Stacked f32 payloads of one publish block for
/// [`EmbedCache::insert_block`]: member `i` of each slice is node
/// `nodes[i]`'s value, exactly as read off the batched publish tape —
/// embeddings and Q/K/V at stride `T·C`, the gate projections at stride
/// `T`.
pub struct BlockValues<'a> {
    /// Stacked `[B, T, C]` embeddings.
    pub embed: &'a [f32],
    /// Stacked `[B, T, C]` CAU query projections.
    pub q: &'a [f32],
    /// Stacked `[B, T, C]` CAU key projections.
    pub k: &'a [f32],
    /// Stacked `[B, T, C]` CAU value projections.
    pub v: &'a [f32],
    /// Stacked `[B, T, 1]` gate source projections.
    pub gate_src: &'a [f32],
    /// Stacked `[B, T, 1]` gate destination projections.
    pub gate_dst: &'a [f32],
}

/// Published per-node cache of embedding *values* (FFL → TEL output,
/// `E_v: [T, C]`) and the layer-0 projections of `E_v` (see [`ProjSlot`]),
/// read by inference-only forward passes.
///
/// Every entry depends only on the node's features and the model
/// parameters — not on the ego subgraph it appears in — so a cache built
/// once at publish time serves every request of that generation. The
/// publisher writes it ([`EmbedCache::insert_block`]), combines worker
/// outputs ([`EmbedCache::merge_disjoint`]) and slices it per shard
/// ([`EmbedCache::retain_segments`]); the request path only borrows it.
/// A lookup that misses is computed on the request's tape and not stored.
///
/// Storage is segmented copy-on-write: cloning is a vector of `Arc` bumps,
/// and a write clones only the segments it touches, so successive
/// generations share every clean segment's heap allocation.
#[derive(Clone, Debug, Default)]
pub struct EmbedCache {
    /// Segment `k` covers nodes `[k·SEGMENT_NODES, (k+1)·SEGMENT_NODES)`.
    segments: Vec<Option<std::sync::Arc<Segment>>>,
    /// Embedding dims `(T, C)` of the blocks, fixed by the first write.
    dims: Option<(usize, usize)>,
}

impl EmbedCache {
    /// Empty cache.
    pub const fn new() -> Self {
        Self { segments: Vec::new(), dims: None }
    }

    /// Segment index covering `node`.
    pub fn segment_of(node: usize) -> usize {
        node / SEGMENT_NODES
    }

    /// Number of segment slots (the highest populated node's segment plus
    /// one).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Stable address of segment `seg`'s storage, if populated. Two epochs
    /// returning the same address for a segment **share** that segment's
    /// heap allocation — the observable the zero-alloc copy-on-write tests
    /// pin.
    pub fn segment_addr(&self, seg: usize) -> Option<usize> {
        self.segments
            .get(seg)
            .and_then(|s| s.as_ref())
            .map(|arc| std::sync::Arc::as_ptr(arc) as usize)
    }

    /// Flat element span of `node`'s embedding, if present.
    fn embed_span(&self, node: usize) -> Option<&[CacheElem]> {
        let (t, c) = self.dims?;
        let seg = self.segments.get(Self::segment_of(node))?.as_ref()?;
        let off = node % SEGMENT_NODES;
        if seg.embed_mask >> off & 1 == 0 {
            return None;
        }
        let stride = node_stride(t, c);
        Some(&seg.data[off * stride..off * stride + t * c])
    }

    /// Flat element span of `node`'s projection `slot` plus its
    /// `[rows, cols]` shape, if present.
    fn proj_span(&self, node: usize, slot: ProjSlot) -> Option<(&[CacheElem], usize, usize)> {
        let (t, c) = self.dims?;
        let seg = self.segments.get(Self::segment_of(node))?.as_ref()?;
        let off = node % SEGMENT_NODES;
        if seg.proj_masks[slot as usize] >> off & 1 == 0 {
            return None;
        }
        let (offset, rows, cols) = slot_span(t, c, slot);
        let start = off * node_stride(t, c) + offset;
        Some((&seg.data[start..start + rows * cols], rows, cols))
    }

    /// True when `node`'s embedding is cached.
    pub fn has_embed(&self, node: usize) -> bool {
        self.embed_span(node).is_some()
    }

    /// True when projection `slot` of `node` is cached.
    pub fn has_proj(&self, node: usize, slot: ProjSlot) -> bool {
        self.proj_span(node, slot).is_some()
    }

    /// Enter `node`'s cached embedding on the tape as a pooled `[T, C]`
    /// constant, if present: a (dequantising) fill straight from the
    /// segment block, no staging allocation, so the serving steady state
    /// stays zero-alloc.
    pub fn embed_constant(&self, g: &mut Graph, node: usize) -> Option<VarId> {
        let (t, c) = self.dims?;
        let span = self.embed_span(node)?;
        Some(constant_from_span(g, span, t, c))
    }

    /// Enter `node`'s cached layer-0 projection `slot` on the tape as a
    /// pooled constant, if present.
    pub fn proj_constant(&self, g: &mut Graph, node: usize, slot: ProjSlot) -> Option<VarId> {
        let (span, rows, cols) = self.proj_span(node, slot)?;
        Some(constant_from_span(g, span, rows, cols))
    }

    /// Owned f32 copy of `node`'s cached embedding — the test/debug read
    /// path.
    pub fn embed_vec(&self, node: usize) -> Option<Vec<f32>> {
        Some(self.embed_span(node)?.iter().map(|&q| decode_elem(q)).collect())
    }

    /// Owned f32 copy of `node`'s cached projection `slot`, if present.
    pub fn proj_vec(&self, node: usize, slot: ProjSlot) -> Option<Vec<f32>> {
        Some(self.proj_span(node, slot)?.0.iter().map(|&q| decode_elem(q)).collect())
    }

    /// Number of nodes with a cached embedding.
    pub fn len(&self) -> usize {
        self.segments.iter().flatten().map(|seg| seg.embed_mask.count_ones() as usize).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes with at least one cached projection slot.
    pub fn cached_projections(&self) -> usize {
        self.segments
            .iter()
            .flatten()
            .map(|seg| seg.proj_masks.iter().fold(0u64, |acc, &m| acc | m).count_ones() as usize)
            .sum()
    }

    /// Payload bytes of one segment block at this cache's dims
    /// (`SEGMENT_NODES` nodes' embedding and projection lanes): the unit a
    /// copy-on-write republish copies per touched segment. Zero before the
    /// first write fixes the dims.
    pub fn segment_bytes(&self) -> usize {
        self.dims.map_or(0, |(t, c)| {
            SEGMENT_NODES * node_stride(t, c) * std::mem::size_of::<CacheElem>()
        })
    }

    /// Payload bytes of the segments this cache holds in allocations of its
    /// own rather than shared with `prev` (compared by address, slot by
    /// slot): what a copy-on-write republish from `prev` copied or
    /// allocated.
    pub fn unshared_bytes(&self, prev: &EmbedCache) -> usize {
        self.segments
            .iter()
            .enumerate()
            .filter_map(|(k, seg)| {
                let seg = seg.as_ref()?;
                let shared = prev.segments.get(k).and_then(|p| p.as_ref());
                let copied = shared.is_none_or(|p| !std::sync::Arc::ptr_eq(seg, p));
                copied.then(|| seg.data.len() * std::mem::size_of::<CacheElem>())
            })
            .sum()
    }

    /// Approximate resident heap bytes of the cache: every heap block's
    /// `capacity × element size` plus a 16-byte per-allocation overhead,
    /// inline headers counted as part of their parent block. Each segment
    /// is one contiguous block (two allocations with the `Arc`), so the
    /// world-scale bench sees per-node cost collapse to the element
    /// payload itself.
    pub fn approx_heap_bytes(&self) -> usize {
        const OVH: usize = 16;
        let mut bytes =
            self.segments.capacity() * std::mem::size_of::<Option<std::sync::Arc<Segment>>>() + OVH;
        for seg in self.segments.iter().flatten() {
            bytes += OVH; // the Arc allocation (header + inline Segment)
            bytes += seg.data.capacity() * std::mem::size_of::<CacheElem>() + OVH;
        }
        bytes
    }

    /// Bulk-insert a publish **block** — the only way entries enter a
    /// cache: the stacked embeddings and all five layer-0 projection lanes
    /// of `nodes` land in the segment storage in one pass, one segment
    /// lookup per touched segment and one copy-on-write clone at most.
    /// `nodes` must be sorted ascending (the block drivers produce sorted
    /// node ranges / recompute lists), so segment grouping is a linear
    /// scan.
    ///
    /// Copy-on-write: a segment still shared with a previous epoch is
    /// cloned before the first write (the old epoch's readers never observe
    /// the new values), while a segment this cache already owns is written
    /// in place — so a multi-block publish touches each segment's storage
    /// once.
    pub fn insert_block(&mut self, nodes: &[usize], t: usize, c: usize, vals: &BlockValues<'_>) {
        let b = nodes.len();
        let tc = t * c;
        assert!(nodes.windows(2).all(|w| w[0] < w[1]), "insert_block: nodes must be sorted");
        assert_eq!(vals.embed.len(), b * tc, "insert_block: embed payload size");
        assert_eq!(vals.q.len(), b * tc, "insert_block: Q payload size");
        assert_eq!(vals.k.len(), b * tc, "insert_block: K payload size");
        assert_eq!(vals.v.len(), b * tc, "insert_block: V payload size");
        assert_eq!(vals.gate_src.len(), b * t, "insert_block: gate-src payload size");
        assert_eq!(vals.gate_dst.len(), b * t, "insert_block: gate-dst payload size");
        match self.dims {
            Some(dims) => assert_eq!(dims, (t, c), "insert_block: dims mismatch"),
            None => self.dims = Some((t, c)),
        }
        let stride = node_stride(t, c);
        if let Some(&max) = nodes.last() {
            let max_seg = Self::segment_of(max);
            if self.segments.len() <= max_seg {
                self.segments.resize(max_seg + 1, None);
            }
        }
        let mut i = 0;
        while i < b {
            let seg_idx = Self::segment_of(nodes[i]);
            let arc = self.segments[seg_idx]
                .get_or_insert_with(|| std::sync::Arc::new(Segment::empty(stride)));
            assert_eq!(arc.data.len(), SEGMENT_NODES * stride, "insert_block: stride mismatch");
            let seg = std::sync::Arc::make_mut(arc);
            while i < b && Self::segment_of(nodes[i]) == seg_idx {
                let off = nodes[i] % SEGMENT_NODES;
                let block = off * stride;
                encode_into(&mut seg.data[block..block + tc], &vals.embed[i * tc..(i + 1) * tc]);
                seg.embed_mask |= 1 << off;
                for (slot, src) in
                    [(ProjSlot::Q, vals.q), (ProjSlot::K, vals.k), (ProjSlot::V, vals.v)]
                {
                    let (offset, ..) = slot_span(t, c, slot);
                    let start = block + offset;
                    encode_into(&mut seg.data[start..start + tc], &src[i * tc..(i + 1) * tc]);
                    seg.proj_masks[slot as usize] |= 1 << off;
                }
                for (slot, src) in
                    [(ProjSlot::GateSrc, vals.gate_src), (ProjSlot::GateDst, vals.gate_dst)]
                {
                    let (offset, ..) = slot_span(t, c, slot);
                    let start = block + offset;
                    encode_into(&mut seg.data[start..start + t], &src[i * t..(i + 1) * t]);
                    seg.proj_masks[slot as usize] |= 1 << off;
                }
                i += 1;
            }
        }
    }

    /// Merge another cache produced over a **disjoint** node range (a
    /// parallel publish worker's output) into this one by moving its
    /// segment `Arc`s — no payload copies. Panics if both caches populate
    /// the same segment: the block drivers chunk worker ranges on
    /// [`SEGMENT_NODES`] boundaries precisely so this can never happen.
    pub fn merge_disjoint(&mut self, other: EmbedCache) {
        match (self.dims, other.dims) {
            (Some(a), Some(b)) => assert_eq!(a, b, "merge_disjoint: dims mismatch"),
            (None, Some(b)) => self.dims = Some(b),
            _ => {}
        }
        if self.segments.len() < other.segments.len() {
            self.segments.resize(other.segments.len(), None);
        }
        for (seg_idx, arc) in other.segments.into_iter().enumerate() {
            if let Some(arc) = arc {
                assert!(
                    self.segments[seg_idx].is_none(),
                    "merge_disjoint: segment {seg_idx} populated in both caches"
                );
                self.segments[seg_idx] = Some(arc);
            }
        }
    }

    /// Shard slice of a cache: keep only the segments `keep` selects,
    /// dropping the rest. Kept segments are `Arc` bumps of the **same
    /// allocations** — [`EmbedCache::segment_addr`] returns identical
    /// addresses for them, so per-shard slices of one publish (and
    /// successive slices of copy-on-write republishes) share every retained
    /// chunk's heap storage with the master cache and with each other.
    /// Dropped segments read as absent; a lookup there falls back to the
    /// caller's compute path exactly like an unpopulated cache.
    pub fn retain_segments(&self, keep: impl Fn(usize) -> bool) -> Self {
        Self {
            segments: self
                .segments
                .iter()
                .enumerate()
                .map(|(seg, arc)| if keep(seg) { arc.clone() } else { None })
                .collect(),
            dims: self.dims,
        }
    }
}

/// Encode an f32 tensor payload into a frozen block span.
#[inline]
fn encode_into(dst: &mut [CacheElem], src: &[f32]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = encode_elem(x);
    }
}

/// Enter a frozen element span on the tape as a pooled `[rows, cols]`
/// constant: a straight pooled slice copy on the f32 tier, a dequantising
/// [`Graph::constant_fill`] on the `embed-f16` tier.
#[cfg(not(feature = "embed-f16"))]
fn constant_from_span(g: &mut Graph, span: &[CacheElem], rows: usize, cols: usize) -> VarId {
    g.constant_slice(&[rows, cols], span)
}
/// Enter a frozen element span on the tape as a pooled `[rows, cols]`
/// constant (dequantising fill — see [`crate::half`]).
#[cfg(feature = "embed-f16")]
fn constant_from_span(g: &mut Graph, span: &[CacheElem], rows: usize, cols: usize) -> VarId {
    g.constant_fill(&[rows, cols], |buf| {
        for (d, &q) in buf.iter_mut().zip(span) {
            *d = decode_elem(q);
        }
    })
}

/// A model that predicts a centre shop's future GMV from its ego subgraph.
pub trait GraphForecaster: Sync {
    /// Display name (Table I row label).
    fn name(&self) -> &str;

    /// Parameter store (read access for forward passes).
    fn params(&self) -> &ParamStore;

    /// Parameter store (mutable access for the optimiser).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Ego-subgraph extraction the model wants (pure sequence models use
    /// `hops = 0`).
    fn ego_config(&self) -> EgoConfig;

    /// Build the forward pass for the centre node of `ego` on tape `g`,
    /// returning the `[1, horizon]` prediction in model (positive-log) space.
    fn forward_center(&self, g: &mut Graph, ds: &Dataset, ego: &EgoSubgraph) -> VarId;

    /// Inference-only forward pass that may read per-node embedding values
    /// from the published `cache`; a miss is computed on the tape. Must
    /// return bit-identical values to [`GraphForecaster::forward_center`];
    /// gradients need not flow through cached sub-expressions, so this must
    /// never be used for training. The default implementation ignores the
    /// cache.
    fn forward_center_cached(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        ego: &EgoSubgraph,
        _cache: &EmbedCache,
    ) -> VarId {
        self.forward_center(g, ds, ego)
    }

    /// Batched inference pass: build the forward graphs of several
    /// requests on **one** tape, returning one `[1, horizon]` prediction
    /// node per ego subgraph (in input order).
    ///
    /// Contract: the outputs must be element-wise **bit-identical** to
    /// calling [`GraphForecaster::forward_center_cached`] once per ego —
    /// batching may only amortise work (shared tape, hoisted invariant
    /// projections, stacked kernels), never change the arithmetic. The
    /// default implementation is that per-ego loop; models override it
    /// with a genuinely batched graph (see `Gaia`).
    fn forward_centers_cached(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        egos: &[&EgoSubgraph],
        cache: &EmbedCache,
    ) -> Vec<VarId> {
        egos.iter().map(|ego| self.forward_center_cached(g, ds, ego, cache)).collect()
    }
}

/// Helpers shared by model implementations.
pub mod inputs {
    use super::*;

    /// The centre/neighbour input triple for one local node of an ego
    /// subgraph: `(z: [T, 1], f_t: [T, d_t], f_s: [1, d_s])` as constants.
    /// Inputs enter the tape as pooled copies, so a reset-reused tape feeds
    /// them in without fresh allocations.
    pub fn node_inputs(g: &mut Graph, ds: &Dataset, node: usize) -> (VarId, VarId, VarId) {
        let z = g.constant_slice(&[ds.t, 1], ds.gmv_row(node));
        // The temporal row is materialised straight into the pooled tape
        // buffer — the dataset stores only its scaler-dependent columns.
        let f_t = g.constant_fill(&[ds.t, ds.d_t], |buf| ds.write_temporal_row(node, buf));
        let f_s = g.constant_slice(&[1, ds.d_s], ds.statics_row(node));
        (z, f_t, f_s)
    }

    /// Stacked input triple for a publish **block** of nodes:
    /// `(z: [B, T, 1], f_t: [B, T, d_t], f_s: [B, 1, d_s])` as rank-3
    /// pooled constants. Member `i` holds exactly the bytes
    /// [`node_inputs`] would enter for `nodes[i]`, so a batched forward
    /// over the stack starts from bit-identical inputs.
    pub fn node_inputs_batched(
        g: &mut Graph,
        ds: &Dataset,
        nodes: &[usize],
    ) -> (VarId, VarId, VarId) {
        let b = nodes.len();
        let z = g.constant_fill(&[b, ds.t, 1], |buf| {
            for (dst, &node) in buf.chunks_mut(ds.t).zip(nodes) {
                dst.copy_from_slice(ds.gmv_row(node));
            }
        });
        let f_t = g.constant_fill(&[b, ds.t, ds.d_t], |buf| {
            for (dst, &node) in buf.chunks_mut(ds.t * ds.d_t).zip(nodes) {
                ds.write_temporal_row(node, dst);
            }
        });
        let f_s = g.constant_fill(&[b, 1, ds.d_s], |buf| {
            for (dst, &node) in buf.chunks_mut(ds.d_s).zip(nodes) {
                dst.copy_from_slice(ds.statics_row(node));
            }
        });
        (z, f_t, f_s)
    }

    /// Flat `[1, T * (1 + d_t) + d_s]` feature row for models that treat the
    /// window as a static feature vector (GAT/GraphSAGE/GeniePath).
    pub fn flat_features(g: &mut Graph, ds: &Dataset, node: usize) -> VarId {
        let mut data = Vec::with_capacity(ds.t * (1 + ds.d_t) + ds.d_s);
        for t in 0..ds.t {
            data.push(ds.gmv_row(node)[t]);
            for k in 0..ds.d_t {
                data.push(ds.temporal_at(node, t, k));
            }
        }
        data.extend_from_slice(ds.statics_row(node));
        let width = data.len();
        g.constant(Tensor::from_vec(vec![1, width], data))
    }

    /// Width of [`flat_features`] rows for a dataset.
    pub fn flat_width(ds: &Dataset) -> usize {
        ds.t * (1 + ds.d_t) + ds.d_s
    }

    /// `[T, 1 + d_t]` window matrix (GMV column plus temporal features) for
    /// sequence models (LogTrans, STGCN, GMAN, MTGNN).
    pub fn window_matrix(g: &mut Graph, ds: &Dataset, node: usize) -> VarId {
        let cols = 1 + ds.d_t;
        let mut data = Vec::with_capacity(ds.t * cols);
        for t in 0..ds.t {
            data.push(ds.gmv_row(node)[t]);
            for k in 0..ds.d_t {
                data.push(ds.temporal_at(node, t, k));
            }
        }
        g.constant(Tensor::from_vec(vec![ds.t, cols], data))
    }
}

#[cfg(test)]
mod tests {
    use super::inputs::*;
    use super::{BlockValues, EmbedCache, ProjSlot, SEGMENT_NODES};
    use gaia_synth::{generate_dataset, WorldConfig};
    use gaia_tensor::Graph;

    // Probe dims: T = 1, C = 2. Embeddings and Q/K/V are `[1, 2]`, the two
    // gate projections `[1, 1]`. Integer payloads stay ≤ 2048 so the values
    // survive the `embed-f16` tier bit-exactly and the asserts hold on both
    // element types.

    /// Stacked block payloads for `insert_block` over the probe dims:
    /// per-node values distinguishable across lanes (`embed = [v, 1]`,
    /// `Q = [v+1, 2]`, `K = [v+2, 3]`, `V = [v+3, 4]`, gates `v+4`, `v+5`).
    fn block_payload(
        nodes: &[usize],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let wide = |k: usize| nodes.iter().flat_map(move |&n| [(n + k) as f32, (k + 1) as f32]);
        let gate = |k: usize| nodes.iter().map(move |&n| (n + k) as f32);
        (
            wide(0).collect(),
            wide(1).collect(),
            wide(2).collect(),
            wide(3).collect(),
            gate(4).collect(),
            gate(5).collect(),
        )
    }

    /// Insert `nodes` with the probe payload of `values` (same length).
    fn insert_probe_values(cache: &mut EmbedCache, nodes: &[usize], values: &[usize]) {
        let (embed, q, k, v, gs, gd) = block_payload(values);
        let vals = BlockValues { embed: &embed, q: &q, k: &k, v: &v, gate_src: &gs, gate_dst: &gd };
        cache.insert_block(nodes, 1, 2, &vals);
    }

    fn insert_probe_block(cache: &mut EmbedCache, nodes: &[usize]) {
        insert_probe_values(cache, nodes, nodes);
    }

    /// Published cache over nodes `0..n`.
    fn published(n: usize) -> EmbedCache {
        let mut c = EmbedCache::new();
        insert_probe_block(&mut c, &(0..n).collect::<Vec<_>>());
        c
    }

    #[test]
    fn segmented_cache_lookup_across_boundaries() {
        let n = SEGMENT_NODES * 2 + 5;
        let c = published(n);
        assert_eq!(c.len(), n);
        assert_eq!(c.cached_projections(), n);
        assert_eq!(c.segment_count(), 3);
        for v in [0, SEGMENT_NODES - 1, SEGMENT_NODES, n - 1] {
            assert_eq!(c.embed_vec(v), Some(vec![v as f32, 1.0]), "embed {v}");
            assert_eq!(c.proj_vec(v, ProjSlot::Q), Some(vec![(v + 1) as f32, 2.0]), "Q {v}");
            assert_eq!(c.proj_vec(v, ProjSlot::GateSrc), Some(vec![(v + 4) as f32]), "gate {v}");
            assert!(c.has_embed(v) && c.has_proj(v, ProjSlot::V));
        }
        assert_eq!(c.embed_vec(n), None);
        assert_eq!(c.proj_vec(n, ProjSlot::K), None);
        assert_eq!(c.embed_vec(SEGMENT_NODES * 40), None);
        assert!(!c.has_embed(n) && !c.has_proj(n, ProjSlot::Q));
    }

    /// The tape-facing read path: segment blocks surface as pooled
    /// constants with the original shapes and (decoded) values.
    #[test]
    fn cache_constants_carry_shape_and_value_onto_the_tape() {
        let c = published(SEGMENT_NODES + 3);
        let mut g = Graph::new();
        let v = SEGMENT_NODES + 1;
        let e = c.embed_constant(&mut g, v).unwrap();
        assert_eq!(g.value(e).shape(), &[1, 2]);
        assert_eq!(g.value(e).data(), &[v as f32, 1.0]);
        let k = c.proj_constant(&mut g, v, ProjSlot::K).unwrap();
        assert_eq!(g.value(k).shape(), &[1, 2]);
        assert_eq!(g.value(k).data(), &[(v + 2) as f32, 3.0]);
        let gd = c.proj_constant(&mut g, v, ProjSlot::GateDst).unwrap();
        assert_eq!(g.value(gd).shape(), &[1, 1]);
        assert_eq!(g.value(gd).data(), &[(v + 5) as f32]);
        assert!(c.embed_constant(&mut g, SEGMENT_NODES + 3).is_none());
        assert!(c.proj_constant(&mut g, SEGMENT_NODES * 9, ProjSlot::Q).is_none());
    }

    #[test]
    fn insert_block_lands_directly_in_segment_lanes() {
        let mut c = EmbedCache::new();
        // Straddle a segment boundary in one call.
        let nodes: Vec<usize> = (SEGMENT_NODES - 2..SEGMENT_NODES + 3).collect();
        insert_probe_block(&mut c, &nodes);
        assert_eq!(c.len(), nodes.len());
        assert_eq!(c.cached_projections(), nodes.len());
        for &v in &nodes {
            assert_eq!(c.embed_vec(v), Some(vec![v as f32, 1.0]), "embed {v}");
            assert_eq!(c.proj_vec(v, ProjSlot::Q), Some(vec![(v + 1) as f32, 2.0]));
            assert_eq!(c.proj_vec(v, ProjSlot::K), Some(vec![(v + 2) as f32, 3.0]));
            assert_eq!(c.proj_vec(v, ProjSlot::V), Some(vec![(v + 3) as f32, 4.0]));
            assert_eq!(c.proj_vec(v, ProjSlot::GateSrc), Some(vec![(v + 4) as f32]));
            assert_eq!(c.proj_vec(v, ProjSlot::GateDst), Some(vec![(v + 5) as f32]));
        }
        assert_eq!(c.embed_vec(SEGMENT_NODES - 3), None);
        assert_eq!(c.embed_vec(SEGMENT_NODES + 3), None);
        // A clone is pure sharing: every segment keeps its allocation.
        let clone = c.clone();
        for s in 0..c.segment_count() {
            assert_eq!(clone.segment_addr(s), c.segment_addr(s), "segment {s} copied by clone");
        }
    }

    #[test]
    fn insert_block_is_copy_on_write_against_the_previous_epoch() {
        let base = published(SEGMENT_NODES * 2);
        let addr0 = base.segment_addr(0).unwrap();
        let addr1 = base.segment_addr(1).unwrap();
        // Next epoch: clone (Arc bumps), rewrite two nodes of segment 1.
        let mut next = base.clone();
        let dirty: Vec<usize> = (SEGMENT_NODES + 1..SEGMENT_NODES + 3).collect();
        let shifted: Vec<usize> = dirty.iter().map(|&v| v + 100).collect();
        // Every probe below sits inside segment 1, whatever SEGMENT_NODES is.
        assert!((SEGMENT_NODES + 1..SEGMENT_NODES + 7).all(|v| EmbedCache::segment_of(v) == 1));
        insert_probe_values(&mut next, &dirty, &shifted);
        // Clean segment shared, touched segment copied before the write.
        assert_eq!(next.segment_addr(0), Some(addr0));
        assert_ne!(next.segment_addr(1), Some(addr1));
        let owned_addr = next.segment_addr(1).unwrap();
        assert_eq!(next.unshared_bytes(&base), next.segment_bytes());
        assert_eq!(base.unshared_bytes(&base.clone()), 0);
        // The previous epoch still reads its own values, in every lane.
        for &d in &dirty {
            assert_eq!(base.embed_vec(d), Some(vec![d as f32, 1.0]), "base epoch mutated");
            assert_eq!(base.proj_vec(d, ProjSlot::Q), Some(vec![(d + 1) as f32, 2.0]));
            assert_eq!(next.embed_vec(d), Some(vec![(d + 100) as f32, 1.0]));
            assert_eq!(next.proj_vec(d, ProjSlot::Q), Some(vec![(d + 101) as f32, 2.0]));
        }
        // Untouched neighbours in the copied segment carried over.
        let clean = SEGMENT_NODES + 4;
        assert_eq!(next.embed_vec(clean), Some(vec![clean as f32, 1.0]));
        assert_eq!(next.embed_vec(0), Some(vec![0.0, 1.0]));
        // A second block into the now-owned segment writes in place.
        let more: Vec<usize> = (SEGMENT_NODES + 5..SEGMENT_NODES + 7).collect();
        insert_probe_block(&mut next, &more);
        assert_eq!(next.segment_addr(1), Some(owned_addr), "owned segment re-cloned");
    }

    #[test]
    fn merge_disjoint_moves_worker_segments() {
        let mut left = EmbedCache::new();
        insert_probe_block(&mut left, &(0..SEGMENT_NODES).collect::<Vec<_>>());
        let mut right = EmbedCache::new();
        insert_probe_block(&mut right, &(SEGMENT_NODES..SEGMENT_NODES + 10).collect::<Vec<_>>());
        let right_addr = right.segment_addr(1).unwrap();
        let left_addr = left.segment_addr(0).unwrap();
        left.merge_disjoint(right);
        // Segments moved, not copied.
        assert_eq!(left.segment_addr(0), Some(left_addr));
        assert_eq!(left.segment_addr(1), Some(right_addr));
        assert_eq!(left.len(), SEGMENT_NODES + 10);
        assert_eq!(left.embed_vec(SEGMENT_NODES + 9), Some(vec![(SEGMENT_NODES + 9) as f32, 1.0]));
    }

    #[test]
    #[should_panic(expected = "merge_disjoint")]
    fn merge_disjoint_rejects_overlapping_segments() {
        let mut left = EmbedCache::new();
        insert_probe_block(&mut left, &[0, 1]);
        let mut right = EmbedCache::new();
        insert_probe_block(&mut right, &[5]);
        left.merge_disjoint(right);
    }

    /// Shard slices are Arc bumps of the master's segments: kept segments
    /// keep their address (shared storage), dropped ones read as absent and
    /// fall back to the miss path exactly like an unpopulated cache.
    #[test]
    fn retain_segments_is_an_arc_bump_slice() {
        let n = SEGMENT_NODES * 3;
        let master = published(n);
        let slice = master.retain_segments(|seg| seg != 1);
        // Kept segments share the master's allocations verbatim.
        assert_eq!(slice.segment_addr(0), master.segment_addr(0));
        assert_eq!(slice.segment_addr(2), master.segment_addr(2));
        // The dropped one is simply absent — lookups miss, nothing panics.
        assert_eq!(slice.segment_addr(1), None);
        let dropped = SEGMENT_NODES + 3;
        assert!(!slice.has_embed(dropped));
        assert_eq!(slice.embed_vec(dropped), None);
        assert_eq!(slice.proj_vec(dropped, ProjSlot::Q), None);
        // Kept nodes read the same values as through the master.
        for v in [0, SEGMENT_NODES - 1, SEGMENT_NODES * 2, n - 1] {
            assert_eq!(slice.embed_vec(v), master.embed_vec(v), "embed {v}");
            assert_eq!(slice.proj_vec(v, ProjSlot::Q), master.proj_vec(v, ProjSlot::Q));
        }
        // len() counts only retained nodes; the master is untouched.
        assert_eq!(slice.len(), n - SEGMENT_NODES);
        assert_eq!(master.len(), n);
        // A slice of a copy-on-write republish still shares every clean
        // retained segment with the previous slice.
        let mut next = master.clone();
        insert_probe_values(&mut next, &[SEGMENT_NODES * 2 + 1], &[1234]);
        let next_slice = next.retain_segments(|seg| seg != 1);
        assert_eq!(next_slice.segment_addr(0), slice.segment_addr(0));
        assert_ne!(next_slice.segment_addr(2), slice.segment_addr(2));
    }

    #[test]
    fn empty_cache_behaves() {
        let c = EmbedCache::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.cached_projections(), 0);
        assert_eq!(c.segment_count(), 0);
        assert_eq!(c.segment_addr(0), None);
        assert!(!c.has_embed(0) && !c.has_proj(0, ProjSlot::GateDst));
        let mut g = Graph::new();
        assert!(c.embed_constant(&mut g, 0).is_none());
        assert!(!published(4).is_empty());
    }

    #[test]
    fn input_builders_shapes() {
        let (_, ds) = generate_dataset(WorldConfig::tiny());
        let mut g = Graph::new();
        let (z, ft, fs) = node_inputs(&mut g, &ds, 0);
        assert_eq!(g.value(z).shape(), &[ds.t, 1]);
        assert_eq!(g.value(ft).shape(), &[ds.t, ds.d_t]);
        assert_eq!(g.value(fs).shape(), &[1, ds.d_s]);
        let flat = flat_features(&mut g, &ds, 0);
        assert_eq!(g.value(flat).shape(), &[1, flat_width(&ds)]);
        let win = window_matrix(&mut g, &ds, 0);
        assert_eq!(g.value(win).shape(), &[ds.t, 1 + ds.d_t]);
    }
}
