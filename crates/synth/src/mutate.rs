//! World mutation API for delta ingestion: live updates to an existing
//! [`World`] (fresh sales windows, supply-edge churn, new shops, industry
//! moves) that record which nodes changed in a [`DirtySet`].
//!
//! The dirty set is the contract between ingestion and incremental
//! republish: `gaia-serving::ModelServer::publish_delta` expands it by the
//! serving ego radius (`gaia_graph::dirty_closure`) and recomputes only that
//! closure, reusing every clean cache segment from the previous epoch. A
//! mutation therefore marks every node whose *own* features changed (shop
//! data, static one-hots) **and** every node whose edge set churned, so the
//! closure covers all egos the mutation can influence.

use crate::world::{Role, Shop, TrueSupplyLink, World};
use gaia_graph::{Edge, EdgeType, EsellerGraph};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Sorted, deduplicated set of node ids whose inputs changed since the last
/// publish. Recorded by the [`World`] mutation API, drained by
/// `publish_delta`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtySet {
    nodes: Vec<u32>,
}

impl DirtySet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark one node dirty (idempotent, keeps the sorted invariant).
    pub fn mark(&mut self, node: u32) {
        if let Err(pos) = self.nodes.binary_search(&node) {
            self.nodes.insert(pos, node);
        }
    }

    /// Whether a node is marked.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// The marked nodes, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of marked nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is marked (a republish is a pure no-op).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Union another set into this one.
    pub fn merge(&mut self, other: &DirtySet) {
        for &v in &other.nodes {
            self.mark(v);
        }
    }

    /// Drop all marks.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }
}

/// One month of fresh sales activity for [`World::record_sales`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MonthlySales {
    /// GMV in currency units (floored at 1 to keep the generator's
    /// positivity invariant for observed months).
    pub gmv: f64,
    /// Order count.
    pub orders: f64,
    /// Unique customers.
    pub customers: f64,
}

/// Static description of a shop joining the world via [`World::add_shop`].
/// The shop starts with an empty sales history (`opened == months`), the
/// "new e-seller" case of the paper's Fig. 3 grouping.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NewShop {
    /// Industry id (`< WorldConfig::n_industries`).
    pub industry: u16,
    /// Region id (`< WorldConfig::n_regions`).
    pub region: u16,
    /// Supply-chain role.
    pub role: Role,
    /// Owner cluster id; joining an existing cluster creates same-owner
    /// clique edges to its members.
    pub owner: u32,
    /// Supply lead in months (forced to 0 for retailers).
    pub lead: usize,
}

impl World {
    /// Nodes mutated since the last [`World::take_dirty`].
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    /// Drain the recorded dirty set, leaving it empty — called by the
    /// publisher once a republish has consumed the mutations.
    pub fn take_dirty(&mut self) -> DirtySet {
        std::mem::take(&mut self.dirty)
    }

    /// Overwrite the trailing `sales.len()` months of a shop's series with
    /// fresh activity. If the shop's history did not reach back that far
    /// (including a brand-new shop with an empty history), `opened` moves
    /// earlier so the recorded window counts as observed. Marks the shop
    /// dirty.
    pub fn record_sales(&mut self, shop: u32, sales: &[MonthlySales]) {
        let months = self.config.months;
        assert!((shop as usize) < self.shops.len(), "record_sales: shop {shop} out of range");
        assert!(sales.len() <= months, "record_sales: window longer than the world history");
        if sales.is_empty() {
            return;
        }
        let start = months - sales.len();
        let s = &mut self.shops[shop as usize];
        for (i, rec) in sales.iter().enumerate() {
            s.gmv[start + i] = rec.gmv.max(1.0);
            s.orders[start + i] = rec.orders.max(1.0);
            s.customers[start + i] = rec.customers.max(1.0);
        }
        if s.opened > start {
            s.opened = start;
        }
        self.dirty.mark(shop);
    }

    /// Add a directed supplier → retailer edge and its ground-truth link.
    /// Returns `false` (and records nothing) when the edge already exists.
    /// Marks both endpoints dirty.
    pub fn add_supply_edge(&mut self, supplier: u32, retailer: u32) -> bool {
        let n = self.shops.len();
        assert!((supplier as usize) < n && (retailer as usize) < n, "supply edge out of range");
        assert_ne!(supplier, retailer, "supply edge cannot be a self-loop");
        let exists = self
            .graph
            .neighbors(supplier as usize)
            .iter()
            .any(|nb| nb.outgoing && nb.node == retailer && nb.ty == EdgeType::SupplyChain);
        if exists {
            return false;
        }
        let mut edges: Vec<Edge> = self.graph.edges().collect();
        edges.push(Edge { src: supplier, dst: retailer, ty: EdgeType::SupplyChain });
        self.graph = Arc::new(EsellerGraph::from_edges(n, &edges));
        self.true_supply_links.push(TrueSupplyLink {
            supplier,
            retailer,
            lead: self.shops[supplier as usize].lead,
        });
        self.dirty.mark(supplier);
        self.dirty.mark(retailer);
        true
    }

    /// Remove a supplier → retailer edge (and its ground-truth link).
    /// Returns `false` when no such edge exists — removing an absent edge is
    /// a no-op that records nothing. Marks both endpoints dirty otherwise.
    pub fn remove_supply_edge(&mut self, supplier: u32, retailer: u32) -> bool {
        let n = self.shops.len();
        assert!((supplier as usize) < n && (retailer as usize) < n, "supply edge out of range");
        let before = self.graph.num_edges();
        let edges: Vec<Edge> = self
            .graph
            .edges()
            .filter(|e| !(e.ty == EdgeType::SupplyChain && e.src == supplier && e.dst == retailer))
            .collect();
        if edges.len() == before {
            return false;
        }
        self.graph = Arc::new(EsellerGraph::from_edges(n, &edges));
        self.true_supply_links.retain(|l| !(l.supplier == supplier && l.retailer == retailer));
        self.dirty.mark(supplier);
        self.dirty.mark(retailer);
        true
    }

    /// Add a shop with an **empty sales history** (`opened == months`: every
    /// input month unobserved, exactly the Fig. 3 "new shop" extreme).
    /// Joining an existing owner cluster creates same-owner clique edges to
    /// its members; supply links are added explicitly via
    /// [`World::add_supply_edge`]. Returns the new node id; marks it and
    /// every clique partner dirty.
    pub fn add_shop(&mut self, new: NewShop) -> u32 {
        assert!((new.industry as usize) < self.config.n_industries, "industry out of range");
        assert!((new.region as usize) < self.config.n_regions, "region out of range");
        let months = self.config.months;
        let id = self.shops.len() as u32;
        let lead = if new.role == Role::Supplier { new.lead } else { 0 };
        self.shops.push(Shop {
            gmv: vec![0.0; months],
            orders: vec![0.0; months],
            customers: vec![0.0; months],
            opened: months,
            industry: new.industry,
            region: new.region,
            role: new.role,
            owner: new.owner,
            lead,
        });
        self.config.n_shops = self.shops.len();
        let mut edges: Vec<Edge> = self.graph.edges().collect();
        for (v, shop) in self.shops.iter().enumerate().take(id as usize) {
            if shop.owner == new.owner {
                edges.push(Edge { src: v as u32, dst: id, ty: EdgeType::SameOwner });
                self.dirty.mark(v as u32);
            }
        }
        self.graph = Arc::new(EsellerGraph::from_edges(self.shops.len(), &edges));
        self.dirty.mark(id);
        id
    }

    /// Move a shop to a new industry bucket: its industry one-hot changes
    /// and its supply edges churn — every existing supply edge (they connect
    /// within the old industry by construction) is dropped and the shop is
    /// rewired to the lowest-id counterparty of the new industry, if one
    /// exists. Marks the shop, every old supply partner and the new partner
    /// dirty, so both the old and new bucket neighbourhoods are invalidated.
    pub fn set_industry(&mut self, shop: u32, industry: u16) {
        let n = self.shops.len();
        assert!((shop as usize) < n, "set_industry: shop {shop} out of range");
        assert!((industry as usize) < self.config.n_industries, "industry out of range");
        // Drop supply edges touching the shop, marking the old partners.
        let mut edges: Vec<Edge> = Vec::with_capacity(self.graph.num_edges());
        for e in self.graph.edges() {
            if e.ty == EdgeType::SupplyChain && (e.src == shop || e.dst == shop) {
                self.dirty.mark(e.src);
                self.dirty.mark(e.dst);
            } else {
                edges.push(e);
            }
        }
        self.true_supply_links.retain(|l| l.supplier != shop && l.retailer != shop);
        self.shops[shop as usize].industry = industry;
        // Rewire into the new bucket: lowest-id counterparty, if any.
        let role = self.shops[shop as usize].role;
        let partner = self
            .shops
            .iter()
            .enumerate()
            .find(|(v, s)| *v as u32 != shop && s.industry == industry && s.role != role);
        if let Some((partner, _)) = partner {
            let partner = partner as u32;
            let (supplier, retailer) =
                if role == Role::Supplier { (shop, partner) } else { (partner, shop) };
            edges.push(Edge { src: supplier, dst: retailer, ty: EdgeType::SupplyChain });
            self.true_supply_links.push(TrueSupplyLink {
                supplier,
                retailer,
                lead: self.shops[supplier as usize].lead,
            });
            self.dirty.mark(partner);
        }
        self.graph = Arc::new(EsellerGraph::from_edges(n, &edges));
        self.dirty.mark(shop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn dirty_set_keeps_sorted_dedup_invariant() {
        let mut d = DirtySet::new();
        for v in [5u32, 1, 5, 3, 1] {
            d.mark(v);
        }
        assert_eq!(d.nodes(), &[1, 3, 5]);
        assert_eq!(d.len(), 3);
        assert!(d.contains(3) && !d.contains(2));
        let mut other = DirtySet::new();
        other.mark(2);
        other.mark(5);
        d.merge(&other);
        assert_eq!(d.nodes(), &[1, 2, 3, 5]);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn record_sales_overwrites_tail_and_marks_dirty() {
        let mut w = world();
        let months = w.config.months;
        let sales = [
            MonthlySales { gmv: 1000.0, orders: 10.0, customers: 8.0 },
            MonthlySales { gmv: 2000.0, orders: 20.0, customers: 15.0 },
        ];
        w.record_sales(3, &sales);
        assert_eq!(w.shops[3].gmv[months - 2], 1000.0);
        assert_eq!(w.shops[3].gmv[months - 1], 2000.0);
        assert_eq!(w.dirty().nodes(), &[3]);
        // Draining leaves the set empty.
        let taken = w.take_dirty();
        assert_eq!(taken.nodes(), &[3]);
        assert!(w.dirty().is_empty());
    }

    #[test]
    fn record_sales_extends_a_short_history() {
        let mut w = world();
        let id = w.add_shop(NewShop {
            industry: 0,
            region: 0,
            role: Role::Retailer,
            owner: u32::MAX, // fresh owner: no clique partners
            lead: 0,
        });
        assert_eq!(w.shops[id as usize].opened, w.config.months);
        w.record_sales(id, &[MonthlySales { gmv: 500.0, orders: 5.0, customers: 4.0 }]);
        assert_eq!(w.shops[id as usize].opened, w.config.months - 1);
        assert_eq!(w.shops[id as usize].gmv[w.config.months - 1], 500.0);
    }

    #[test]
    fn supply_edge_roundtrip_and_noop_removal() {
        let mut w = world();
        let supplier =
            w.shops.iter().position(|s| s.role == Role::Supplier).expect("supplier") as u32;
        let retailer = w
            .shops
            .iter()
            .enumerate()
            .position(|(v, s)| {
                s.role == Role::Retailer
                    && !w
                        .graph
                        .neighbors(v)
                        .iter()
                        .any(|nb| nb.node == supplier && nb.ty == EdgeType::SupplyChain)
            })
            .expect("unlinked retailer") as u32;
        let before = w.graph.num_edges();
        assert!(w.add_supply_edge(supplier, retailer));
        assert_eq!(w.graph.num_edges(), before + 1);
        // Re-adding is a no-op...
        assert!(!w.add_supply_edge(supplier, retailer));
        assert_eq!(w.graph.num_edges(), before + 1);
        // ...and both endpoints are dirty.
        assert!(w.dirty().contains(supplier) && w.dirty().contains(retailer));
        w.take_dirty();
        assert!(w.remove_supply_edge(supplier, retailer));
        assert_eq!(w.graph.num_edges(), before);
        assert!(w.dirty().contains(supplier) && w.dirty().contains(retailer));
        w.take_dirty();
        // Removing an absent edge records nothing.
        assert!(!w.remove_supply_edge(supplier, retailer));
        assert!(w.dirty().is_empty());
    }

    #[test]
    fn add_shop_joins_owner_clique_with_empty_history() {
        let mut w = world();
        let owner = w.shops[0].owner;
        let clique: Vec<u32> = w
            .shops
            .iter()
            .enumerate()
            .filter(|(_, s)| s.owner == owner)
            .map(|(v, _)| v as u32)
            .collect();
        let n_before = w.shops.len();
        let id =
            w.add_shop(NewShop { industry: 1, region: 1, role: Role::Supplier, owner, lead: 2 });
        assert_eq!(id as usize, n_before);
        assert_eq!(w.shops.len(), n_before + 1);
        assert_eq!(w.config.n_shops, n_before + 1);
        assert_eq!(w.graph.num_nodes(), n_before + 1);
        // Empty history: nothing observed.
        assert_eq!(w.shops[id as usize].opened, w.config.months);
        assert!(w.shops[id as usize].gmv.iter().all(|&g| g == 0.0));
        // Same-owner clique edges to every prior member, all marked dirty.
        let nbs = w.graph.neighbors(id as usize);
        assert_eq!(nbs.len(), clique.len());
        for &m in &clique {
            assert!(nbs.iter().any(|nb| nb.node == m && nb.ty == EdgeType::SameOwner));
            assert!(w.dirty().contains(m));
        }
        assert!(w.dirty().contains(id));
    }

    #[test]
    fn industry_move_invalidates_old_and_new_bucket_neighbors() {
        let mut w = world();
        // A retailer with at least one supply edge.
        let (shop, old_partners) = (0..w.shops.len())
            .filter(|&v| w.shops[v].role == Role::Retailer)
            .map(|v| {
                let partners: Vec<u32> = w
                    .graph
                    .neighbors(v)
                    .iter()
                    .filter(|nb| nb.ty == EdgeType::SupplyChain)
                    .map(|nb| nb.node)
                    .collect();
                (v as u32, partners)
            })
            .find(|(_, p)| !p.is_empty())
            .expect("a linked retailer exists");
        let old_industry = w.shops[shop as usize].industry;
        let new_industry =
            (0..w.config.n_industries as u16).find(|&i| i != old_industry).expect("2+ industries");
        w.take_dirty();
        w.set_industry(shop, new_industry);
        assert_eq!(w.shops[shop as usize].industry, new_industry);
        // Old-bucket partners invalidated...
        for &p in &old_partners {
            assert!(w.dirty().contains(p), "old partner {p} not dirty");
            assert!(!w
                .graph
                .neighbors(shop as usize)
                .iter()
                .any(|nb| nb.node == p && nb.ty == EdgeType::SupplyChain));
        }
        // ...and the new-bucket partner (if the bucket is populated) too.
        let new_partner: Vec<u32> = w
            .graph
            .neighbors(shop as usize)
            .iter()
            .filter(|nb| nb.ty == EdgeType::SupplyChain)
            .map(|nb| nb.node)
            .collect();
        for &p in &new_partner {
            assert_eq!(w.shops[p as usize].industry, new_industry);
            assert!(w.dirty().contains(p), "new partner {p} not dirty");
        }
        assert!(w.dirty().contains(shop));
        // Ground-truth links now agree with the graph.
        assert!(w
            .true_supply_links
            .iter()
            .all(|l| l.retailer != shop || { new_partner.contains(&l.supplier) }));
    }

    #[test]
    fn mutations_keep_world_cloneable_and_deterministic() {
        let mut a = world();
        let mut b = world();
        for w in [&mut a, &mut b] {
            w.record_sales(1, &[MonthlySales { gmv: 77.0, orders: 3.0, customers: 2.0 }]);
            w.add_shop(NewShop { industry: 0, region: 0, role: Role::Retailer, owner: 0, lead: 0 });
        }
        assert_eq!(a.shops[1].gmv, b.shops[1].gmv);
        assert_eq!(a.dirty(), b.dirty());
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }
}
