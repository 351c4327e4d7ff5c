//! # gaia-synth
//!
//! Synthetic Alipay-like e-seller world: the stand-in for the paper's
//! proprietary dataset (3M shops, Jun 2019 - Dec 2020). The generator embeds
//! the three phenomena the paper's model design targets — temporal
//! deficiency, intra temporal shift (annual seasonality) and inter temporal
//! shift (supplier lead over retailers) — plus same-owner festival coherence,
//! auxiliary temporal/static features and the typed e-seller graph.
//!
//! `features` mirrors the Fig. 5 extractor stack, producing model-ready
//! instances with a train-fitted `log1p`/z-score scaler.

pub mod config;
pub mod features;
pub mod mutate;
pub mod world;

pub use config::WorldConfig;
pub use features::{
    build_dataset, generate_dataset, node_row_unchanged, refresh_dataset, refresh_dataset_full,
    Dataset, Scaler, Splits, D_TEMPORAL, SEGMENT_NODES, TARGET_SHIFT,
};
pub use mutate::{DirtySet, MonthlySales, NewShop};
pub use world::{month_of_year, Role, Shop, TrueSupplyLink, World};
