//! Decision-tree substrate for packet classification.
//!
//! The paper's methodology (§5) implements *one* decision-tree data
//! structure and builds HiCuts, HyperCuts, EffiCuts, CutSplit **and**
//! NeuroCuts on top of it, so minor implementation differences cannot
//! bias the comparison. This crate is that shared substrate:
//!
//! * [`NodeSpace`] — a 5-dimensional box, the region of header space a
//!   node is responsible for;
//! * [`DecisionTree`] — an arena-backed tree over a stable rule arena,
//!   supporting the four expansion operations every algorithm in the
//!   workspace is built from: equal-size **cuts** along one dimension,
//!   multi-dimension cuts (HyperCuts), threshold **splits**
//!   (HyperSplit/CutSplit), and rule **partitions** (EffiCuts /
//!   NeuroCuts partition actions);
//! * lookup ([`DecisionTree::classify`]), and the cost model every
//!   algorithm is scored by: worst-case classification time and bytes
//!   per the paper's Eqs. 1–4, from the byte constants
//!   [`stats::NODE_HEADER_BYTES`], [`stats::CHILD_PTR_BYTES`],
//!   [`stats::LEAF_RULE_REF_BYTES`], [`stats::RULE_TABLE_ENTRY_BYTES`]
//!   and [`stats::DENSE_BOUND_BYTES`] in one pass,
//!   [`stats::subtree_metrics`];
//! * the serving path: a compiled [`FlatTree`] with batched wavefront
//!   lookup, and sharded multi-core lookup over a serving snapshot
//!   ([`Snapshot::classify_sharded`]);
//! * live serving under updates: an epoch-swapped
//!   [`serve::ClassifierHandle`] that applies §4 incremental updates
//!   and publishes fresh snapshots without pausing readers ([`serve`]);
//! * a correctness validator ([`validate`]) asserting tree lookup ≡
//!   priority-ordered linear scan;
//! * per-level visualisation data for Figures 5 and 6 ([`viz`]);
//! * incremental rule insertion/deletion (§4 "Handling classifier
//!   updates", [`updates`]);
//! * durability: a write-ahead log ([`wal`]) over a storage seam
//!   ([`storage`]) that tests can back with memory and crash.

#![warn(missing_docs)]

pub mod flat;
pub mod node;
pub mod replay;
pub mod serve;
pub mod space;
pub mod stats;
pub mod storage;
pub mod store;
pub mod tree;
pub mod updates;
pub mod validate;
pub mod viz;
pub mod wal;

pub use flat::{FlatTree, StaleTreeError};
pub use node::{Node, NodeId, NodeKind, RuleId, RuleSpan};
pub use replay::{serve_during, ChurnSchedule};
pub use serve::{
    AdoptError, AdoptReport, ClassifierHandle, HealthReport, RebuildPolicy, RuleSnapshot, Snapshot,
    UpdateStats,
};
pub use space::NodeSpace;
pub use stats::{average_lookup_cost, TreeStats};
pub use store::RuleStore;
pub use tree::DecisionTree;
pub use updates::{UpdateError, UpdateLog};
pub use validate::validate_tree;
pub use viz::LevelProfile;
pub use wal::{WalError, WalReadOutcome, WalRecord, WalWriter};
