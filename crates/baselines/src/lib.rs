//! Hand-tuned decision-tree baselines the paper compares against (§6):
//!
//! * [`hicuts`] — HiCuts (Gupta & McKeown, Hot Interconnects 1999):
//!   equal-size cuts in one dimension per node, cut count bounded by a
//!   space factor ([`hicuts::SPFAC`], [`hicuts::MAX_CUTS`]).
//! * [`hypercuts`] — HyperCuts (Singh et al., SIGCOMM 2003): equal-size
//!   cuts in *several* dimensions at once ([`hypercuts::SPFAC`],
//!   [`hypercuts::MAX_DIMS`], [`hypercuts::MAX_CHILDREN`]).
//! * [`hypersplit`] — HyperSplit (Qi et al., INFOCOM 2009): binary
//!   rule-boundary splits with balanced child weights
//!   ([`hypersplit::MAX_CANDIDATES`]); also the post-splitting stage of
//!   CutSplit.
//! * [`efficuts`] — EffiCuts (Vamanan et al., SIGCOMM 2010): separable
//!   trees (partition rules by per-dimension "largeness"), selective
//!   tree merging, and equi-dense cuts
//!   ([`efficuts::LARGENESS_THRESHOLD`], [`efficuts::MIN_PARTITION`],
//!   [`efficuts::MAX_FANOUT`]).
//! * [`cutsplit`] — CutSplit (Li et al., INFOCOM 2018): FiCuts
//!   (fixed-dimension equal-size pre-cutting) combined with HyperSplit
//!   post-splitting, partitioned by small fields
//!   ([`cutsplit::SMALL_THRESHOLD`], [`cutsplit::PRECUT_THRESHOLD`],
//!   [`cutsplit::FICUTS_FANOUT`]).
//!
//! Each builder takes only the rules: its parameters are the module
//! constants above, the values this reproduction publishes its results
//! under. Every builder stops at 16 rules per leaf and 2M nodes; the
//! depth cap is 100 for HiCuts, HyperCuts and EffiCuts and 200 for the
//! binary splits of HyperSplit and CutSplit.
//!
//! All five build on the same [`dtree`] substrate NeuroCuts uses, per
//! the paper's methodology (§5), and every builder's output is checked
//! against the linear-scan ground truth in tests. [`classifier`] holds
//! what every algorithm ends as — a [`Classifier`], the tree compiled
//! for serving — and [`Baseline`], which maps a name to one of the
//! five builders.

#![warn(missing_docs)]

pub mod classifier;
pub mod common;
pub mod cutsplit;
pub mod efficuts;
pub mod hicuts;
pub mod hypercuts;
pub mod hypersplit;

pub use classifier::{Baseline, Classifier, ClassifierStats};
pub use cutsplit::build_cutsplit;
pub use efficuts::{build_efficuts, partition_by_largeness};
pub use hicuts::build_hicuts;
pub use hypercuts::build_hypercuts;
pub use hypersplit::build_hypersplit;
