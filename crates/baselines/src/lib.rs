//! Hand-tuned decision-tree baselines the paper compares against (§6):
//!
//! * [`hicuts`] — HiCuts (Gupta & McKeown, Hot Interconnects 1999):
//!   equal-size cuts in one dimension per node, cut count bounded by a
//!   space factor `spfac`.
//! * [`hypercuts`] — HyperCuts (Singh et al., SIGCOMM 2003): equal-size
//!   cuts in *several* dimensions at once, plus region compaction.
//! * [`hypersplit`] — HyperSplit (Qi et al., INFOCOM 2009): binary
//!   rule-boundary splits with balanced child weights; also the
//!   post-splitting stage of CutSplit.
//! * [`efficuts`] — EffiCuts (Vamanan et al., SIGCOMM 2010): separable
//!   trees (partition rules by per-dimension "largeness"), selective
//!   tree merging, and equi-dense cuts.
//! * [`cutsplit`] — CutSplit (Li et al., INFOCOM 2018): FiCuts
//!   (fixed-dimension equal-size pre-cutting) combined with HyperSplit
//!   post-splitting, partitioned by small fields.
//!
//! All five build on the same [`dtree`] substrate NeuroCuts uses, per
//! the paper's methodology (§5), and every builder's output is checked
//! against the linear-scan ground truth in tests. [`classifier`] holds
//! what every algorithm ends as — a [`Classifier`], the tree compiled
//! for serving — and [`Baseline`], which maps a name to one of the
//! five builders under its default configuration.

#![warn(missing_docs)]

pub mod classifier;
pub mod common;
pub mod cutsplit;
pub mod efficuts;
pub mod hicuts;
pub mod hypercuts;
pub mod hypersplit;

pub use classifier::{Baseline, Classifier, ClassifierStats};
pub use common::BuildLimits;
pub use cutsplit::{build_cutsplit, CutSplitConfig};
pub use efficuts::{build_efficuts, partition_by_largeness, EffiCutsConfig};
pub use hicuts::{build_hicuts, HiCutsConfig};
pub use hypercuts::{build_hypercuts, HyperCutsConfig};
pub use hypersplit::{build_hypersplit, HyperSplitConfig};
