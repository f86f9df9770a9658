//! Tree nodes and the expansion operations they record.

use crate::space::NodeSpace;
use classbench::Dim;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Index of a node in its tree's arena.
pub type NodeId = usize;

/// Stable identifier of a rule in the tree's rule arena.
///
/// Rule ids never shift: incremental updates append to the arena and
/// mark deletions, so leaf rule lists stay valid across updates.
pub type RuleId = usize;

/// The precedence key of rule `id` at `priority`: the smaller key wins,
/// so higher priority comes first and ties go to the lower id. Tree
/// lookups, leaf lists, the compiled rank table and the serving overlay
/// all order rules by it, as the linear-scan ground truth does.
#[inline]
pub(crate) fn precedence(priority: i32, id: RuleId) -> (Reverse<i32>, RuleId) {
    (Reverse(priority), id)
}

/// A node's rule list as a `(start, len)` window into the tree's shared
/// rule-id pool ([`crate::DecisionTree`] owns one growable `Vec<RuleId>`
/// for the whole tree). Spans replace per-node `Vec` allocations: an
/// expansion appends all children's lists to the pool in one go, and
/// truncation just shrinks `len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleSpan {
    /// First pool index of the node's rules.
    pub start: usize,
    /// Number of rules stored at the node.
    pub len: usize,
}

/// What has been decided at a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Undecided or terminal: packets reaching here are matched by a
    /// priority-ordered scan of the node's rules.
    Leaf,
    /// Equal-size cut along one dimension into `ncuts` sub-ranges
    /// (HiCuts and the NeuroCuts cut action).
    Cut {
        /// Dimension that was cut.
        dim: Dim,
        /// Number of equal sub-ranges (2, 4, 8, 16, or 32 in the paper).
        ncuts: usize,
        /// Child nodes, in sub-range order.
        children: Vec<NodeId>,
    },
    /// Simultaneous equal-size cuts along several dimensions
    /// (HyperCuts). Children are stored row-major in `dims` order.
    MultiCut {
        /// `(dimension, ncuts)` per cut dimension.
        dims: Vec<(Dim, usize)>,
        /// `prod(ncuts)` children, row-major.
        children: Vec<NodeId>,
    },
    /// Unequal ("equi-dense") cut along one dimension at explicit
    /// boundaries, so children hold roughly equal numbers of rules
    /// (EffiCuts' equal-dense cuts). `bounds` has `children.len() + 1`
    /// entries; child `i` covers `[bounds[i], bounds[i+1])`.
    DenseCut {
        /// Dimension that was cut.
        dim: Dim,
        /// Monotonically increasing boundaries tiling the node's range.
        bounds: Vec<u64>,
        /// `bounds.len() - 1` children, in boundary order.
        children: Vec<NodeId>,
    },
    /// Binary split at a threshold (HyperSplit / CutSplit).
    Split {
        /// Dimension that was split.
        dim: Dim,
        /// Packets with `value < threshold` go left, others right.
        threshold: u64,
        /// `[left, right]` children.
        children: [NodeId; 2],
    },
    /// Rule partition: children share this node's space but own disjoint
    /// subsets of its rules; a lookup must consult **all** children
    /// (EffiCuts separable trees, NeuroCuts partition actions).
    Partition {
        /// One child per rule subset.
        children: Vec<NodeId>,
    },
}

impl NodeKind {
    /// Child node ids, in order; empty for leaves.
    pub fn children(&self) -> &[NodeId] {
        match self {
            NodeKind::Leaf => &[],
            NodeKind::Cut { children, .. } => children,
            NodeKind::MultiCut { children, .. } => children,
            NodeKind::DenseCut { children, .. } => children,
            NodeKind::Split { children, .. } => children,
            NodeKind::Partition { children } => children,
        }
    }

    /// True for undecided/terminal nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, NodeKind::Leaf)
    }

    /// True for partition nodes (lookups fan out to all children).
    pub fn is_partition(&self) -> bool {
        matches!(self, NodeKind::Partition { .. })
    }
}

/// One node of a [`crate::DecisionTree`].
///
/// The node's rule list lives in the tree's shared pool; read it with
/// [`crate::DecisionTree::rules_at`].
#[derive(Debug, Clone)]
pub struct Node {
    /// Region of header space this node is responsible for.
    pub space: NodeSpace,
    /// Window into the tree's rule-id pool holding this node's rules,
    /// in precedence order (higher priority first, ties broken by lower
    /// [`RuleId`]).
    pub span: RuleSpan,
    /// The expansion applied at this node, or [`NodeKind::Leaf`].
    pub kind: NodeKind,
    /// Distance from the root (root = 0).
    pub depth: usize,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
}

impl Node {
    /// A fresh leaf over an already-pooled rule span.
    pub(crate) fn leaf(
        space: NodeSpace,
        span: RuleSpan,
        depth: usize,
        parent: Option<NodeId>,
    ) -> Self {
        Node { space, span, kind: NodeKind::Leaf, depth, parent }
    }

    /// Number of rules stored at the node.
    pub fn num_rules(&self) -> usize {
        self.span.len
    }

    /// True when the node is an (expandable or terminal) leaf.
    pub fn is_leaf(&self) -> bool {
        self.kind.is_leaf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_has_no_children() {
        let n = Node::leaf(NodeSpace::full(), RuleSpan { start: 0, len: 3 }, 0, None);
        assert!(n.is_leaf());
        assert!(n.kind.children().is_empty());
        assert_eq!(n.num_rules(), 3);
        assert!(!n.kind.is_partition());
    }

    #[test]
    fn kind_children_accessor() {
        let cut = NodeKind::Cut { dim: Dim::SrcIp, ncuts: 4, children: vec![1, 2, 3, 4] };
        assert_eq!(cut.children(), &[1, 2, 3, 4]);
        assert!(!cut.is_leaf());
        let split = NodeKind::Split { dim: Dim::Proto, threshold: 6, children: [5, 6] };
        assert_eq!(split.children(), &[5, 6]);
        let part = NodeKind::Partition { children: vec![7, 8] };
        assert!(part.is_partition());
        assert_eq!(part.children(), &[7, 8]);
    }
}
