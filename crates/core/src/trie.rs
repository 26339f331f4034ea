//! The partition trie (paper §3.2): a labeled rooted tree grouping CEX
//! expressions by structure.

use std::fmt;

use spp_gf2::Gf2Vec;

use crate::Pseudocube;

/// The kind of an internal partition-trie node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// A non-canonical variable (double-circled in the paper's Figure 2) —
    /// the first node of each EXOR factor on a path.
    NonCanonical,
    /// A canonical variable (single-circled), following its factor's
    /// NC-node in increasing index order.
    Canonical,
}

/// A leaf of the partition trie: the complementation vector of one CEX
/// expression whose structure is the root-to-parent path.
///
/// Bit `i` of `complements` refers to the `i`-th non-canonical variable on
/// the path; per the paper's convention `0` means complemented and `1`
/// means not complemented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// The complementation vector `L`.
    pub complements: Gf2Vec,
    /// Caller-supplied identifier (typically an index into a pseudocube
    /// arena).
    pub payload: u32,
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    var: u16,
    /// Children sorted per the paper: NC-nodes by increasing label first,
    /// then C-nodes by increasing label.
    children: Vec<u32>,
    leaves: Vec<Leaf>,
}

/// The partition trie of §3.2: each root-to-node path spells the structure
/// of a CEX expression (factors in increasing non-canonical order, each
/// factor as its NC-node followed by its canonical variables in increasing
/// order), and the leaves hanging off a node are the complementation
/// vectors of all inserted expressions with that structure.
///
/// **Property 1**: any two leaves with the same parent represent CEX
/// expressions with the same structure — so the groups returned by
/// [`PartitionTrie::groups`] are exactly the unifiable classes of
/// Theorem 1, which is what makes the generation step of Algorithm 2
/// sub-quadratic in practice.
///
/// # Examples
///
/// ```
/// use spp_core::{PartitionTrie, Pseudocube};
///
/// let mut trie = PartitionTrie::new(3);
/// // x1·x2·x̄4 and x̄1·x2·x4 (renamed to 3 vars) share a structure...
/// trie.insert(&Pseudocube::from_cube(&"110".parse().unwrap()), 0);
/// trie.insert(&Pseudocube::from_cube(&"011".parse().unwrap()), 1);
/// // ...so they land under the same parent.
/// let groups: Vec<_> = trie.groups().collect();
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0].len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct PartitionTrie {
    n: usize,
    nodes: Vec<Node>,
    num_leaves: usize,
}

impl PartitionTrie {
    /// Creates an empty partition trie over `n` variables.
    #[must_use]
    pub fn new(n: usize) -> Self {
        // Node 0 is the unlabeled root.
        PartitionTrie {
            n,
            nodes: vec![Node {
                kind: NodeKind::NonCanonical,
                var: u16::MAX,
                children: Vec::new(),
                leaves: Vec::new(),
            }],
            num_leaves: 0,
        }
    }

    /// The number of variables of the ambient space.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The number of inserted expressions (leaves).
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The number of trie nodes, including the root.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Finds or creates the child of `node` with the given kind and label,
    /// keeping children in the paper's order (NC-nodes before C-nodes,
    /// each by increasing label).
    fn child(&mut self, node: u32, kind: NodeKind, var: u16) -> u32 {
        let children = &self.nodes[node as usize].children;
        let pos = children.partition_point(|&c| {
            let ch = &self.nodes[c as usize];
            (ch.kind, ch.var) < (kind, var)
        });
        if pos < children.len() {
            let c = children[pos];
            let ch = &self.nodes[c as usize];
            if ch.kind == kind && ch.var == var {
                return c;
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { kind, var, children: Vec::new(), leaves: Vec::new() });
        self.nodes[node as usize].children.insert(pos, id);
        id
    }

    /// The node at the end of the structure path of `pc`, creating the
    /// path if needed.
    fn path_node(&mut self, pc: &Pseudocube) -> u32 {
        assert_eq!(pc.num_vars(), self.n, "pseudocube width must match the trie");
        let dirs = pc.structure();
        let mut node = 0u32;
        for q in 0..self.n {
            if dirs.is_pivot(q) {
                continue;
            }
            // The factor of non-canonical q: NC-node first ...
            node = self.child(node, NodeKind::NonCanonical, q as u16);
            // ... then its canonical variables in increasing order.
            for (j, row) in dirs.rows().iter().enumerate() {
                if row.get(q) {
                    node = self.child(node, NodeKind::Canonical, dirs.pivots()[j]);
                }
            }
        }
        node
    }

    /// Inserts a pseudocube, storing its complementation vector as a leaf
    /// at the end of its structure path. Returns the parent node id (equal
    /// for two pseudocubes iff they have the same structure).
    ///
    /// Duplicate pseudocubes produce duplicate leaves; deduplicate before
    /// inserting if needed.
    ///
    /// # Panics
    ///
    /// Panics if the pseudocube is over a different number of variables.
    pub fn insert(&mut self, pc: &Pseudocube, payload: u32) -> u32 {
        let node = self.path_node(pc);
        // Complement vector over the non-canonical variables, in order:
        // bit i = 1 iff the i-th NC variable is NOT complemented (its rep
        // coordinate is 1), matching the paper's leaf convention.
        let dirs = pc.structure();
        let nc_count = self.n - pc.degree();
        let mut complements = Gf2Vec::zeros(nc_count);
        let mut i = 0;
        for q in 0..self.n {
            if !dirs.is_pivot(q) {
                complements.set(i, pc.rep().get(q));
                i += 1;
            }
        }
        self.nodes[node as usize].leaves.push(Leaf { complements, payload });
        self.num_leaves += 1;
        node
    }

    /// Looks up the group a pseudocube's structure maps to, without
    /// inserting. Returns the leaves with that exact structure (empty if
    /// the structure has never been inserted).
    #[must_use]
    pub fn leaves_of(&self, pc: &Pseudocube) -> &[Leaf] {
        assert_eq!(pc.num_vars(), self.n, "pseudocube width must match the trie");
        let dirs = pc.structure();
        let mut node = 0u32;
        for q in 0..self.n {
            if dirs.is_pivot(q) {
                continue;
            }
            match self.find_child(node, NodeKind::NonCanonical, q as u16) {
                Some(c) => node = c,
                None => return &[],
            }
            for (j, row) in dirs.rows().iter().enumerate() {
                if row.get(q) {
                    match self.find_child(node, NodeKind::Canonical, dirs.pivots()[j]) {
                        Some(c) => node = c,
                        None => return &[],
                    }
                }
            }
        }
        &self.nodes[node as usize].leaves
    }

    fn find_child(&self, node: u32, kind: NodeKind, var: u16) -> Option<u32> {
        let children = &self.nodes[node as usize].children;
        let pos = children.partition_point(|&c| {
            let ch = &self.nodes[c as usize];
            (ch.kind, ch.var) < (kind, var)
        });
        children.get(pos).copied().filter(|&c| {
            let ch = &self.nodes[c as usize];
            ch.kind == kind && ch.var == var
        })
    }

    /// Iterates over the structure groups: the leaf sets of every node
    /// holding at least one leaf. Each group is a maximal set of inserted
    /// pseudocubes with equal structure (Property 1).
    #[must_use = "iterators are lazy"]
    pub fn groups(&self) -> impl Iterator<Item = &[Leaf]> {
        self.nodes.iter().filter(|n| !n.leaves.is_empty()).map(|n| n.leaves.as_slice())
    }

    /// The number of non-empty groups (`k` in the paper's comparison-count
    /// analysis `Σ |X_i|²/2`).
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.nodes.iter().filter(|n| !n.leaves.is_empty()).count()
    }
}

impl fmt::Display for PartitionTrie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition trie over {} variables: {} nodes, {} leaves in {} groups",
            self.n,
            self.num_nodes(),
            self.num_leaves(),
            self.num_groups()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_gf2::Gf2Vec;

    fn pc(points: &[&str]) -> Pseudocube {
        let pts: Vec<Gf2Vec> = points.iter().map(|s| Gf2Vec::from_bit_str(s).unwrap()).collect();
        Pseudocube::from_points(&pts).unwrap()
    }

    #[test]
    fn same_structure_lands_in_one_group() {
        let a = pc(&["000", "011"]);
        let b = pc(&["100", "111"]); // transform of a: same structure
        let c = pc(&["000", "101"]); // different structure
        assert_eq!(a.structure(), b.structure());
        let mut trie = PartitionTrie::new(3);
        let na = trie.insert(&a, 0);
        let nb = trie.insert(&b, 1);
        let nc = trie.insert(&c, 2);
        assert_eq!(na, nb);
        assert_ne!(na, nc);
        assert_eq!(trie.num_groups(), 2);
        assert_eq!(trie.num_leaves(), 3);
    }

    #[test]
    fn groups_partition_the_insertions() {
        let items = [
            pc(&["0000", "0011"]),
            pc(&["0100", "0111"]),
            pc(&["0000", "0101"]),
            pc(&["0000", "1111"]),
        ];
        let mut trie = PartitionTrie::new(4);
        for (i, p) in items.iter().enumerate() {
            trie.insert(p, i as u32);
        }
        let total: usize = trie.groups().map(<[Leaf]>::len).sum();
        assert_eq!(total, items.len());
        // Every group's members must share a structure.
        for group in trie.groups() {
            let first = group[0].payload as usize;
            for leaf in group {
                assert_eq!(
                    items[leaf.payload as usize].structure(),
                    items[first].structure()
                );
            }
        }
    }

    #[test]
    fn complement_vector_follows_paper_convention() {
        // Minterm x̄0x1x̄2: complement vector 010 (bit = 1 iff uncomplemented).
        let p = Pseudocube::from_point(Gf2Vec::from_bit_str("010").unwrap());
        let mut trie = PartitionTrie::new(3);
        trie.insert(&p, 7);
        let groups: Vec<_> = trie.groups().collect();
        assert_eq!(groups.len(), 1);
        let leaf = groups[0][0];
        assert_eq!(leaf.payload, 7);
        assert_eq!(leaf.complements.to_string(), "010");
    }

    #[test]
    fn leaves_of_looks_up_without_inserting() {
        let a = pc(&["000", "011"]);
        let b = pc(&["100", "111"]);
        let mut trie = PartitionTrie::new(3);
        trie.insert(&a, 0);
        assert_eq!(trie.leaves_of(&b).len(), 1); // same structure as a
        let other = pc(&["000", "101"]);
        assert!(trie.leaves_of(&other).is_empty());
        assert_eq!(trie.num_leaves(), 1);
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        // Two structures sharing their first factor share path nodes.
        let a = pc(&["0000", "0011"]); // structure row {2,3}: factors x0,x1,x2-ish
        let mut trie = PartitionTrie::new(4);
        trie.insert(&a, 0);
        let nodes_one = trie.num_nodes();
        trie.insert(&a, 1); // identical structure: no new nodes
        assert_eq!(trie.num_nodes(), nodes_one);
        let b = pc(&["0000", "0111"]); // row {1,2,3}: shares the x0 NC node
        trie.insert(&b, 2);
        assert!(trie.num_nodes() > nodes_one);
    }

    #[test]
    fn figure2_path_lengths() {
        // The CEX of Figure 2 has 10 nodes on its path (5 NC + 5 C).
        use crate::{Cex, ExorFactor};
        let fac = |vars: &[usize], neg| ExorFactor::new(Gf2Vec::from_index_bits(9, vars), neg);
        let cex = Cex::new(
            9,
            vec![
                fac(&[0, 1], true),
                fac(&[4], false),
                fac(&[0, 2, 5], true),
                fac(&[3, 6], false),
                fac(&[2, 3, 8], false),
            ],
        );
        let pc = cex.to_pseudocube().unwrap();
        let mut trie = PartitionTrie::new(9);
        trie.insert(&pc, 0);
        // Path: x1 +x0 | x4 | x5 +x0 +x2 | x6 +x3 | x8 +x2 +x3 = 11 internal
        // nodes + root.
        assert_eq!(trie.num_nodes(), 1 + 11);
        assert_eq!(trie.num_groups(), 1);
    }

    #[test]
    fn display_summarizes() {
        let trie = PartitionTrie::new(4);
        assert!(trie.to_string().contains("0 leaves"));
    }

    #[test]
    fn degree_zero_points_all_share_the_minterm_structure() {
        // All single points have the same (empty) structure: one group.
        let mut trie = PartitionTrie::new(3);
        for i in 0..8u64 {
            trie.insert(&Pseudocube::from_point(Gf2Vec::from_u64(3, i)), i as u32);
        }
        assert_eq!(trie.num_groups(), 1);
        let group: Vec<_> = trie.groups().next().unwrap().to_vec();
        assert_eq!(group.len(), 8);
    }
}
