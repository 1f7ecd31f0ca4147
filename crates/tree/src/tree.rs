//! The unrooted, strictly binary phylogenetic tree.

use crate::error::TreeError;
use crate::ids::{DirEdgeId, EdgeId, NodeId};

/// An undirected branch between two nodes, with a branch length in expected
/// substitutions per site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint; the `a → b` orientation is [`DirEdgeId`] side 0.
    pub a: NodeId,
    /// The other endpoint; the `b → a` orientation is [`DirEdgeId`] side 1.
    pub b: NodeId,
    /// Branch length (non-negative, finite).
    pub length: f64,
}

/// Compact adjacency record: at most three (neighbor, edge) pairs.
#[derive(Debug, Clone, Copy)]
struct Adjacency {
    entries: [(NodeId, EdgeId); 3],
    len: u8,
}

impl Adjacency {
    fn empty() -> Self {
        Adjacency { entries: [(NodeId(u32::MAX), EdgeId(u32::MAX)); 3], len: 0 }
    }

    fn push(&mut self, node: NodeId, edge: EdgeId) -> Result<(), ()> {
        if self.len as usize >= 3 {
            return Err(());
        }
        self.entries[self.len as usize] = (node, edge);
        self.len += 1;
        Ok(())
    }

    fn as_slice(&self) -> &[(NodeId, EdgeId)] {
        &self.entries[..self.len as usize]
    }
}

/// An unrooted, strictly binary phylogenetic tree over `n ≥ 3` named leaves.
///
/// Invariants (checked at construction):
///
/// * leaves occupy node ids `0..n`, inner nodes `n..2n−2`;
/// * every leaf has degree 1, every inner node degree 3;
/// * there are exactly `2n − 3` edges and the graph is connected (hence a
///   tree);
/// * all branch lengths are finite and non-negative;
/// * taxon names are unique.
///
/// The tree is immutable after construction; likelihood-based placement
/// never changes the reference topology or its branch lengths.
#[derive(Debug, Clone)]
pub struct Tree {
    n_leaves: usize,
    taxa: Vec<String>,
    adj: Vec<Adjacency>,
    edges: Vec<Edge>,
}

impl Tree {
    /// Number of leaves (taxa) `n`.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Number of inner nodes, `n − 2`.
    #[inline]
    pub fn n_inner(&self) -> usize {
        self.n_leaves - 2
    }

    /// Total number of nodes, `2n − 2`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        2 * self.n_leaves - 2
    }

    /// Number of undirected branches, `2n − 3`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        2 * self.n_leaves - 3
    }

    /// Number of directed edges, `2 · (2n − 3)`.
    #[inline]
    pub fn n_dir_edges(&self) -> usize {
        2 * self.n_edges()
    }

    /// Number of *inner-origin* directed edges, i.e. the `3·(n − 2)` CLVs a
    /// full-memory placement engine materializes.
    #[inline]
    pub fn n_inner_dir_edges(&self) -> usize {
        3 * self.n_inner()
    }

    /// True iff `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        node.idx() < self.n_leaves
    }

    /// The taxon name of a leaf node.
    ///
    /// # Panics
    /// Panics if `node` is not a leaf.
    #[inline]
    pub fn taxon(&self, node: NodeId) -> &str {
        &self.taxa[node.idx()]
    }

    /// All taxon names, indexed by leaf id.
    #[inline]
    pub fn taxa(&self) -> &[String] {
        &self.taxa
    }

    /// Looks up a leaf by taxon name (linear scan; intended for tests and
    /// small trees — placement pipelines map names once up front).
    pub fn leaf_by_name(&self, name: &str) -> Option<NodeId> {
        self.taxa.iter().position(|t| t == name).map(|i| NodeId(i as u32))
    }

    /// The (neighbor, edge) pairs adjacent to `node`: one entry for a leaf,
    /// three for an inner node.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        self.adj[node.idx()].as_slice()
    }

    /// The undirected edge record.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.idx()]
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Branch length of `e`.
    #[inline]
    pub fn edge_length(&self, e: EdgeId) -> f64 {
        self.edges[e.idx()].length
    }

    /// Source node of a directed edge `x → y` (that is, `x`).
    #[inline]
    pub fn src(&self, d: DirEdgeId) -> NodeId {
        let e = &self.edges[d.edge().idx()];
        if d.side() == 0 {
            e.a
        } else {
            e.b
        }
    }

    /// Destination node of a directed edge `x → y` (that is, `y`).
    #[inline]
    pub fn dst(&self, d: DirEdgeId) -> NodeId {
        let e = &self.edges[d.edge().idx()];
        if d.side() == 0 {
            e.b
        } else {
            e.a
        }
    }

    /// The directed edge `x → y` along the given undirected edge.
    ///
    /// # Panics
    /// Panics (in debug builds) if `x` is not an endpoint of `e`.
    #[inline]
    pub fn dir_from(&self, e: EdgeId, x: NodeId) -> DirEdgeId {
        let rec = &self.edges[e.idx()];
        debug_assert!(rec.a == x || rec.b == x, "node {x:?} not on edge {e:?}");
        DirEdgeId::new(e, if rec.a == x { 0 } else { 1 })
    }

    /// The directed edge between adjacent nodes `x → y`, if they share an
    /// edge.
    pub fn dir_between(&self, x: NodeId, y: NodeId) -> Option<DirEdgeId> {
        self.neighbors(x).iter().find(|&&(w, _)| w == y).map(|&(_, e)| self.dir_from(e, x))
    }

    /// The two dependency directed edges of the CLV for `d = x → y`:
    /// the orientations `p → x` and `q → x` from the other two neighbors
    /// of `x`. Returns `None` when `x` is a leaf (tip CLVs have no
    /// dependencies).
    #[inline]
    pub fn deps(&self, d: DirEdgeId) -> Option<[DirEdgeId; 2]> {
        let x = self.src(d);
        if self.is_leaf(x) {
            return None;
        }
        let skip = d.edge();
        let mut out = [DirEdgeId(u32::MAX); 2];
        let mut k = 0;
        for &(w, e) in self.neighbors(x) {
            if e != skip {
                out[k] = self.dir_from(e, w);
                k += 1;
            }
        }
        debug_assert_eq!(k, 2);
        Some(out)
    }

    /// Outgoing directed edges of `node` (`x → ·` orientations).
    pub fn dirs_from(&self, node: NodeId) -> impl Iterator<Item = DirEdgeId> + '_ {
        self.neighbors(node).iter().map(move |&(_, e)| self.dir_from(e, node))
    }

    /// Iterates all directed edges.
    pub fn all_dir_edges(&self) -> impl Iterator<Item = DirEdgeId> {
        (0..self.n_dir_edges() as u32).map(DirEdgeId)
    }

    /// Iterates all undirected edges.
    pub fn all_edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.n_edges() as u32).map(EdgeId)
    }

    /// Iterates the directed edges whose CLV is non-trivial (source is an
    /// inner node): the `3 (n − 2)` CLVs of the EPA-NG layout.
    pub fn inner_dir_edges(&self) -> impl Iterator<Item = DirEdgeId> + '_ {
        self.all_dir_edges().filter(move |&d| !self.is_leaf(self.src(d)))
    }

    /// Total branch length of the tree.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.length).sum()
    }

    /// Validates all structural invariants. Called by the builder; exposed
    /// for tests and for code that mutates branch lengths.
    pub fn validate(&self) -> Result<(), TreeError> {
        let n = self.n_leaves;
        if n < 3 {
            return Err(TreeError::TooFewLeaves(n));
        }
        if self.adj.len() != 2 * n - 2 {
            return Err(TreeError::Malformed(format!(
                "expected {} nodes, found {}",
                2 * n - 2,
                self.adj.len()
            )));
        }
        if self.edges.len() != 2 * n - 3 {
            return Err(TreeError::Malformed(format!(
                "expected {} edges, found {}",
                2 * n - 3,
                self.edges.len()
            )));
        }
        for (i, adj) in self.adj.iter().enumerate() {
            let want = if i < n { 1 } else { 3 };
            if adj.len as usize != want {
                return Err(TreeError::NotBinary { node: i as u32, degree: adj.len as usize });
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if !e.length.is_finite() || e.length < 0.0 {
                return Err(TreeError::BadBranchLength { edge: i as u32, value: e.length });
            }
        }
        // Connectivity: BFS from node 0 must reach every node.
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.idx()] {
                    seen[v.idx()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        if count != self.adj.len() {
            return Err(TreeError::Malformed(format!(
                "graph is disconnected: reached {count} of {} nodes",
                self.adj.len()
            )));
        }
        let mut names: Vec<&str> = self.taxa.iter().map(|s| s.as_str()).collect();
        names.sort_unstable();
        for w in names.windows(2) {
            if w[0] == w[1] {
                return Err(TreeError::DuplicateTaxon(w[0].to_string()));
            }
        }
        Ok(())
    }
}

/// Provisional node handle used while building a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildNode(usize);

/// Incremental constructor for [`Tree`].
///
/// Nodes may be added in any order; `build` relabels them so leaves occupy
/// `0..n` (in insertion order) and inner nodes `n..2n−2`, then validates all
/// invariants.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    nodes: Vec<Option<String>>, // Some(name) = leaf, None = inner
    links: Vec<(usize, usize, f64)>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a leaf with the given taxon name.
    pub fn add_leaf(&mut self, name: impl Into<String>) -> BuildNode {
        self.nodes.push(Some(name.into()));
        BuildNode(self.nodes.len() - 1)
    }

    /// Adds an (anonymous) inner node.
    pub fn add_inner(&mut self) -> BuildNode {
        self.nodes.push(None);
        BuildNode(self.nodes.len() - 1)
    }

    /// Connects two nodes with a branch of the given length.
    pub fn connect(&mut self, u: BuildNode, v: BuildNode, length: f64) {
        self.links.push((u.0, v.0, length));
    }

    /// Number of leaves added so far.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Finalizes the tree, relabeling nodes and checking invariants.
    pub fn build(self) -> Result<Tree, TreeError> {
        let n_leaves = self.nodes.iter().filter(|n| n.is_some()).count();
        if n_leaves < 3 {
            return Err(TreeError::TooFewLeaves(n_leaves));
        }
        let n_nodes = self.nodes.len();
        // Relabel: leaves first in insertion order, then inner nodes.
        let mut remap = vec![0usize; n_nodes];
        let mut taxa = Vec::with_capacity(n_leaves);
        let mut next_leaf = 0usize;
        let mut next_inner = n_leaves;
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Some(name) => {
                    remap[i] = next_leaf;
                    taxa.push(name.clone());
                    next_leaf += 1;
                }
                None => {
                    remap[i] = next_inner;
                    next_inner += 1;
                }
            }
        }
        let mut adj = vec![Adjacency::empty(); n_nodes];
        let mut edges = Vec::with_capacity(self.links.len());
        for (k, &(u, v, length)) in self.links.iter().enumerate() {
            if u >= n_nodes || v >= n_nodes || u == v {
                return Err(TreeError::Malformed(format!("bad link {u}-{v}")));
            }
            let (a, b) = (NodeId(remap[u] as u32), NodeId(remap[v] as u32));
            let e = EdgeId(k as u32);
            adj[a.idx()].push(b, e).map_err(|_| TreeError::NotBinary { node: a.0, degree: 4 })?;
            adj[b.idx()].push(a, e).map_err(|_| TreeError::NotBinary { node: b.0, degree: 4 })?;
            edges.push(Edge { a, b, length });
        }
        let tree = Tree { n_leaves, taxa, adj, edges };
        tree.validate()?;
        Ok(tree)
    }
}

/// Builds the smallest possible unrooted binary tree: three leaves joined at
/// a single inner node ("tripod"), with the given branch lengths.
pub fn tripod(names: [&str; 3], lengths: [f64; 3]) -> Result<Tree, TreeError> {
    let mut b = TreeBuilder::new();
    let center = b.add_inner();
    for (name, len) in names.iter().zip(lengths) {
        let leaf = b.add_leaf(*name);
        b.connect(center, leaf, len);
    }
    b.build()
}

/// Builds the four-leaf quartet `((a,b),(c,d))` with the given five branch
/// lengths: pendant a, b, internal, pendant c, d.
pub fn quartet(names: [&str; 4], lengths: [f64; 5]) -> Result<Tree, TreeError> {
    let mut b = TreeBuilder::new();
    let u = b.add_inner();
    let v = b.add_inner();
    let la = b.add_leaf(names[0]);
    let lb = b.add_leaf(names[1]);
    let lc = b.add_leaf(names[2]);
    let ld = b.add_leaf(names[3]);
    b.connect(u, la, lengths[0]);
    b.connect(u, lb, lengths[1]);
    b.connect(u, v, lengths[2]);
    b.connect(v, lc, lengths[3]);
    b.connect(v, ld, lengths[4]);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tripod_shape() {
        let t = tripod(["A", "B", "C"], [0.1, 0.2, 0.3]).unwrap();
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.n_inner(), 1);
        assert_eq!(t.n_edges(), 3);
        assert_eq!(t.n_dir_edges(), 6);
        assert_eq!(t.n_inner_dir_edges(), 3);
        assert!((t.total_length() - 0.6).abs() < 1e-12);
        // Leaves are 0..3, inner node is 3.
        for l in 0..3 {
            assert!(t.is_leaf(NodeId(l)));
            assert_eq!(t.neighbors(NodeId(l)).len(), 1);
        }
        assert!(!t.is_leaf(NodeId(3)));
        assert_eq!(t.neighbors(NodeId(3)).len(), 3);
    }

    #[test]
    fn quartet_shape_and_deps() {
        let t = quartet(["a", "b", "c", "d"], [0.1; 5]).unwrap();
        assert_eq!(t.n_leaves(), 4);
        assert_eq!(t.n_edges(), 5);
        assert_eq!(t.n_inner_dir_edges(), 6);
        // The internal edge connects the two inner nodes (ids 4 and 5).
        let internal =
            t.all_edges().find(|&e| !t.is_leaf(t.edge(e).a) && !t.is_leaf(t.edge(e).b)).unwrap();
        let d = t.dir_from(internal, t.edge(internal).a);
        let deps = t.deps(d).unwrap();
        // Both dependencies are tip orientations pointing at the source.
        for dep in deps {
            assert!(t.is_leaf(t.src(dep)));
            assert_eq!(t.dst(dep), t.src(d));
        }
    }

    #[test]
    fn dir_between_and_reverse() {
        let t = tripod(["A", "B", "C"], [1.0, 1.0, 1.0]).unwrap();
        let center = NodeId(3);
        let d = t.dir_between(NodeId(0), center).unwrap();
        assert_eq!(t.src(d), NodeId(0));
        assert_eq!(t.dst(d), center);
        let r = d.reversed();
        assert_eq!(t.src(r), center);
        assert_eq!(t.dst(r), NodeId(0));
        assert_eq!(t.dir_between(center, NodeId(0)), Some(r));
        assert_eq!(t.dir_between(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn builder_rejects_non_binary() {
        let mut b = TreeBuilder::new();
        let center = b.add_inner();
        for i in 0..4 {
            let l = b.add_leaf(format!("t{i}"));
            b.connect(center, l, 0.1);
        }
        assert!(matches!(b.build(), Err(TreeError::NotBinary { .. })));
    }

    #[test]
    fn builder_rejects_duplicate_taxa() {
        let err = tripod(["A", "A", "C"], [0.1, 0.2, 0.3]).unwrap_err();
        assert!(matches!(err, TreeError::DuplicateTaxon(_)));
    }

    #[test]
    fn builder_rejects_too_few() {
        let mut b = TreeBuilder::new();
        b.add_leaf("A");
        b.add_leaf("B");
        assert!(matches!(b.build(), Err(TreeError::TooFewLeaves(2))));
    }

    #[test]
    fn disconnected_graph_rejected() {
        // Two tripods' worth of nodes, but one link redirected to form a
        // 4-degree node would be caught earlier; build a genuinely
        // disconnected multigraph instead via raw parts is not possible
        // through the builder, so check the degree path.
        let mut b = TreeBuilder::new();
        let c1 = b.add_inner();
        let a = b.add_leaf("a");
        let x = b.add_leaf("x");
        let y = b.add_leaf("y");
        // c1 with only 2 connections -> degree error
        b.connect(c1, a, 0.1);
        b.connect(c1, x, 0.1);
        let _ = y;
        assert!(b.build().is_err());
    }
}
