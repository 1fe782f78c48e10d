//! Mutation logs: the update language of `PreparedQuery::apply`.
//!
//! The paper's data structure is built for a *fixed* graph; Section 5.5's
//! Removal Lemma is the one dynamic concession — a deleted element is
//! recolored rather than physically removed, so every index keeps its
//! domain. This crate packages that idea as a typed, textual
//! [`MutationLog`]:
//!
//! * **edge updates** (`add-edge` / `remove-edge`) and **vertex
//!   appends** (`add-node`) go through [`nd_graph::CsrDelta`], producing
//!   the exact symmetric difference between the base and merged edge
//!   sets;
//! * **vertex removal** (`remove-node`) is the Removal-Lemma recoloring:
//!   the vertex is isolated, stripped of every color, and marked with the
//!   reserved color [`REMOVED_COLOR`] — ids stay stable, indexes stay
//!   total;
//! * **color updates** (`color` / `uncolor`) flip unary-predicate
//!   membership.
//!
//! [`MutationLog::apply_to`] validates and applies a whole log against a
//! [`ColoredGraph`] and returns the mutated graph, which the engine then
//! prepares afresh. The canonical text rendering is stable, and
//! [`MutationLog::digest`] hashes it (FNV-1a) so snapshot lineage can
//! record *which* log produced an epoch.

use nd_graph::{ColorId, ColoredGraph, CsrDelta, GraphError, Vertex};
use std::fmt;

/// The reserved color marking Removal-Lemma-deleted vertices. Logs may
/// not assign or clear it directly; `remove-node` is the only writer.
pub const REMOVED_COLOR: &str = "@removed";

/// One update step. The `Display` rendering is the canonical line format
/// parsed by [`Mutation::parse_line`] (and by the `update` serve verb).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// `add-edge u v` — insert an undirected edge (no-op if present).
    AddEdge(Vertex, Vertex),
    /// `remove-edge u v` — delete an undirected edge (no-op if absent).
    RemoveEdge(Vertex, Vertex),
    /// `add-node` — append one isolated, uncolored vertex.
    AddNode,
    /// `remove-node v` — Removal-Lemma deletion: isolate `v`, strip its
    /// colors, mark it [`REMOVED_COLOR`].
    RemoveNode(Vertex),
    /// `color v NAME` — add `v` to the color (created empty if new).
    Color(Vertex, String),
    /// `uncolor v NAME` — remove `v` from an existing color.
    Uncolor(Vertex, String),
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::AddEdge(u, v) => write!(f, "add-edge {u} {v}"),
            Mutation::RemoveEdge(u, v) => write!(f, "remove-edge {u} {v}"),
            Mutation::AddNode => write!(f, "add-node"),
            Mutation::RemoveNode(v) => write!(f, "remove-node {v}"),
            Mutation::Color(v, name) => write!(f, "color {v} {name}"),
            Mutation::Uncolor(v, name) => write!(f, "uncolor {v} {name}"),
        }
    }
}

/// Why a log could not be parsed or applied.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateError {
    /// A graph-layer defect (out-of-range vertex, self-loop, overflow).
    Graph(GraphError),
    /// `uncolor` names a color the graph does not define.
    UnknownColor(String),
    /// A `color`/`uncolor` op names the reserved [`REMOVED_COLOR`].
    ReservedColor,
    /// An op references a vertex removed earlier in the same log.
    RemovedVertex(Vertex),
    /// A line of the text form did not parse.
    Parse { line: usize, msg: String },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Graph(e) => write!(f, "{e}"),
            UpdateError::UnknownColor(name) => {
                write!(
                    f,
                    "uncolor names color {name:?}, which the graph does not define"
                )
            }
            UpdateError::ReservedColor => {
                write!(f, "color {REMOVED_COLOR:?} is reserved for remove-node")
            }
            UpdateError::RemovedVertex(v) => {
                write!(f, "vertex {v} was removed earlier in this log")
            }
            UpdateError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<GraphError> for UpdateError {
    fn from(e: GraphError) -> Self {
        UpdateError::Graph(e)
    }
}

impl Mutation {
    /// Parse one canonical mutation line (the text after the `update`
    /// verb of the serve protocol). Whitespace-tokenized; color names are
    /// single tokens.
    pub fn parse_line(s: &str) -> Result<Mutation, String> {
        let toks: Vec<&str> = s.split_whitespace().collect();
        let vertex = |t: &str| -> Result<Vertex, String> {
            t.parse::<Vertex>()
                .map_err(|_| format!("expected a vertex id, got {t:?}"))
        };
        let arity = |want: usize| -> Result<(), String> {
            if toks.len() == want + 1 {
                Ok(())
            } else {
                Err(format!(
                    "{} takes {} argument(s), got {}",
                    toks[0],
                    want,
                    toks.len() - 1
                ))
            }
        };
        match toks.first() {
            None => Err("empty mutation".into()),
            Some(&"add-edge") => {
                arity(2)?;
                Ok(Mutation::AddEdge(vertex(toks[1])?, vertex(toks[2])?))
            }
            Some(&"remove-edge") => {
                arity(2)?;
                Ok(Mutation::RemoveEdge(vertex(toks[1])?, vertex(toks[2])?))
            }
            Some(&"add-node") => {
                arity(0)?;
                Ok(Mutation::AddNode)
            }
            Some(&"remove-node") => {
                arity(1)?;
                Ok(Mutation::RemoveNode(vertex(toks[1])?))
            }
            Some(&"color") => {
                arity(2)?;
                Ok(Mutation::Color(vertex(toks[1])?, toks[2].to_owned()))
            }
            Some(&"uncolor") => {
                arity(2)?;
                Ok(Mutation::Uncolor(vertex(toks[1])?, toks[2].to_owned()))
            }
            Some(other) => Err(format!("unknown mutation verb {other:?}")),
        }
    }
}

/// An ordered batch of mutations, applied atomically by
/// [`MutationLog::apply_to`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationLog {
    muts: Vec<Mutation>,
}

impl MutationLog {
    pub fn new() -> MutationLog {
        MutationLog::default()
    }

    pub fn push(&mut self, m: Mutation) {
        self.muts.push(m);
    }

    pub fn len(&self) -> usize {
        self.muts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.muts.is_empty()
    }

    pub fn mutations(&self) -> &[Mutation] {
        &self.muts
    }

    /// Parse the multi-line text form: one mutation per line, blank lines
    /// and `#` comments skipped. Line numbers in errors are 1-based.
    pub fn parse(text: &str) -> Result<MutationLog, UpdateError> {
        let mut log = MutationLog::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match Mutation::parse_line(line) {
                Ok(m) => log.push(m),
                Err(msg) => return Err(UpdateError::Parse { line: i + 1, msg }),
            }
        }
        Ok(log)
    }

    /// FNV-1a over the canonical text rendering. Stable across sessions,
    /// so persisted snapshot lineage can name the log that produced an
    /// epoch (see `nd-core`'s index META section).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for m in &self.muts {
            for b in m.to_string().bytes() {
                eat(b);
            }
            eat(b'\n');
        }
        h
    }

    /// Apply the whole log against `g`, sequentially and transactionally:
    /// the first invalid op aborts with a typed error and `g` is untouched
    /// (the log only ever builds a [`CsrDelta`] plus a color-op tape, then
    /// materializes). Returns the mutated graph.
    pub fn apply_to(&self, g: &ColoredGraph) -> Result<ColoredGraph, UpdateError> {
        let mut delta = CsrDelta::new();
        let mut removed: Vec<Vertex> = Vec::new();
        // Color edits can reference colors created mid-log, so they run as
        // an ordered tape after the edge delta materializes.
        enum ColorOp {
            Set(Vertex, String, bool),
            Strip(Vertex),
        }
        let mut tape: Vec<ColorOp> = Vec::new();
        let not_removed = |removed: &[Vertex], v: Vertex| -> Result<(), UpdateError> {
            if removed.contains(&v) {
                Err(UpdateError::RemovedVertex(v))
            } else {
                Ok(())
            }
        };
        for m in &self.muts {
            match m {
                Mutation::AddEdge(u, v) => {
                    not_removed(&removed, *u)?;
                    not_removed(&removed, *v)?;
                    delta.try_add_edge(g, *u, *v)?;
                }
                Mutation::RemoveEdge(u, v) => {
                    delta.try_remove_edge(g, *u, *v)?;
                }
                Mutation::AddNode => {
                    delta.try_add_node(g)?;
                }
                Mutation::RemoveNode(v) => {
                    delta.try_isolate(g, *v)?;
                    removed.push(*v);
                    tape.push(ColorOp::Strip(*v));
                }
                Mutation::Color(v, name) | Mutation::Uncolor(v, name) => {
                    if name == REMOVED_COLOR {
                        return Err(UpdateError::ReservedColor);
                    }
                    not_removed(&removed, *v)?;
                    if (*v as usize) >= delta.n(g) {
                        return Err(GraphError::VertexOutOfRange {
                            v: *v,
                            n: delta.n(g),
                        }
                        .into());
                    }
                    let member = matches!(m, Mutation::Color(..));
                    tape.push(ColorOp::Set(*v, name.clone(), member));
                }
            }
        }

        let mut graph = delta.apply(g);
        for op in tape {
            match op {
                ColorOp::Set(v, name, member) => {
                    let cid = match graph.color_by_name(&name) {
                        Some(c) => c,
                        None if member => graph.add_color(Vec::new(), Some(name)),
                        None => return Err(UpdateError::UnknownColor(name)),
                    };
                    graph.try_set_color_membership(v, cid, member)?;
                }
                ColorOp::Strip(v) => {
                    for c in 0..graph.num_colors() {
                        graph.try_set_color_membership(v, ColorId(c as u32), false)?;
                    }
                    let rid = match graph.color_by_name(REMOVED_COLOR) {
                        Some(c) => c,
                        None => graph.add_color(Vec::new(), Some(REMOVED_COLOR.into())),
                    };
                    graph.try_set_color_membership(v, rid, true)?;
                }
            }
        }
        Ok(graph)
    }
}

impl fmt::Display for MutationLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.muts {
            writeln!(f, "{m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_graph::generators;

    fn log_of(text: &str) -> MutationLog {
        MutationLog::parse(text).unwrap()
    }

    #[test]
    fn parse_display_roundtrip_and_digest() {
        let text =
            "add-edge 0 5\nremove-edge 1 2\nadd-node\nremove-node 3\ncolor 4 Blue\nuncolor 0 Red\n";
        let log = log_of(text);
        assert_eq!(log.len(), 6);
        assert_eq!(log.to_string(), text);
        assert_eq!(MutationLog::parse(&log.to_string()).unwrap(), log);
        // Comments and blank lines are skipped.
        let commented = format!("# header\n\n{text}\n  # trailing\n");
        assert_eq!(log_of(&commented), log);
        // Digest is stable and order-sensitive.
        assert_eq!(log.digest(), log_of(text).digest());
        assert_ne!(
            log.digest(),
            log_of("remove-edge 1 2\nadd-edge 0 5").digest()
        );
        assert_ne!(MutationLog::new().digest(), log.digest());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (bad, line) in [
            ("frobnicate 1 2", 1),
            ("add-edge 1", 1),
            ("add-edge 1 2 3", 1),
            ("add-node 7", 1),
            ("remove-node x", 1),
            ("color 1", 1),
            ("add-edge 0 1\ncolor -3 Blue", 2),
        ] {
            match MutationLog::parse(bad) {
                Err(UpdateError::Parse { line: l, .. }) => assert_eq!(l, line, "{bad}"),
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn apply_edges_nodes_and_colors() {
        let mut g = generators::path(4); // 0-1-2-3
        g.add_color(vec![1, 2], Some("Blue".into()));
        let log = log_of(
            "add-node\nadd-edge 0 4\nremove-edge 1 2\ncolor 4 Blue\ncolor 0 Green\nuncolor 1 Blue",
        );
        let out = log.apply_to(&g).unwrap();
        assert_eq!(out.n(), 5);
        assert!(out.has_edge(0, 4));
        assert!(!out.has_edge(1, 2));
        assert_eq!(
            out.edges().collect::<Vec<_>>(),
            vec![(0, 1), (0, 4), (2, 3)]
        );
        let blue = out.color_by_name("Blue").unwrap();
        assert!(out.has_color(4, blue));
        assert!(!out.has_color(1, blue));
        assert!(out.has_color(2, blue));
        let green = out.color_by_name("Green").unwrap();
        assert!(out.has_color(0, green));
        // The base graph is untouched.
        assert_eq!(g.n(), 4);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn remove_node_is_removal_lemma_recoloring() {
        let mut g = generators::cycle(5);
        g.add_color(vec![2, 3], Some("Blue".into()));
        let out = log_of("remove-node 2").apply_to(&g).unwrap();
        // Same domain, isolated, stripped, marked.
        assert_eq!(out.n(), 5);
        assert_eq!(out.neighbors(2), &[] as &[u32]);
        assert_eq!(
            out.edges().collect::<Vec<_>>(),
            vec![(0, 1), (0, 4), (3, 4)]
        );
        let blue = out.color_by_name("Blue").unwrap();
        assert!(!out.has_color(2, blue));
        assert!(out.has_color(3, blue));
        let rem = out.color_by_name(REMOVED_COLOR).unwrap();
        assert_eq!(out.color_members(rem), &[2]);

        // Ops referencing the removed vertex afterwards are rejected.
        for later in ["remove-node 2\nadd-edge 2 4", "remove-node 2\ncolor 2 Blue"] {
            match log_of(later).apply_to(&g) {
                Err(e) => assert_eq!(e, UpdateError::RemovedVertex(2), "{later}"),
                Ok(_) => panic!("{later} accepted"),
            }
        }
    }

    #[test]
    fn typed_apply_errors() {
        let g = generators::path(3);
        assert!(matches!(
            log_of("add-edge 0 9").apply_to(&g),
            Err(UpdateError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
        assert!(matches!(
            log_of("add-edge 1 1").apply_to(&g),
            Err(UpdateError::Graph(GraphError::SelfLoop { .. }))
        ));
        match log_of("uncolor 1 Ghost").apply_to(&g) {
            Err(e) => assert_eq!(e, UpdateError::UnknownColor("Ghost".into())),
            Ok(_) => panic!("unknown color accepted"),
        }
        match log_of("color 1 @removed").apply_to(&g) {
            Err(e) => assert_eq!(e, UpdateError::ReservedColor),
            Ok(_) => panic!("reserved color accepted"),
        }
        assert!(matches!(
            log_of("color 9 Blue").apply_to(&g),
            Err(UpdateError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
        // A color created earlier in the same log is visible to uncolor.
        assert!(log_of("color 1 Fresh\nuncolor 1 Fresh")
            .apply_to(&g)
            .is_ok());
    }

    #[test]
    fn redundant_ops_cancel_in_the_diff() {
        let g = generators::path(4);
        let out = log_of("add-edge 0 2\nremove-edge 0 2\nremove-edge 1 2\nadd-edge 1 2")
            .apply_to(&g)
            .unwrap();
        assert_eq!(out.n(), g.n());
        assert_eq!(
            out.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }
}
