//! Compilation of FO⁺ queries into the **distance-type fragment**.
//!
//! The Rank-Preserving Normal Form (Theorem 5.4) reduces any FO⁺ query to a
//! Boolean combination of (i) global independence *sentences* `ξ`,
//! (ii) per-component *local* formulas `ψ` evaluated inside cover bags, and
//! (iii) the distance-type skeleton relating the components. Our indexable
//! fragment expresses exactly that output shape directly (DESIGN.md §2):
//!
//! ```text
//! q(x_1, …, x_k) = D_1 ∨ … ∨ D_m                      (top-level disjuncts)
//! D = ξ_1 ∧ … ∧ ξ_s                                    (sentences)
//!     ∧ U_1(x_1) ∧ … ∧ U_k(x_k)                        (unary formulas)
//!     ∧ ⋀ δ(x_i, x_j)                                  (binary constraints)
//! ```
//!
//! where each `δ` is a distance atom `dist ≤ d` / `dist > d`, an (anti-)edge
//! or an (in-)equality, and each `U_i` is an arbitrary unary FO⁺ formula
//! (evaluated via the guarded-locality machinery of `nd-logic`). Queries
//! outside this shape are reported [`UnsupportedReason`] and handled by the
//! naive engine.

use nd_logic::ast::{Formula, Query, VarId};

/// A binary constraint kind between two answer variables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinKind {
    /// `dist(x_i, x_j) ≤ d` with `d ≥ 1` (`d = 0` normalizes to [`BinKind::Eq`]).
    Le(u32),
    /// `dist(x_i, x_j) > d` (`d = 0` normalizes to [`BinKind::Neq`]).
    Gt(u32),
    /// `E(x_i, x_j)`.
    Edge,
    /// `¬E(x_i, x_j)`.
    NotEdge,
    /// `x_i = x_j`.
    Eq,
    /// `x_i ≠ x_j`.
    Neq,
}

impl BinKind {
    /// Is this a far constraint handled by kernels/skip pointers?
    pub fn excluding(self) -> bool {
        matches!(self, BinKind::Gt(_))
    }

    /// The radius this constraint contributes to the global `r`.
    pub fn radius(self) -> u32 {
        match self {
            BinKind::Le(d) | BinKind::Gt(d) => d,
            BinKind::Edge | BinKind::NotEdge => 1,
            BinKind::Eq | BinKind::Neq => 0,
        }
    }
}

/// A constraint between answer positions `i < j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinaryConstraint {
    pub i: usize,
    pub j: usize,
    pub kind: BinKind,
}

/// One compiled conjunctive branch of a query.
#[derive(Clone, Debug, PartialEq)]
pub struct FragmentQuery {
    /// Arity `k`.
    pub k: usize,
    /// Boolean subformulas (arity 0) — the `ξ`-analogues, checked once at
    /// preparation time.
    pub sentences: Vec<Formula>,
    /// Per position, the conjunction of unary conjuncts (free variable =
    /// the position's query variable). `True` when unconstrained.
    pub unary: Vec<Formula>,
    /// The query variable of each position (for unary evaluation).
    pub vars: Vec<VarId>,
    /// Binary constraints, `i < j`.
    pub binary: Vec<BinaryConstraint>,
}

impl FragmentQuery {
    /// Maximum constraint radius `r` (≥ 1 when any binary constraint is
    /// present; the cover/oracle radius of the prepared engine).
    pub fn max_radius(&self) -> u32 {
        self.binary
            .iter()
            .map(|c| c.kind.radius().max(1))
            .max()
            .unwrap_or(0)
    }

    /// Constraints incident to position `j` from smaller positions.
    pub fn constraints_on(&self, j: usize) -> impl Iterator<Item = &BinaryConstraint> {
        self.binary.iter().filter(move |c| c.j == j)
    }
}

/// Why a query does not fit the fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnsupportedReason {
    /// A conjunct mentions more than two free variables.
    WideConjunct(String),
    /// A two-variable conjunct is not a recognized binary atom shape.
    ComplexBinary(String),
    /// A disjunct of the top-level disjunction failed to compile.
    BadDisjunct(Box<UnsupportedReason>),
    /// Relational atoms must be rewritten (Lemma 2.2) before preparation.
    RelationalAtom(String),
}

impl std::fmt::Display for UnsupportedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnsupportedReason::WideConjunct(s) => {
                write!(f, "conjunct with >2 free variables: {s}")
            }
            UnsupportedReason::ComplexBinary(s) => {
                write!(f, "unrecognized two-variable conjunct: {s}")
            }
            UnsupportedReason::BadDisjunct(r) => write!(f, "disjunct not in fragment: {r}"),
            UnsupportedReason::RelationalAtom(s) => {
                write!(f, "relational atom {s} (apply Lemma 2.2 first)")
            }
        }
    }
}

/// Compile a query into fragment branches (one per top-level disjunct).
pub fn compile(q: &Query) -> Result<Vec<FragmentQuery>, UnsupportedReason> {
    if let Some(name) = find_rel_atom(&q.formula) {
        return Err(UnsupportedReason::RelationalAtom(name));
    }
    let disjuncts: Vec<&Formula> = match &q.formula {
        Formula::Or(ds) => ds.iter().collect(),
        other => vec![other],
    };
    let mut out = Vec::with_capacity(disjuncts.len());
    for d in disjuncts {
        match compile_conjunctive(d, q) {
            Ok(fq) => out.push(fq),
            Err(e) if disjuncts_len(&q.formula) > 1 => {
                return Err(UnsupportedReason::BadDisjunct(Box::new(e)))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

fn disjuncts_len(f: &Formula) -> usize {
    match f {
        Formula::Or(ds) => ds.len(),
        _ => 1,
    }
}

fn find_rel_atom(f: &Formula) -> Option<String> {
    match f {
        Formula::Rel(name, _) => Some(name.clone()),
        Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => find_rel_atom(g),
        Formula::And(gs) | Formula::Or(gs) => gs.iter().find_map(find_rel_atom),
        _ => None,
    }
}

fn compile_conjunctive(f: &Formula, q: &Query) -> Result<FragmentQuery, UnsupportedReason> {
    let k = q.arity();
    let pos_of = |v: VarId| q.free.iter().position(|&w| w == v);
    let mut fq = FragmentQuery {
        k,
        sentences: Vec::new(),
        unary: vec![Formula::True; k],
        vars: q.free.clone(),
        binary: Vec::new(),
    };
    let conjuncts: Vec<&Formula> = match f {
        Formula::And(cs) => cs.iter().collect(),
        other => vec![other],
    };
    for c in conjuncts {
        let mut fv = c.free_vars();
        fv.retain(|v| pos_of(*v).is_some()); // only answer variables matter
        match fv.len() {
            0 => fq.sentences.push(c.clone()),
            1 => {
                let i = pos_of(fv[0]).unwrap();
                fq.unary[i] = Formula::and([fq.unary[i].clone(), c.clone()]);
            }
            2 => {
                let kind = classify_binary(c, fv[0], fv[1])
                    .ok_or_else(|| UnsupportedReason::ComplexBinary(c.to_string()))?;
                let (i, j) = (pos_of(fv[0]).unwrap(), pos_of(fv[1]).unwrap());
                let (i, j, kind) = if i < j { (i, j, kind) } else { (j, i, kind) };
                fq.binary.push(BinaryConstraint { i, j, kind });
            }
            _ => return Err(UnsupportedReason::WideConjunct(c.to_string())),
        }
    }
    Ok(fq)
}

/// Recognize a two-variable conjunct as a binary constraint. All recognized
/// shapes are symmetric, so the variable order does not matter.
fn classify_binary(f: &Formula, _a: VarId, _b: VarId) -> Option<BinKind> {
    match f {
        Formula::DistLe(_, _, 0) => Some(BinKind::Eq),
        Formula::DistLe(_, _, d) => Some(BinKind::Le(*d)),
        Formula::Edge(..) => Some(BinKind::Edge),
        Formula::Eq(..) => Some(BinKind::Eq),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::DistLe(_, _, 0) => Some(BinKind::Neq),
            Formula::DistLe(_, _, d) => Some(BinKind::Gt(*d)),
            Formula::Edge(..) => Some(BinKind::NotEdge),
            Formula::Eq(..) => Some(BinKind::Neq),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_logic::parse_query;

    #[test]
    fn example_2_compiles() {
        let q = parse_query("dist(x,y) > 2 && Blue(y)").unwrap();
        let branches = compile(&q).unwrap();
        assert_eq!(branches.len(), 1);
        let fq = &branches[0];
        assert_eq!(fq.k, 2);
        assert_eq!(
            fq.binary,
            vec![BinaryConstraint {
                i: 0,
                j: 1,
                kind: BinKind::Gt(2)
            }]
        );
        assert_eq!(fq.unary[0], Formula::True);
        assert_ne!(fq.unary[1], Formula::True);
        assert_eq!(fq.max_radius(), 2);
    }

    #[test]
    fn ternary_far_query() {
        let q = parse_query("q(x,y,z) := dist(x,z) > 2 && dist(y,z) > 2 && Blue(z)").unwrap();
        let fq = &compile(&q).unwrap()[0];
        assert_eq!(fq.k, 3);
        assert_eq!(fq.binary.len(), 2);
        assert!(fq
            .binary
            .iter()
            .all(|c| c.kind == BinKind::Gt(2) && c.j == 2));
    }

    #[test]
    fn guarded_unary_conjuncts() {
        // Parenthesize the quantifier: in operand position it would scope
        // over everything to its right.
        let q = parse_query("(exists u. (E(x,u) && Blue(u))) && dist(x,y) <= 3 && Red(y)").unwrap();
        let fq = &compile(&q).unwrap()[0];
        assert_eq!(
            fq.binary,
            vec![BinaryConstraint {
                i: 0,
                j: 1,
                kind: BinKind::Le(3)
            }]
        );
        assert_ne!(fq.unary[0], Formula::True);
        assert_ne!(fq.unary[1], Formula::True);
    }

    #[test]
    fn sentences_split_out() {
        let q = parse_query("(exists u. Blue(u)) && E(x, y)").unwrap();
        let fq = &compile(&q).unwrap()[0];
        assert_eq!(fq.sentences.len(), 1);
        assert_eq!(
            fq.binary,
            vec![BinaryConstraint {
                i: 0,
                j: 1,
                kind: BinKind::Edge
            }]
        );
    }

    #[test]
    fn union_branches() {
        let q = parse_query("E(x,y) || dist(x,y) > 4").unwrap();
        let branches = compile(&q).unwrap();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[1].binary[0].kind, BinKind::Gt(4));
    }

    #[test]
    fn normalizations() {
        let q = parse_query("dist(x,y) <= 0 && x != y").unwrap();
        let fq = &compile(&q).unwrap()[0];
        assert_eq!(fq.binary[0].kind, BinKind::Eq);
        assert_eq!(fq.binary[1].kind, BinKind::Neq);
        let q = parse_query("dist(x,y) > 0").unwrap();
        assert_eq!(compile(&q).unwrap()[0].binary[0].kind, BinKind::Neq);
    }

    #[test]
    fn unsupported_shapes() {
        let q = parse_query("E(x,y) || (E(y,z) && E(z,x))").unwrap();
        // Three free variables in one conjunct of the second disjunct? No —
        // each conjunct has 2. But the disjuncts have different free-var
        // sets, which is fine: missing variables are unconstrained.
        assert!(compile(&q).is_ok());

        let q = parse_query("exists u. (E(x,u) && E(u,y))").unwrap();
        // Two free variables under a quantifier: not a recognized binary.
        assert!(matches!(
            compile(&q),
            Err(UnsupportedReason::ComplexBinary(_))
        ));

        let q = parse_query("R(x, y)").unwrap();
        assert!(matches!(
            compile(&q),
            Err(UnsupportedReason::RelationalAtom(_))
        ));
    }

    #[test]
    fn wide_conjunct_rejected() {
        // A single atom can't span 3 variables, but a disjunction inside a
        // conjunct can.
        let q = parse_query("(E(x,y) || E(y,z)) && E(x,z)").unwrap();
        assert!(matches!(
            compile(&q),
            Err(UnsupportedReason::WideConjunct(_))
        ));
    }

    #[test]
    fn constraints_on_position() {
        let q = parse_query("E(x,y) && dist(x,z) > 2 && Blue(z)").unwrap();
        let fq = &compile(&q).unwrap()[0];
        assert_eq!(fq.constraints_on(1).count(), 1);
        assert_eq!(fq.constraints_on(2).count(), 1);
        assert_eq!(fq.constraints_on(0).count(), 0);
    }
}
