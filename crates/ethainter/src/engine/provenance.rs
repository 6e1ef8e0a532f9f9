//! First-derivation provenance for the fixpoint relations.
//!
//! When witnesses are requested, the production (sparse) engine runs
//! with a [`Provenance`] recorder attached, and every helper that turns
//! a fact true records *why* it first became true: the rule name, the
//! statement that fired, and the prerequisite facts ([`FactId`]s). The
//! prerequisites are read off the state at the moment of derivation, so
//! each one was already true — and therefore already recorded, or an
//! axiom (CALLDATALOAD sources, `msg.sender`, unguarded blocks). The
//! edges thus form an acyclic graph, and backtracking from any sink
//! fact replays a concrete source→sink path.
//!
//! The worklist schedule is a pure function of the program and the
//! config: seeds and index lists are in statement/guard order and no
//! step iterates a hash map, so "first" derivation is canonical and
//! witnesses are byte-identical across runs and processes. With
//! [`Config::witness`](crate::Config) off the engine carries no
//! recorder and builds no edge.

use super::{Guard, GuardCond, GuardKind, State};
use decompiler::StmtId;
use evm::U256;
use std::collections::HashMap;

/// A fact of the fixpoint state, addressable for provenance lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum FactId {
    /// Variable carries input taint (`TaintedFlow`).
    Input(u32),
    /// Variable carries storage taint (`AttackerModelInfoflow`).
    Storage(u32),
    /// Constant storage slot holds tainted data.
    Slot(U256),
    /// Mapping base slot holds tainted data.
    MappingTaint(U256),
    /// Mapping base slot the attacker can enroll into.
    Writable(U256),
    /// `StorageWrite-2` fired: every known slot tainted.
    AllSlots,
    /// A tainted store to an unresolved address exists.
    UnknownStore,
    /// Guard (by index into `Prepared::guards`) was defeated.
    Defeated(usize),
    /// Block is `ReachableByAttacker`.
    Reach(u32),
    /// Variable is `msg.sender`-derived (Figure 4's `DS`) — a static
    /// axiom, never carries an edge.
    Sender(u32),
    /// Variable carries `ORIGIN`-derived taint (`OriginFlow`).
    Origin(u32),
    /// Variable carries `TIMESTAMP`-derived taint (`TimeFlow`).
    Time(u32),
}

/// Why a fact first became true: the deriving rule, the statement that
/// fired (plus an optional secondary site, e.g. the `MSTORE` feeding an
/// `MLOAD`), and the prerequisite facts.
#[derive(Clone, Debug)]
pub(crate) struct Edge {
    pub rule: &'static str,
    pub stmt: Option<StmtId>,
    pub via: Option<StmtId>,
    pub sources: Vec<FactId>,
}

/// First-derivation edges for every fact the engine derived. Facts with
/// no entry are axioms (or were never derived). Only ever looked up,
/// never iterated, so the map's order cannot reach a witness.
#[derive(Default)]
pub(crate) struct Provenance {
    edges: HashMap<FactId, Edge>,
}

impl Provenance {
    /// Records the first derivation of `fact`; later derivations are
    /// ignored (the engine's schedule is deterministic, so "first" is
    /// canonical). `Sender` facts are static axioms and never recorded.
    pub fn record(&mut self, fact: FactId, edge: Edge) {
        if !matches!(fact, FactId::Sender(_)) {
            self.edges.entry(fact).or_insert(edge);
        }
    }

    /// The first-derivation edge of `fact`, if it was derived (axioms
    /// and never-derived facts return `None`).
    pub fn get(&self, fact: FactId) -> Option<&Edge> {
        self.edges.get(&fact)
    }
}

/// The prerequisite facts that defeat `guard` under the current state —
/// the provenance mirror of [`guard_defeated`](super::guard_defeated).
/// Membership tests run over atoms (`atoms` is the guard's
/// [`Prepared::guard_atoms`] row); the cited [`FactId`]s carry the
/// 256-bit slots straight from the guard kinds, so witnesses stay
/// atom-free.
pub(crate) fn defeat_sources(guard: &Guard, atoms: &[Option<u32>], st: &State) -> Vec<FactId> {
    let ci = guard.cond.0;
    if st.input_tainted[ci as usize] {
        return vec![FactId::Input(ci)];
    }
    if st.storage_tainted[ci as usize] {
        return vec![FactId::Storage(ci)];
    }
    let kind_fact = |(i, k): (usize, &GuardKind)| -> Option<FactId> {
        match k {
            GuardKind::SenderEqSlot(v) => {
                if atoms[i].is_some_and(|a| st.tainted_slots.contains(a)) {
                    Some(FactId::Slot(*v))
                } else if st.all_slots_tainted {
                    Some(FactId::AllSlots)
                } else {
                    None
                }
            }
            GuardKind::Membership(base) => atoms[i]
                .is_some_and(|a| st.writable_mappings.contains(a))
                .then_some(FactId::Writable(*base)),
            GuardKind::SenderEqOther | GuardKind::SenderOpaque => None,
        }
    };
    let defeated: Vec<FactId> = guard
        .cond_kind
        .kinds()
        .iter()
        .enumerate()
        .filter_map(kind_fact)
        .collect();
    match &guard.cond_kind {
        // One defeated disjunct suffices; cite only the first.
        GuardCond::Disj(_) => defeated.into_iter().take(1).collect(),
        _ => defeated,
    }
}
