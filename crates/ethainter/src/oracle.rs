//! The dense fixpoint as a test oracle.
//!
//! Production runs exactly one fixpoint engine (the sparse worklist
//! engine). The naive dense re-scan stays in the crate as its
//! executable specification, and [`evaluate_dense`] is the only way to
//! run it: the differential suites and `bench_fixpoint`'s verdict check
//! compare the production report against it, and the witness suites
//! check every cited fact against its fixpoint. Nothing in the analysis
//! pipeline calls this module.

use crate::artifacts::{AnalysisArtifacts, Inner};
use crate::config::Config;
use crate::engine::provenance::{FactId, Provenance};
use crate::engine::{dense, Prepared, State};
use crate::report::Report;
use crate::witness::fact_text;
use decompiler::Program;
use std::collections::BTreeSet;

/// What the dense specification concludes about one program.
pub struct DenseFixpoint {
    /// The full report — findings, fact counts, defeated guards, and
    /// composite markers, with both the main and the frozen composite
    /// fixpoint evaluated densely. Never carries witnesses.
    pub report: Report,
    /// Every fact of the main least fixpoint (plus the static
    /// `msg.sender`-derived axioms), rendered exactly as
    /// [`WitnessStep::fact`](crate::WitnessStep) renders it: a witness
    /// step's fact holds iff it is in this set. Empty for incomplete or
    /// empty programs.
    pub facts: BTreeSet<String>,
}

/// Evaluates `p` under `cfg` with the dense engine in place of the
/// production one. `cfg.witness` is ignored (the dense engine records
/// no provenance).
pub fn evaluate_dense(p: &Program, cfg: &Config) -> DenseFixpoint {
    let cfg = Config {
        witness: false,
        ..*cfg
    };
    let artifacts = AnalysisArtifacts::build(p, &cfg);
    let (report, st) = artifacts.evaluate_with(
        &cfg,
        |cfg: &Config, inner: &Inner<'_>, st: &mut State, _: Option<&mut Provenance>| {
            dense::run(cfg, &inner.prep, st)
        },
    );
    let facts = match (&artifacts.inner, st) {
        (Some(inner), Some(st)) => rendered_facts(&inner.prep, &st),
        _ => BTreeSet::new(),
    };
    DenseFixpoint { report, facts }
}

/// Renders every true fact of `st` (and every `DS` axiom).
fn rendered_facts(prep: &Prepared<'_>, st: &State) -> BTreeSet<String> {
    let vars = |bits: &[bool], fact: fn(u32) -> FactId| -> Vec<FactId> {
        (0..bits.len() as u32)
            .filter(|&v| bits[v as usize])
            .map(fact)
            .collect()
    };
    let slots = |set: &datalog::BitSet, fact: fn(evm::U256) -> FactId| -> Vec<FactId> {
        set.iter().map(|a| fact(*prep.slots.resolve(a))).collect()
    };
    let mut facts = Vec::new();
    facts.extend(vars(&st.input_tainted, FactId::Input));
    facts.extend(vars(&st.storage_tainted, FactId::Storage));
    facts.extend(vars(&st.origin_tainted, FactId::Origin));
    facts.extend(vars(&st.time_tainted, FactId::Time));
    facts.extend(vars(&prep.ctx.ds, FactId::Sender));
    facts.extend(vars(&st.rba, FactId::Reach));
    facts.extend(slots(&st.tainted_slots, FactId::Slot));
    facts.extend(slots(&st.tainted_mappings, FactId::MappingTaint));
    facts.extend(slots(&st.writable_mappings, FactId::Writable));
    facts.extend(
        (0..st.defeated.len())
            .filter(|&g| st.defeated[g])
            .map(FactId::Defeated),
    );
    if st.all_slots_tainted {
        facts.push(FactId::AllSlots);
    }
    if st.unknown_store_tainted {
        facts.push(FactId::UnknownStore);
    }
    facts.into_iter().map(|f| fact_text(f, prep)).collect()
}
