//! Sparse, worklist-driven fixpoint evaluation — the production engine.
//!
//! Instead of re-scanning every statement per round, the engine keeps a
//! worklist of statements whose inputs may have changed and processes it
//! to exhaustion. Every rule firing is mapped to the statements it can
//! enable through the one-time [`SparseIndexes`]:
//!
//! - a variable gaining input/storage taint pushes its **use sites**
//!   (plus, for input taint, the `SStore`s whose *mapping keys* include
//!   it — keys hide behind `Hash2` chains and are not direct uses);
//! - a slot/mapping becoming tainted pushes exactly the `SLoad`s that
//!   read it; a tainted `MStore` value pushes the `MLoad`s at the same
//!   constant offset;
//! - a guard defeat does **not** rebuild `ReachableByAttacker`: each
//!   block keeps a count of undefeated guard regions covering it, the
//!   defeat decrements its region's counters, and a counter hitting zero
//!   flips just that block and re-pushes just its statements
//!   (delta-`recompute_rba`).
//!
//! **Worklist invariants** (why this terminates at the same fixpoint as
//! the dense engine — see `DESIGN.md` §10):
//!
//! 1. Every state field is monotone (bits flip `false → true`, sets only
//!    grow, block cover counts only fall), so each event fires at most
//!    once per fact and total work is bounded by the index sizes.
//! 2. A statement is pushed whenever *any* input of its transfer
//!    function changes — variable taint, storage facts, global flags,
//!    or its block's `rba` bit — so no enabled rule is ever stranded
//!    (fairness). Processing is idempotent: re-evaluating a statement
//!    whose inputs did not change performs no state change and pushes
//!    nothing.
//! 3. Monotone rule systems have a unique least fixpoint; 1 + 2 make
//!    the engine a fair chaotic iteration, which converges to exactly
//!    that fixpoint — hence verdicts, findings, and fact counts are
//!    identical to the dense specification's by construction (and by
//!    the differential suites in `crates/bench`, which run it through
//!    [`crate::oracle::evaluate_dense`]).
//!
//! **Provenance.** With a [`Provenance`] recorder attached (witness
//! mode), each event helper below records the fact's first-derivation
//! [`Edge`] just before flipping it; the edge's prerequisites are read
//! off the current state through a closure that only runs when a
//! recorder is present, so the witness-off engine does no recording
//! work at all.

use super::indexes::SparseIndexes;
use super::provenance::{defeat_sources, Edge, FactId, Provenance};
use super::{guard_defeated, KeyClass, Prepared, State};
use crate::analysis::deadline_exceeded;
use crate::config::{Config, StorageModel};
use decompiler::{Op, StmtId, Var};
use std::collections::VecDeque;

/// Runs the sparse fixpoint, mutating `st` in place until the worklist
/// drains (= convergence) or the cooperative deadline fires. With
/// `prov`, every derived fact's first derivation is recorded there.
pub(crate) fn run(
    cfg: &Config,
    prep: &Prepared<'_>,
    idx: &SparseIndexes,
    st: &mut State,
    prov: Option<&mut Provenance>,
) {
    // An already-expired deadline must abort before any work, exactly as
    // the dense engine's per-round check does on its first round.
    if deadline_exceeded() {
        st.timed_out = true;
        return;
    }
    let n_stmts = prep.ctx.p.stmts.len();
    let n_blocks = prep.ctx.p.blocks.len();
    // Per block: undefeated guard regions covering it. rba is true iff
    // the count is zero and the block is (statically) reachable — the
    // same function recompute_rba computes densely.
    let mut cover = vec![0u32; n_blocks];
    for (g, guard) in prep.guards.iter().enumerate() {
        if !st.defeated[g] {
            for &blk in &guard.region {
                cover[blk.0 as usize] += 1;
            }
        }
    }
    // Per block, when recording: the guards whose defeat lowered its
    // cover count — exactly the guards a flip of the block cites.
    let fallen = if prov.is_some() { vec![Vec::new(); n_blocks] } else { Vec::new() };
    let mut eng = Sparse {
        cfg,
        prep,
        idx,
        st,
        prov,
        queue: VecDeque::new(),
        queued: vec![false; n_stmts],
        cover,
        fallen,
        pops: 0,
    };
    eng.st.rounds = 1;
    for &s in &idx.seeds {
        push(&mut eng.queue, &mut eng.queued, s);
    }
    eng.drain();
}

/// Enqueues a statement unless it is already pending.
fn push(queue: &mut VecDeque<StmtId>, queued: &mut [bool], id: StmtId) {
    let i = id.0 as usize;
    if !queued[i] {
        queued[i] = true;
        queue.push_back(id);
    }
}

/// A provenance edge fired at `stmt` with no secondary site.
fn edge(rule: &'static str, stmt: StmtId, sources: Vec<FactId>) -> Edge {
    Edge { rule, stmt: Some(stmt), via: None, sources }
}

/// The first variable of `vars` whose `taint` bit is set. Only called
/// for a rule that just fired on "some operand is tainted", so one
/// always exists.
fn first_tainted(vars: &[Var], taint: &[bool]) -> u32 {
    vars.iter().find(|v| taint[v.0 as usize]).expect("rule fired on a tainted operand").0
}

struct Sparse<'a, 'b> {
    cfg: &'b Config,
    prep: &'b Prepared<'a>,
    idx: &'b SparseIndexes,
    st: &'b mut State,
    /// First-derivation recorder (witness mode only).
    prov: Option<&'b mut Provenance>,
    queue: VecDeque<StmtId>,
    queued: Vec<bool>,
    /// Per block: undefeated guard regions covering it.
    cover: Vec<u32>,
    /// Per block: defeated guards covering it (witness mode only; empty
    /// otherwise).
    fallen: Vec<Vec<usize>>,
    /// Statements processed (for the periodic deadline check).
    pops: usize,
}

impl<'a, 'b> Sparse<'a, 'b> {
    fn drain(&mut self) {
        while let Some(id) = self.queue.pop_front() {
            self.queued[id.0 as usize] = false;
            self.pops += 1;
            if self.pops & 0x3ff == 0 && deadline_exceeded() {
                self.st.timed_out = true;
                return;
            }
            self.process(id);
        }
    }

    /// Re-evaluates one statement's transfer function against the
    /// current state. Mirrors the dense engine's rules exactly; all
    /// scheduling happens through the event methods below, and each
    /// event is handed the provenance edge of the rule that fired.
    fn process(&mut self, id: StmtId) {
        let prep = self.prep;
        let idx = self.idx;
        let s = prep.ctx.p.stmt(id);
        let stmt_rba = self.st.rba[s.block.0 as usize];
        let reach = FactId::Reach(s.block.0);
        match &s.op {
            Op::CallDataLoad => {
                // TaintedFlow(x,x) :- ReachableByAttacker(s),
                //                     CALLDATALOAD(s, x).
                if let (true, Some(d)) = (stmt_rba, s.def) {
                    self.set_input(d, |_| edge("source-calldata", id, vec![reach]));
                }
            }
            // OriginFlow / TimeFlow sources (detector suite v2):
            // unconditional, like storage taint.
            Op::Env(evm::opcode::Opcode::Origin) => {
                if let Some(d) = s.def {
                    self.set_origin(d, |_| edge("source-origin", id, vec![]));
                }
            }
            Op::Env(evm::opcode::Opcode::Timestamp) => {
                if let Some(d) = s.def {
                    self.set_time(d, |_| edge("source-timestamp", id, vec![]));
                }
            }
            Op::Copy | Op::Bin(_) | Op::Un(_) | Op::Hash2 | Op::Sha3 | Op::Other(_) => {
                let Some(d) = s.def else { return };
                let any = |taint: &[bool]| s.uses.iter().any(|u| taint[u.0 as usize]);
                let any_in = any(&self.st.input_tainted);
                let any_st = any(&self.st.storage_tainted);
                let any_or = any(&self.st.origin_tainted);
                let any_tm = any(&self.st.time_tainted);
                // Input taint moves only through attacker-reachable
                // statements (Guard-2); storage taint through all (Guard-1).
                if any_in && stmt_rba {
                    self.set_input(d, |st| {
                        let u = first_tainted(&s.uses, &st.input_tainted);
                        edge("flow", id, vec![FactId::Input(u), reach])
                    });
                }
                if any_st {
                    self.set_storage(d, |st| {
                        let u = first_tainted(&s.uses, &st.storage_tainted);
                        edge("flow", id, vec![FactId::Storage(u)])
                    });
                }
                if any_or {
                    self.set_origin(d, |st| {
                        let u = first_tainted(&s.uses, &st.origin_tainted);
                        edge("flow", id, vec![FactId::Origin(u)])
                    });
                }
                if any_tm {
                    self.set_time(d, |st| {
                        let u = first_tainted(&s.uses, &st.time_tainted);
                        edge("flow", id, vec![FactId::Time(u)])
                    });
                }
            }
            Op::MLoad => {
                // Local memory modeling: values stored at the same
                // constant offset flow to this load.
                let Some(d) = s.def else { return };
                let Some(a) = idx.stmt_mem[id.0 as usize] else { return };
                let stores = &idx.mem_store_vals[a as usize];
                let any = |taint: &[bool]| stores.iter().any(|(_, v)| taint[v.0 as usize]);
                let any_in = any(&self.st.input_tainted);
                let any_st = any(&self.st.storage_tainted);
                let any_or = any(&self.st.origin_tainted);
                let any_tm = any(&self.st.time_tainted);
                // The MSTORE that feeds the load cites its stored value.
                let fed = |taint: &[bool], fact: fn(u32) -> FactId, extra: Option<FactId>| {
                    let &(sid, v) = stores
                        .iter()
                        .find(|(_, v)| taint[v.0 as usize])
                        .expect("rule fired on a tainted store");
                    let mut sources = vec![fact(v.0)];
                    sources.extend(extra);
                    Edge { rule: "mem-flow", stmt: Some(id), via: Some(sid), sources }
                };
                if any_in && stmt_rba {
                    self.set_input(d, |st| fed(&st.input_tainted, FactId::Input, Some(reach)));
                }
                if any_st {
                    self.set_storage(d, |st| fed(&st.storage_tainted, FactId::Storage, None));
                }
                if any_or {
                    self.set_origin(d, |st| fed(&st.origin_tainted, FactId::Origin, None));
                }
                if any_tm {
                    self.set_time(d, |st| fed(&st.time_tainted, FactId::Time, None));
                }
            }
            Op::MStore => {
                // Scheduling only: a (now-)tainted stored value enables
                // the MLoads at the same offset. The loads pull the value
                // themselves when processed.
                let v = s.uses[1].0 as usize;
                if self.st.input_tainted[v]
                    || self.st.storage_tainted[v]
                    || self.st.origin_tainted[v]
                    || self.st.time_tainted[v]
                {
                    if let Some(a) = idx.stmt_mem[id.0 as usize] {
                        for &l in &idx.mem_loads[a as usize] {
                            push(&mut self.queue, &mut self.queued, l);
                        }
                    }
                }
            }
            Op::SLoad => {
                if !self.cfg.storage_taint {
                    return;
                }
                let Some(d) = s.def else { return };
                let class = prep.key_class[id.0 as usize].as_ref().unwrap();
                let tainted_load = match class {
                    KeyClass::Const(a) => {
                        self.st.tainted_slots.contains(*a) || self.st.all_slots_tainted
                    }
                    KeyClass::Mapping { base, .. } => {
                        self.st.tainted_mappings.contains(*base)
                    }
                    KeyClass::Unknown => {
                        self.cfg.storage_model == StorageModel::Conservative
                            && self.st.unknown_store_tainted
                    }
                };
                // StorageLoad: loads of tainted storage are
                // storage-tainted, eluding guards.
                if tainted_load {
                    self.set_storage(d, |st| {
                        let source = match class {
                            KeyClass::Const(a) if st.tainted_slots.contains(*a) => {
                                FactId::Slot(*prep.slots.resolve(*a))
                            }
                            KeyClass::Const(_) => FactId::AllSlots,
                            KeyClass::Mapping { base, .. } => {
                                FactId::MappingTaint(*prep.slots.resolve(*base))
                            }
                            KeyClass::Unknown => FactId::UnknownStore,
                        };
                        edge("storage-load", id, vec![source])
                    });
                }
            }
            Op::SStore => {
                if !self.cfg.storage_taint {
                    return;
                }
                // StorageWrite-1 / StorageWrite-2 plus the enrollment
                // rule, evaluated together per statement (they read the
                // same operands; order is irrelevant at fixpoint).
                let key = s.uses[0];
                let value = s.uses[1];
                let v_in = self.st.input_tainted[value.0 as usize];
                let v_st = self.st.storage_tainted[value.0 as usize];
                // `msg.sender`-derived values written by the attacker are
                // attacker-chosen (public-initializer pattern).
                let v_ds = prep.ctx.ds[value.0 as usize];
                let attacker_value = (v_in || v_ds) && stmt_rba;
                let tainted_value = v_st || attacker_value;
                // The facts that make the stored value tainted (storage
                // taint first, mirroring rule priority; reachability
                // cited when the attacker supplies the value).
                let value_sources = || -> Vec<FactId> {
                    if v_st {
                        vec![FactId::Storage(value.0)]
                    } else if v_in {
                        vec![FactId::Input(value.0), reach]
                    } else {
                        vec![FactId::Sender(value.0), reach]
                    }
                };
                match prep.key_class[id.0 as usize].as_ref().unwrap() {
                    KeyClass::Const(a) => {
                        if tainted_value {
                            self.taint_slot(*a, |_| edge("storage-write", id, value_sources()));
                        }
                    }
                    KeyClass::Mapping { base, keys } => {
                        let key_attacker = keys.iter().any(|k| {
                            prep.ctx.ds[k.0 as usize]
                                || self.st.input_tainted[k.0 as usize]
                        });
                        if tainted_value {
                            self.taint_mapping(*base, |_| {
                                edge("storage-write", id, value_sources())
                            });
                        }
                        // Enrollment without taint: an attacker-reachable
                        // write of a non-zero constant (or attacker-derived
                        // value) into a structure keyed by the attacker
                        // (users[msg.sender] = true) makes its membership
                        // guards passable.
                        let value_nonzero_const = prep.ctx.consts
                            [value.0 as usize]
                            .is_some_and(|c| !c.is_zero());
                        let enroll_value =
                            value_nonzero_const || v_in || v_st || v_ds;
                        if key_attacker
                            && (tainted_value || (stmt_rba && enroll_value))
                        {
                            self.make_writable(*base, |st| {
                                let k = keys
                                    .iter()
                                    .find(|k| {
                                        prep.ctx.ds[k.0 as usize]
                                            || st.input_tainted[k.0 as usize]
                                    })
                                    .expect("key_attacker");
                                let mut sources = vec![if prep.ctx.ds[k.0 as usize] {
                                    FactId::Sender(k.0)
                                } else {
                                    FactId::Input(k.0)
                                }];
                                if tainted_value {
                                    sources.extend(value_sources());
                                } else {
                                    sources.push(reach);
                                }
                                edge("enroll", id, sources)
                            });
                        }
                    }
                    KeyClass::Unknown => {
                        // StorageWrite-2: tainted value at a tainted
                        // (attacker-influenced) address taints all known
                        // slots. Conservative mode does this for *any*
                        // unknown address.
                        let key_in = self.st.input_tainted[key.0 as usize];
                        let key_st = self.st.storage_tainted[key.0 as usize];
                        let conservative =
                            self.cfg.storage_model == StorageModel::Conservative;
                        if tainted_value && (key_in || key_st || conservative) {
                            let why = |_: &State| {
                                let mut sources = value_sources();
                                if key_in {
                                    sources.push(FactId::Input(key.0));
                                } else if key_st {
                                    sources.push(FactId::Storage(key.0));
                                }
                                edge("storage-write-unknown", id, sources)
                            };
                            self.set_all_slots_tainted(why);
                            self.set_unknown_store_tainted(why);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // ---- Events: one per kind of monotone state change ----------------
    //
    // Each takes `why`, the deriving rule's provenance edge as a function
    // of the pre-change state; it runs only when the fact is new and a
    // recorder is attached.

    /// Records `fact`'s first derivation when witnesses are on.
    fn record(&mut self, fact: FactId, why: impl FnOnce(&State) -> Edge) {
        if let Some(prov) = self.prov.as_deref_mut() {
            prov.record(fact, why(self.st));
        }
    }

    /// Variable gained input taint.
    fn set_input(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.input_tainted[vi] {
            return;
        }
        self.record(FactId::Input(v.0), why);
        self.st.input_tainted[vi] = true;
        let prep = self.prep;
        let idx = self.idx;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
        // Mapping keys are Hash2 operands, not SStore operands: the
        // dependent stores' key_attacker predicate just changed.
        for &d in &idx.mapping_key_deps[vi] {
            push(&mut self.queue, &mut self.queued, d);
        }
        self.defeat_candidates_by_cond(v);
    }

    /// Variable gained storage taint.
    fn set_storage(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.storage_tainted[vi] {
            return;
        }
        self.record(FactId::Storage(v.0), why);
        self.st.storage_tainted[vi] = true;
        let prep = self.prep;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
        self.defeat_candidates_by_cond(v);
    }

    /// Variable gained `ORIGIN` taint (detector suite v2). Origin taint
    /// never feeds guard defeat or storage facts, so only the use sites
    /// (and, via `MStore` scheduling, memory loads) need re-evaluation.
    fn set_origin(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.origin_tainted[vi] {
            return;
        }
        self.record(FactId::Origin(v.0), why);
        self.st.origin_tainted[vi] = true;
        let prep = self.prep;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
    }

    /// Variable gained `TIMESTAMP` taint (detector suite v2).
    fn set_time(&mut self, v: Var, why: impl FnOnce(&State) -> Edge) {
        let vi = v.0 as usize;
        if self.st.time_tainted[vi] {
            return;
        }
        self.record(FactId::Time(v.0), why);
        self.st.time_tainted[vi] = true;
        let prep = self.prep;
        for &u in prep.ctx.du.uses(v) {
            push(&mut self.queue, &mut self.queued, u);
        }
    }

    /// Constant storage slot (by atom) became tainted.
    fn taint_slot(&mut self, slot: u32, why: impl FnOnce(&State) -> Edge) {
        if self.st.tainted_slots.contains(slot) {
            return;
        }
        self.record(FactId::Slot(*self.prep.slots.resolve(slot)), why);
        self.st.tainted_slots.insert(slot);
        let idx = self.idx;
        for &l in &idx.sload_const[slot as usize] {
            push(&mut self.queue, &mut self.queued, l);
        }
        for &g in &idx.guards_by_slot[slot as usize] {
            self.maybe_defeat(g);
        }
    }

    /// Mapping base slot (by atom) became tainted.
    fn taint_mapping(&mut self, base: u32, why: impl FnOnce(&State) -> Edge) {
        if self.st.tainted_mappings.contains(base) {
            return;
        }
        self.record(FactId::MappingTaint(*self.prep.slots.resolve(base)), why);
        self.st.tainted_mappings.insert(base);
        let idx = self.idx;
        for &l in &idx.sload_mapping[base as usize] {
            push(&mut self.queue, &mut self.queued, l);
        }
    }

    /// Mapping (by atom) became attacker-writable (enrollment).
    fn make_writable(&mut self, base: u32, why: impl FnOnce(&State) -> Edge) {
        if self.st.writable_mappings.contains(base) {
            return;
        }
        self.record(FactId::Writable(*self.prep.slots.resolve(base)), why);
        self.st.writable_mappings.insert(base);
        let idx = self.idx;
        for &g in &idx.guards_by_membership[base as usize] {
            self.maybe_defeat(g);
        }
    }

    /// StorageWrite-2 fired for the first time.
    fn set_all_slots_tainted(&mut self, why: impl FnOnce(&State) -> Edge) {
        if self.st.all_slots_tainted {
            return;
        }
        self.record(FactId::AllSlots, why);
        self.st.all_slots_tainted = true;
        let idx = self.idx;
        for &l in &idx.sload_const_all {
            push(&mut self.queue, &mut self.queued, l);
        }
        for &g in &idx.guards_slot_kind {
            self.maybe_defeat(g);
        }
    }

    /// A tainted store to an unresolved address appeared.
    fn set_unknown_store_tainted(&mut self, why: impl FnOnce(&State) -> Edge) {
        if self.st.unknown_store_tainted {
            return;
        }
        self.record(FactId::UnknownStore, why);
        self.st.unknown_store_tainted = true;
        let idx = self.idx;
        for &l in &idx.sload_unknown {
            push(&mut self.queue, &mut self.queued, l);
        }
    }

    /// A guard condition variable changed: re-check its guards.
    fn defeat_candidates_by_cond(&mut self, v: Var) {
        let idx = self.idx;
        for &g in &idx.guards_by_cond[v.0 as usize] {
            self.maybe_defeat(g);
        }
    }

    /// Re-evaluates the (shared) defeat predicate for one guard and, on
    /// defeat, applies the delta-rba update: decrement the region's
    /// cover counts and flip exactly the blocks whose last covering
    /// guard fell. A flipped block's edge cites every guard covering it,
    /// in defeat order.
    fn maybe_defeat(&mut self, g: usize) {
        if self.st.defeated[g] || self.cfg.freeze_guards {
            return;
        }
        let prep = self.prep;
        let idx = self.idx;
        let (guard, atoms) = (&prep.guards[g], &prep.guard_atoms[g]);
        if !guard_defeated(guard, atoms, self.st, self.cfg) {
            return;
        }
        self.record(FactId::Defeated(g), |st| Edge {
            rule: "guard-defeat",
            stmt: None,
            via: None,
            sources: defeat_sources(guard, atoms, st),
        });
        self.st.defeated[g] = true;
        self.st.any_defeat = true;
        // Convergence effort statistic: 1 + defeat waves (each defeat is
        // the sparse analogue of a dense re-scan round).
        self.st.rounds += 1;
        for &blk in &guard.region {
            let bi = blk.0 as usize;
            self.cover[bi] -= 1;
            if let Some(fallen) = self.fallen.get_mut(bi) {
                fallen.push(g);
            }
            if self.cover[bi] == 0 {
                // Same reachability function as recompute_rba, applied to
                // this block only.
                let now_rba = prep.dom.is_reachable(blk) && prep.live_block[bi];
                if now_rba && !self.st.rba[bi] {
                    let fallen = self.fallen.get_mut(bi).map(std::mem::take).unwrap_or_default();
                    self.record(FactId::Reach(blk.0), |_| Edge {
                        rule: "guards-defeated",
                        stmt: None,
                        via: None,
                        sources: fallen.into_iter().map(FactId::Defeated).collect(),
                    });
                    self.st.rba[bi] = true;
                    // Everything in the block sees a new rba bit: its
                    // CallDataLoads, taint propagation, and SStore rules
                    // may all fire now.
                    for &sid in &idx.block_stmts[bi] {
                        push(&mut self.queue, &mut self.queued, sid);
                    }
                }
            }
        }
    }
}
