//! Witness validity against the dense oracle, shared by the witness
//! suites.
//!
//! A witness is valid when it is a derivation the rules allow in the
//! dense specification's fixpoint: every step's fact holds there, every
//! step's rule fired at its statement on facts established by earlier
//! steps of the same witness, and the last step is the finding's sink.
//! The per-rule premises below restate the Figure 5 rules from the TAC
//! alone — they share no code with the engine that recorded the steps.

use decompiler::{Op, Program, StmtId};
use ethainter::oracle::DenseFixpoint;
use ethainter::{Report, WitnessStep};
use evm::opcode::Opcode;
use std::collections::HashSet;

/// Checks that `report` has exactly one witness per finding and that
/// each is valid against `oracle`'s fixpoint over `p`. Returns the
/// total number of derivation steps (sinks excluded), so callers can
/// insist the corpus exercised something.
pub fn check_witnesses(
    p: &Program,
    report: &Report,
    oracle: &DenseFixpoint,
) -> Result<usize, String> {
    let witnesses = report
        .witnesses
        .as_ref()
        .ok_or("witness mode attached no witnesses")?;
    if witnesses.len() != report.findings.len() {
        return Err(format!(
            "{} witness(es) for {} finding(s)",
            witnesses.len(),
            report.findings.len()
        ));
    }
    let mut derived = 0;
    for (w, f) in witnesses.iter().zip(&report.findings) {
        let ctx = |msg: String| format!("{:?} @ s{}: {msg}", f.vuln, f.stmt);
        if (w.vuln, w.stmt, w.pc) != (f.vuln, f.stmt, f.pc) {
            return Err(ctx("witness does not match its finding".into()));
        }
        let (sink, steps) = w
            .steps
            .split_last()
            .ok_or_else(|| ctx("empty witness".into()))?;
        if !sink.rule.starts_with("sink-") || sink.stmt != Some(f.stmt) {
            return Err(ctx(format!("last step is not the sink: {sink:?}")));
        }
        let mut seen: HashSet<&str> = HashSet::new();
        for step in steps {
            if !oracle.facts.contains(&step.fact) {
                return Err(ctx(format!("fact does not hold in the oracle: {step:?}")));
            }
            premises_hold(p, step, &seen).map_err(|e| ctx(format!("{e}: {step:?}")))?;
            seen.insert(&step.fact);
        }
        derived += steps.len();
    }
    Ok(derived)
}

/// Does `step`'s rule fire at its statement given the earlier facts?
fn premises_hold(p: &Program, step: &WitnessStep, seen: &HashSet<&str>) -> Result<(), String> {
    let has = |fact: String| seen.contains(fact.as_str());
    let any = |pred: &dyn Fn(&str) -> bool| seen.iter().any(|f| pred(f));
    let var = |v: decompiler::Var, kind: &str| format!("v{} {kind}", v.0);
    let block = |b: decompiler::BlockId| format!("block B{} attacker-reachable", b.0);
    let rule = step.rule.as_str();
    let Some(id) = step.stmt else {
        return match rule {
            "axiom-sender" | "axiom-unguarded" => Ok(()),
            "guard-defeat"
                if any(&|f| {
                    f.ends_with("input-tainted")
                        || f.ends_with("storage-tainted")
                        || f.starts_with("slot ")
                        || f == "all storage slots tainted"
                        || f.ends_with("attacker-writable")
                }) =>
            {
                Ok(())
            }
            "guards-defeated" if any(&|f| f.starts_with("guard @")) => Ok(()),
            _ => Err("unsupported premises for a statement-free step".into()),
        };
    };
    let s = p.stmt(StmtId(id));
    let def_fact = |kind: &str| s.def.map(|d| var(d, kind));
    // The flavor a variable fact carries, when it is about `s`'s def.
    let def_kind = [
        "input-tainted",
        "storage-tainted",
        "tx.origin-derived",
        "timestamp-derived",
    ]
    .into_iter()
    .find(|k| def_fact(k).as_deref() == Some(step.fact.as_str()));
    let reach = has(block(s.block));
    // The stored value's premises, shared by the storage-write rules.
    let value = s.uses.get(1).copied();
    let value_ok = value.is_some_and(|v| {
        has(var(v, "storage-tainted"))
            || ((has(var(v, "input-tainted")) || has(var(v, "msg.sender-derived"))) && reach)
    });
    let ok = match (rule, &s.op) {
        ("source-calldata", Op::CallDataLoad) => def_kind == Some("input-tainted") && reach,
        ("source-origin", Op::Env(Opcode::Origin)) => def_kind == Some("tx.origin-derived"),
        ("source-timestamp", Op::Env(Opcode::Timestamp)) => def_kind == Some("timestamp-derived"),
        ("flow", _) => def_kind.is_some_and(|k| {
            s.uses.iter().any(|&u| has(var(u, k))) && (k != "input-tainted" || reach)
        }),
        ("mem-flow", Op::MLoad) => def_kind.is_some_and(|k| {
            // The cited site (the step's pc) is an MSTORE whose stored
            // value carries the flavor.
            p.iter_stmts()
                .any(|m| m.op == Op::MStore && Some(m.pc) == step.pc && has(var(m.uses[1], k)))
                && (k != "input-tainted" || reach)
        }),
        ("storage-load", Op::SLoad) => {
            def_kind == Some("storage-tainted")
                && any(&|f| {
                    (f.starts_with("slot ") || f.starts_with("mapping ")) && f.ends_with(" tainted")
                        || f == "all storage slots tainted"
                        || f == "unresolved storage write tainted"
                })
        }
        ("storage-write", Op::SStore) => {
            (step.fact.starts_with("slot ") || step.fact.starts_with("mapping "))
                && step.fact.ends_with(" tainted")
                && value_ok
        }
        ("storage-write-unknown", Op::SStore) => value_ok,
        ("enroll", Op::SStore) => {
            step.fact.ends_with("attacker-writable")
                && any(&|f| f.ends_with("msg.sender-derived") || f.ends_with("input-tainted"))
                && (value_ok || reach)
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "rule `{rule}` does not fire at {} on the earlier facts",
            s.id
        ))
    }
}
