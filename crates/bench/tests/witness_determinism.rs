//! Witness determinism and validity. Witnesses come from provenance the
//! production engine records during its own fixpoint, so for a given
//! (bytecode, config) pair the serialized witnesses must be
//! byte-identical across repeated runs, one per finding, and every step
//! must be a valid derivation in the dense oracle's fixpoint
//! (`common::check_witnesses`). This is what makes a witness a stable
//! artifact: `ethainter explain` shows the same derivation however many
//! times the contract is scanned. (Byte identity across separate
//! `ethainter analyze --json --witness` processes is checked against the
//! CLI binary in `crates/ethainter-cli/tests/cli.rs`.)

mod common;

use ethainter::Config;
use std::collections::BTreeSet;

/// Directed contracts that between them fire every provenance rule the
/// engine records: calldata, origin and timestamp sources, arithmetic
/// and memory flow, storage write and load, enrollment into a
/// sender-keyed mapping, and guard defeat opening a guarded region. The
/// generated corpora alone rarely reach the composite rules.
const DIRECTED: &[&str] = &[
    // Arithmetic flow with the tainted operand on either side, so a
    // flow step citing the wrong operand cannot go unnoticed.
    r#"contract Takeover {
        address owner;
        uint fee;
        function init(uint o) public { owner = fee + o; }
        function kill() public { require(msg.sender == owner); selfdestruct(fee + owner); }
    }"#,
    r#"contract Takeover {
        address owner;
        uint fee;
        function init(uint o) public { owner = o + fee; }
        function kill() public { require(msg.sender == owner); selfdestruct(owner + fee); }
    }"#,
    r#"contract Victim {
        mapping(address => bool) admins;
        mapping(address => bool) users;
        address owner;
        modifier onlyAdmins() { require(admins[msg.sender]); _; }
        modifier onlyUsers() { require(users[msg.sender]); _; }
        function registerSelf() public { users[msg.sender] = true; }
        function referUser(address user) public onlyUsers { users[user] = true; }
        function referAdmin(address adm) public onlyUsers { admins[adm] = true; }
        function changeOwner(address o) public onlyAdmins { owner = o; }
        function kill() public onlyAdmins { selfdestruct(owner); }
    }"#,
    r#"contract Proxy {
        address impl;
        function setImpl(address a) public { impl = a; }
        function run() public { delegatecall(impl); }
    }"#,
    r#"contract Drop {
        address owner = 0x1234;
        mapping(address => uint) credits;
        function claim(address to, uint v) public {
            require(tx.origin == owner);
            credits[to] += v;
        }
    }"#,
    r#"contract Lotto {
        uint deadline = 0x60000000;
        function payout(address to, uint amount) public {
            require(block.timestamp > deadline);
            require(send(to, amount));
        }
    }"#,
];

/// Decompiles and optimizes `code` the way `analyze_bytecode` does.
fn prepare(code: &[u8]) -> decompiler::Program {
    let mut p = decompiler::decompile(code);
    decompiler::optimize(&mut p, &decompiler::PassConfig::default());
    p
}

/// Analyzes `p` twice under `cfg`, asserts the witness serializations
/// match byte for byte and validate against the oracle, and returns
/// (witness JSON, derivation steps checked).
fn checked_witnesses(p: &decompiler::Program, cfg: &Config, what: &str) -> (String, usize) {
    let (json, steps, _) = checked_report(p, cfg, what);
    (json, steps)
}

/// [`checked_witnesses`], also returning the report.
fn checked_report(
    p: &decompiler::Program,
    cfg: &Config,
    what: &str,
) -> (String, usize, ethainter::Report) {
    let first = ethainter::analyze(p, cfg);
    let second = ethainter::analyze(p, cfg);
    let json = serde_json::to_string(&first.witnesses).unwrap();
    assert_eq!(json, serde_json::to_string(&second.witnesses).unwrap(), "{what}: not reproducible");
    let oracle = ethainter::oracle::evaluate_dense(p, cfg);
    let steps = common::check_witnesses(p, &first, &oracle)
        .unwrap_or_else(|e| panic!("{what}: invalid witness: {e}"));
    (json, steps, first)
}

/// The headline check over a generated corpus with witnesses on: two
/// runs per contract serialize identically (and match the bytecode
/// entry point's), every witness is valid against the oracle, and the
/// corpus must actually produce non-trivial witnesses or the test
/// proves nothing.
#[test]
fn witnesses_are_byte_identical_across_runs_and_valid_against_the_oracle() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 120,
        seed: 7,
        ..Default::default()
    });
    let cfg = Config { witness: true, ..Config::default() };
    let mut derived = 0usize;
    for c in &pop.contracts {
        let what = format!("{}#{}", c.family, c.id);
        let (json, steps) = checked_witnesses(&prepare(&c.bytecode), &cfg, &what);
        let via_bytecode = ethainter::analyze_bytecode(&c.bytecode, &cfg);
        assert_eq!(json, serde_json::to_string(&via_bytecode.witnesses).unwrap(), "{what}");
        derived += steps;
    }
    assert!(derived > 0, "corpus produced no derivation steps — nothing was checked");
}

/// The directed contracts, under the default and the conservative
/// storage model: valid, reproducible witnesses, and together they must
/// fire every rule the engine records, or a broken premise could hide
/// behind a rule the corpus never reaches.
#[test]
fn directed_witnesses_exercise_every_rule() {
    let mut rules = BTreeSet::new();
    for src in DIRECTED {
        let p = prepare(&minisol::compile_source(src).unwrap().bytecode);
        for cfg in [Config::default(), Config::conservative_storage()] {
            let cfg = Config { witness: true, ..cfg };
            let (_, _, report) = checked_report(&p, &cfg, src);
            for w in report.witnesses.iter().flatten() {
                rules.extend(w.steps.iter().map(|s| s.rule.clone()));
            }
        }
    }
    for rule in [
        "axiom-sender",
        "axiom-unguarded",
        "source-calldata",
        "source-origin",
        "source-timestamp",
        "flow",
        "mem-flow",
        "storage-write",
        "storage-load",
        "enroll",
        "guard-defeat",
        "guards-defeated",
    ] {
        assert!(rules.contains(rule), "no directed witness fires `{rule}`: {rules:?}");
    }
}

/// Ablation configs change which facts derive, but never determinism
/// or validity: each (config, contract) pair must replay identically
/// and agree with the oracle engine's fixpoint under that config.
#[test]
fn ablation_witnesses_agree_across_engines() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 40,
        seed: 23,
        ..Default::default()
    });
    let base = Config { witness: true, ..Config::default() };
    let ablations = [
        base,
        Config { guard_modeling: false, ..base },
        Config { storage_taint: false, ..base },
        Config { storage_model: ethainter::StorageModel::Conservative, ..base },
        Config { range_guards: false, ..base },
    ];
    let mut derived = [0usize; 5];
    for c in &pop.contracts {
        let p = prepare(&c.bytecode);
        for (i, cfg) in ablations.iter().enumerate() {
            let what = format!("{}#{} under {cfg:?}", c.family, c.id);
            derived[i] += checked_witnesses(&p, cfg, &what).1;
        }
    }
    assert!(derived.iter().all(|&n| n > 0), "an ablation derived nothing: {derived:?}");
}
