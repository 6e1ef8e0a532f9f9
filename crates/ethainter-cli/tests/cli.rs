//! End-to-end tests of the `ethainter` binary via std::process.

use std::io::Write;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ethainter")
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const VULN: &str = r#"contract Bad {
    address owner;
    function initOwner(address o) public { owner = o; }
    function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}"#;

#[test]
fn analyze_source_reports_findings() {
    let path = write_temp("cli_vuln.msol", VULN);
    let out = Command::new(bin()).args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tainted owner variable"), "{text}");
    assert!(text.contains("accessible selfdestruct"), "{text}");
}

#[test]
fn analyze_json_is_machine_readable() {
    let path = write_temp("cli_vuln2.msol", VULN);
    let out = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report: ethainter::Report =
        serde_json::from_slice(&out.stdout).expect("valid report JSON");
    assert!(report.has(ethainter::Vuln::TaintedOwnerVariable));
}

#[test]
fn analyze_hex_bytecode_works() {
    let compiled = minisol::compile_source(VULN).unwrap();
    let hex: String = compiled.bytecode.iter().map(|b| format!("{b:02x}")).collect();
    let path = write_temp("cli_vuln.hex", &format!("0x{hex}"));
    let out = Command::new(bin()).args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("accessible selfdestruct"));
}

#[test]
fn no_guard_flag_changes_result() {
    let safe = r#"contract C {
        address owner = 0x1234;
        function kill(address to) public { require(msg.sender == owner); selfdestruct(to); }
    }"#;
    let path = write_temp("cli_safe.msol", safe);
    let with_guards =
        Command::new(bin()).args(["analyze", path.to_str().unwrap()]).output().unwrap();
    assert!(String::from_utf8_lossy(&with_guards.stdout).contains("no findings"));
    let without = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--no-guards"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&without.stdout).contains("selfdestruct"));
}

#[test]
fn kill_destroys_vulnerable_contract() {
    let path = write_temp("cli_vuln3.msol", VULN);
    let out = Command::new(bin()).args(["kill", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("DESTROYED"));
}

#[test]
fn compile_prints_selectors() {
    let path = write_temp("cli_vuln4.msol", VULN);
    let out = Command::new(bin()).args(["compile", path.to_str().unwrap()]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("initOwner(address)"));
    assert!(text.contains("kill()"));
}

#[test]
fn lint_passes_clean_corpus_and_file() {
    let path = write_temp("cli_lint.msol", VULN);
    let out = Command::new(bin())
        .args(["lint", path.to_str().unwrap(), "--corpus", "25"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("linted 26 program(s): 0 violation(s)"), "{text}");
}

#[test]
fn lint_without_inputs_is_an_error() {
    let out = Command::new(bin()).args(["lint"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no inputs"));
}

#[test]
fn no_passes_flag_preserves_verdicts() {
    let path = write_temp("cli_vuln5.msol", VULN);
    let optimized = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let raw = Command::new(bin())
        .args(["analyze", path.to_str().unwrap(), "--json", "--no-passes"])
        .output()
        .unwrap();
    let opt: ethainter::Report = serde_json::from_slice(&optimized.stdout).unwrap();
    let raw: ethainter::Report = serde_json::from_slice(&raw.stdout).unwrap();
    let verdicts = |r: &ethainter::Report| {
        let mut v: Vec<(ethainter::Vuln, usize, bool)> =
            r.findings.iter().map(|f| (f.vuln, f.pc, f.composite)).collect();
        v.sort();
        v
    };
    assert_eq!(verdicts(&opt), verdicts(&raw));
    // The pipeline must actually shrink the fact universe on this input.
    assert!(opt.stats.stmts < raw.stats.stmts, "{} !< {}", opt.stats.stmts, raw.stats.stmts);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = Command::new(bin()).args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = Command::new(bin()).args(["analyze", "/nonexistent.msol"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

/// Witnesses come from the engine's own recorded provenance, and its
/// schedule depends on nothing process-specific (no hash-map iteration
/// order, no random seeds): two separate `analyze --json --witness`
/// processes must serialize byte-identical witnesses, one per finding.
#[test]
fn witnesses_are_byte_identical_across_processes() {
    let pop = corpus::Population::generate(&corpus::PopulationConfig {
        size: 6,
        seed: 7,
        scale: corpus::Scale::Realistic,
        ..Default::default()
    });
    let mut inputs = vec![write_temp("cli_witness.msol", VULN)];
    for (i, c) in pop.contracts.iter().enumerate() {
        let hex: String = c.bytecode.iter().map(|b| format!("{b:02x}")).collect();
        inputs.push(write_temp(&format!("cli_witness_{i}.hex"), &hex));
    }
    let witnesses = |path: &std::path::Path| -> (String, usize) {
        let out = Command::new(bin())
            .args(["analyze", path.to_str().unwrap(), "--json", "--witness"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let report: ethainter::Report = serde_json::from_slice(&out.stdout).unwrap();
        let w = report.witnesses.as_ref().expect("--witness attaches witnesses");
        assert_eq!(w.len(), report.findings.len(), "one witness per finding");
        (serde_json::to_string(w).unwrap(), w.len())
    };
    let mut total = 0;
    for path in &inputs {
        let (first, n) = witnesses(path);
        let again = witnesses(path).0;
        assert_eq!(first, again, "{}: witnesses differ across processes", path.display());
        total += n;
    }
    assert!(total > 0, "no witnesses compared");
}
