//! End-to-end tests of the `vscope` binary.

use std::process::Command;

fn vscope(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_vscope"))
        .args(args)
        .output()
        .expect("vscope runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vscope-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const SAXPY: &str = r#"
const int N = 64;
double a[N]; double b[N]; double c[N];
void main() {
    for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
    for (int i = 0; i < N; i++) { c[i] = 2.5 * a[i] + b[i]; }
}
"#;

#[test]
fn no_args_prints_usage() {
    let (_, err, ok) = vscope(&[]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_command_prints_usage() {
    let (_, err, ok) = vscope(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn analyze_produces_table() {
    let path = write_temp("saxpy.kern", SAXPY);
    let (out, err, ok) = vscope(&["analyze", path.to_str().unwrap(), "--verbose"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("Avg Concur"), "{out}");
    assert!(out.contains("%Packed"), "{out}");
    assert!(out.contains("control irregularity"), "{out}");
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let (_, err, ok) = vscope(&["analyze", "/nonexistent/x.kern"]);
    assert!(!ok);
    assert!(err.contains("vscope:"));
}

#[test]
fn analyze_compile_error_has_position() {
    let path = write_temp("bad.kern", "void main( {");
    let (_, err, ok) = vscope(&["analyze", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("compile error"), "{err}");
}

#[test]
fn profile_lists_loops() {
    let path = write_temp("saxpy2.kern", SAXPY);
    let (out, _, ok) = vscope(&["profile", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("total cycles"), "{out}");
    assert!(out.contains("main:"), "{out}");
}

#[test]
fn vectorize_reports_decisions() {
    let path = write_temp("saxpy3.kern", SAXPY);
    let (out, _, ok) = vscope(&["vectorize", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("VECTORIZED"), "{out}");
}

#[test]
fn trace_writes_decodable_file() {
    let path = write_temp("saxpy4.kern", SAXPY);
    let out_path = std::env::temp_dir().join("vscope-cli-tests/t.bin");
    let (out, _, ok) = vscope(&[
        "trace",
        path.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(out.contains("captured"), "{out}");
    let bytes = std::fs::read(&out_path).unwrap();
    let trace = vectorscope_trace::Trace::from_bytes(&bytes).unwrap();
    assert!(!trace.is_empty());
}

#[test]
fn ir_dump_contains_function() {
    let path = write_temp("saxpy5.kern", SAXPY);
    let (out, _, ok) = vscope(&["ir", path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("fn main()"), "{out}");
    assert!(out.contains("fmul"), "{out}");
}

#[test]
fn kernels_lists_suite() {
    let (out, _, ok) = vscope(&["kernels"]);
    assert!(ok);
    assert!(out.contains("gauss_seidel"));
    assert!(out.contains("fir"));
    assert!(out.contains("spec_470_lbm"));
}

#[test]
fn kernel_by_name_and_variant() {
    let (out, err, ok) = vscope(&["kernel", "fir", "pointer"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("fir_pointer.kern"), "{out}");

    let (_, err, ok) = vscope(&["kernel", "nope"]);
    assert!(!ok);
    assert!(err.contains("no kernel"), "{err}");
}

#[test]
fn fig_runs() {
    let (out, _, ok) = vscope(&["fig", "2"]);
    assert!(ok);
    assert!(out.contains("REPRODUCED"), "{out}");
}

#[test]
fn triage_ranks_loops() {
    let src = r#"
const int N = 128;
double a[N]; double b[N]; double p[N];
void main() {
    for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
    for (int i = 0; i < N; i++) { a[i] = a[i] * b[i] + 0.5; }  // missed
    p[0] = 1.0;
    for (int i = 1; i < N; i++) { p[i] = p[i-1] * 1.01; }      // serial
}
"#;
    let path = write_temp("triage.kern", src);
    let (out, err, ok) = vscope(&["triage", path.to_str().unwrap()]);
    assert!(ok, "stderr: {err}");
    assert!(
        out.contains("MISSED OPPORTUNITY") || out.contains("already vectorized"),
        "{out}"
    );
    assert!(out.contains("verdict"), "{out}");
}

#[test]
fn analyze_json_output() {
    let path = write_temp("saxpy6.kern", SAXPY);
    let (out, err, ok) = vscope(&["analyze", path.to_str().unwrap(), "--json"]);
    assert!(ok, "stderr: {err}");
    let json = out.trim();
    assert!(json.starts_with('['), "{json}");
    assert!(json.ends_with(']'), "{json}");
    assert!(json.contains("\"percent_packed\""), "{json}");
}

#[test]
fn parallelism_profile_runs() {
    let path = write_temp("saxpy7.kern", SAXPY);
    let (out, err, ok) = vscope(&["parallelism", path.to_str().unwrap()]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("critical path"), "{out}");
    assert!(out.contains('#'), "{out}");
}

#[test]
fn integer_ops_flag_is_accepted() {
    let src = r#"
const int N = 64;
int a[N]; int b[N];
void main() {
    for (int i = 0; i < N; i++) { b[i] = i * 3; }
    for (int i = 0; i < N; i++) { a[i] = b[i] + 7; }
}
"#;
    let path = write_temp("ints.kern", src);
    let (out, err, ok) = vscope(&["analyze", path.to_str().unwrap(), "--integer-ops"]);
    assert!(ok, "stderr: {err}");
    // Without --integer-ops there would be no candidate ops at all.
    assert!(!out.contains("no loops above"), "{out}");
}

#[test]
fn ddg_dot_export() {
    let path = write_temp("saxpy8.kern", SAXPY);
    let out_path = std::env::temp_dir().join("vscope-cli-tests/g.dot");
    let (out, err, ok) = vscope(&[
        "ddg",
        path.to_str().unwrap(),
        "--candidates-only",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("wrote"), "{out}");
    let dot = std::fs::read_to_string(&out_path).unwrap();
    assert!(dot.starts_with("digraph ddg {"));
    assert!(dot.contains("shape=box"));
}

/// `vscope stats --integer-ops` compares the streaming run against the DDG
/// built under the same candidate policy, not the default FP-only one.
#[test]
fn stats_batch_ddg_bytes_follow_the_candidate_policy() {
    use vectorscope_ddg::{CandidatePolicy, Ddg};
    let src = r#"
const int N = 64;
int a[N]; int b[N];
void main() {
    for (int i = 0; i < N; i++) { b[i] = i * 3; }
    for (int i = 0; i < N; i++) { a[i] = b[i] + 7; }
}
"#;
    let path = write_temp("stats_ints.kern", src);
    let (out, err, ok) = vscope(&["stats", path.to_str().unwrap(), "--integer-ops", "--json"]);
    assert!(ok, "stderr: {err}");
    let reported: usize = out
        .split("\"batch_ddg_bytes\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no batch_ddg_bytes in {out}"));

    let module = vectorscope_frontend::compile("stats_ints.kern", src).unwrap();
    let mut vm = vectorscope_interp::Vm::new(&module);
    vm.set_capture(vectorscope_interp::CaptureSpec::Program, "all");
    vm.run_main().unwrap();
    let trace = vm.take_trace().unwrap();
    let bytes = |policy| {
        Ddg::try_build_with_policy(&module, &trace, policy)
            .unwrap()
            .memory_bytes()
    };
    assert_eq!(reported, bytes(CandidatePolicy::IntAndFloatArith));
    assert_ne!(reported, bytes(CandidatePolicy::FloatArith));
}

/// A reader that closes the pipe early (`vscope kernels | head -2`) ends
/// the command quietly: no panic message, a successful exit.
#[test]
fn closed_stdout_ends_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // Far more IR than a pipe buffers, so the writer is still writing when
    // the reader goes away.
    let body = "    a[1] = a[0] * 2.0 + a[2];\n".repeat(3000);
    let path = write_temp(
        "big_ir.kern",
        &format!("double a[4];\nvoid main() {{\n{body}}}\n"),
    );
    for args in [vec!["ir", path.to_str().unwrap()], vec!["kernels"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_vscope"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("vscope runs");
        let mut first = String::new();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        stdout.read_line(&mut first).unwrap();
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.status.success(), "{args:?}: {:?} {err}", out.status);
    }
}

/// `vscope ddg` builds the graph under the `--integer-ops` candidate
/// policy: an integer-only kernel has candidate nodes with the flag and
/// none without it.
#[test]
fn ddg_follows_integer_ops() {
    let src = r#"
const int N = 64;
int a[N]; int b[N];
void main() {
    for (int i = 0; i < N; i++) { b[i] = i * 3; }
    for (int i = 0; i < N; i++) { a[i] = b[i] + 7; }
}
"#;
    let path = write_temp("ddg_ints.kern", src);
    let path = path.to_str().unwrap();
    let (with, err, ok) = vscope(&["ddg", path, "--candidates-only", "--integer-ops"]);
    assert!(ok, "stderr: {err}");
    assert!(with.contains("shape=box"), "{with}");
    let (without, err, ok) = vscope(&["ddg", path, "--candidates-only"]);
    assert!(ok, "stderr: {err}");
    assert!(!without.contains("shape=box"), "{without}");
}
