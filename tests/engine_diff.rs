//! Differential tests for the two VM execution engines.
//!
//! The pre-decoded bytecode engine ([`Engine::Decoded`], the default) and
//! the tree-walking engine ([`Engine::Tree`]) are contractually
//! **observationally identical**: same traces byte for byte, same profiles,
//! same fuel accounting, and therefore the same analysis reports at every
//! thread count. These tests enforce that over
//! every bundled kernel, the checked-in golden snapshots, and
//! proptest-generated random programs.

use proptest::prelude::*;
use std::path::PathBuf;
use vectorscope::json::{gap_suite_json, suite_json};
use vectorscope::{analyze_gap, analyze_source, AnalysisOptions, Engine};
use vectorscope_interp::{CaptureSpec, Vm, VmError, VmOptions};

/// Analyzes with the given engine and threads and renders the canonical
/// JSON report.
fn report_json(name: &str, source: &str, engine: Engine, threads: usize) -> String {
    let options = AnalysisOptions {
        engine,
        threads,
        ..AnalysisOptions::default()
    };
    let suite = analyze_source(name, source, &options)
        .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
    suite_json(&suite.loops)
}

#[test]
fn engines_agree_on_every_bundled_kernel() {
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let baseline = report_json(&name, &kernel.source, Engine::Tree, 1);
        for threads in [1usize, 2, 7] {
            let decoded = report_json(&name, &kernel.source, Engine::Decoded, threads);
            assert_eq!(
                baseline, decoded,
                "{name}: decoded engine diverged from tree (threads={threads})"
            );
        }
    }
}

#[test]
fn engines_agree_on_gap_cross_validation() {
    for kernel in vectorscope_kernels::studies::kernels() {
        let name = kernel.file_name();
        let mut reports = Vec::new();
        for engine in [Engine::Tree, Engine::Decoded] {
            let options = AnalysisOptions {
                engine,
                threads: 1,
                ..AnalysisOptions::default()
            };
            let suite = analyze_gap(&name, &kernel.source, &options)
                .unwrap_or_else(|e| panic!("{name} failed to cross-validate: {e}"));
            reports.push(gap_suite_json(&suite));
        }
        assert_eq!(
            reports[0], reports[1],
            "{name}: gap report diverged between engines"
        );
    }
}

/// The golden snapshots are generated under the default (decoded) engine
/// by `tests/golden.rs`; the tree engine must reproduce every checked-in
/// file byte for byte too, so a silent divergence cannot hide behind a
/// regenerated snapshot.
#[test]
fn tree_engine_reproduces_all_golden_snapshots() {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"));
    let mut kernels = vectorscope_kernels::studies::kernels();
    kernels.push(vectorscope_kernels::paper::listing1(8));
    kernels.push(vectorscope_kernels::paper::listing2(8));
    kernels.push(vectorscope_kernels::paper::listing3_original(12));
    kernels.push(vectorscope_kernels::paper::listing3_transformed(12));
    let options = AnalysisOptions {
        engine: Engine::Tree,
        threads: 1,
        ..AnalysisOptions::default()
    };
    for kernel in kernels {
        let name = kernel.file_name();

        let golden = std::fs::read_to_string(dir.join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: missing golden report: {e}"));
        let suite = analyze_source(&name, &kernel.source, &options)
            .unwrap_or_else(|e| panic!("{name} failed to analyze: {e}"));
        let mut json = suite_json(&suite.loops);
        json.push('\n');
        assert_eq!(golden, json, "{name}: tree engine diverged from golden");

        let golden_gap = std::fs::read_to_string(dir.join(format!("{name}.gap.json")))
            .unwrap_or_else(|e| panic!("{name}: missing golden gap report: {e}"));
        let gap = analyze_gap(&name, &kernel.source, &options)
            .unwrap_or_else(|e| panic!("{name} failed to cross-validate: {e}"));
        let mut gap_json = gap_suite_json(&gap);
        gap_json.push('\n');
        assert_eq!(
            golden_gap, gap_json,
            "{name}: tree engine diverged from gap golden"
        );
    }
}

/// Whole-program capture: the raw trace must serialize to identical bytes,
/// and the profilers and counters must agree — the strongest form of the
/// identity, below any analysis-layer normalization.
#[test]
fn raw_traces_and_profiles_are_byte_identical() {
    for kernel in vectorscope_kernels::all_kernels() {
        let name = kernel.file_name();
        let module = kernel
            .compile()
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let mut outputs = Vec::new();
        for engine in [Engine::Tree, Engine::Decoded] {
            let mut vm = Vm::with_options(
                &module,
                VmOptions {
                    engine,
                    ..VmOptions::default()
                },
            );
            vm.set_capture(CaptureSpec::Program, &name);
            vm.run_main().unwrap_or_else(|e| panic!("{name}: {e}"));
            let trace = vm.take_trace().expect("capture armed");
            outputs.push((
                trace.to_bytes(),
                vm.fuel_used(),
                vm.inst_counts().to_vec(),
                vm.branch_taken().to_vec(),
                vm.profiler().profiles(&module, vm.forests()),
            ));
        }
        let (tree, decoded) = (&outputs[0], &outputs[1]);
        assert_eq!(tree.0, decoded.0, "{name}: trace bytes diverged");
        assert_eq!(tree.1, decoded.1, "{name}: fuel_used diverged");
        assert_eq!(tree.2, decoded.2, "{name}: inst_counts diverged");
        assert_eq!(tree.3, decoded.3, "{name}: branch_taken diverged");
        assert_eq!(tree.4, decoded.4, "{name}: loop profiles diverged");
    }
}

/// Fuel must run out at the **same instruction** in both engines: with the
/// exact budget the run completes, one unit less and both report
/// `OutOfFuel` after charging the same counts. Pins the check-before-count
/// order at the boundary (including inside fused superinstructions).
#[test]
fn fuel_boundary_is_identical_in_both_engines() {
    // A program exercising loops, calls, memory traffic, and fused
    // compare+branch / load+binop sequences near its end.
    let src = r#"
        const int N = 24;
        double a[N]; double b[N];
        double dot(double x, double y) { return x * y; }
        void main() {
            for (int i = 0; i < N; i++) { b[i] = (double)i * 0.5; }
            for (int i = 0; i < N; i++) { a[i] = dot(b[i], 2.0) + b[i]; }
        }
    "#;
    let module = vectorscope_frontend::compile("fuel.kern", src).expect("compiles");
    let run = |engine: Engine, fuel: u64| {
        let mut vm = Vm::with_options(
            &module,
            VmOptions {
                engine,
                fuel,
                ..VmOptions::default()
            },
        );
        let result = vm.run_main();
        (result, vm.fuel_used(), vm.inst_counts().to_vec())
    };

    // Measure the exact cost once, then probe every boundary fuel value.
    let (ok, exact, _) = run(Engine::Tree, u64::MAX);
    assert!(ok.is_ok(), "baseline run fails: {ok:?}");
    assert!(exact > 0);

    for fuel in [exact, exact - 1, exact / 2, 1] {
        let (tree_res, tree_used, tree_counts) = run(Engine::Tree, fuel);
        let (dec_res, dec_used, dec_counts) = run(Engine::Decoded, fuel);
        if fuel >= exact {
            assert!(tree_res.is_ok() && dec_res.is_ok(), "fuel={fuel}");
        } else {
            assert!(
                matches!(tree_res, Err(VmError::OutOfFuel)),
                "tree at fuel={fuel}: {tree_res:?}"
            );
            assert!(
                matches!(dec_res, Err(VmError::OutOfFuel)),
                "decoded at fuel={fuel}: {dec_res:?}"
            );
        }
        assert_eq!(tree_used, dec_used, "fuel_used diverged at fuel={fuel}");
        assert_eq!(
            tree_counts, dec_counts,
            "inst_counts diverged at fuel={fuel}"
        );
    }
}

/// Emits a random-but-valid Kern program covering unit stride, non-unit
/// stride, reversed access, reductions, and serial chains (the same
/// grammar as the thread-determinism suite).
fn random_program(n: u64, stmts: &[u8]) -> String {
    let m = n * 4 + 2; // array size: covers i*3 and i+1 at every pick
    let mut body = String::new();
    for s in stmts {
        let line = match s % 7 {
            0 => "a[i] = b[i] + c[i];",
            1 => "a[i] = b[i] * c[i] - b[i];",
            2 => "a[i*2] = b[i*2] * 2.0;",
            3 => "a[i] = a[i] + b[i*3];",
            4 => "acc += b[i] * c[i];",
            5 => "a[i+1] = a[i] * 0.5;",
            _ => "c[i] = b[i] * b[i];",
        };
        body.push_str("        ");
        body.push_str(line);
        body.push('\n');
    }
    format!(
        r#"
const int N = {n};
const int M = {m};
double a[M]; double b[M]; double c[M]; double s = 0.0;
void main() {{
    for (int i = 0; i < M; i++) {{
        b[i] = (double)i * 0.5;
        c[i] = (double)(i + 3) * 0.25;
    }}
    double acc = 0.0;
    for (int i = 0; i < N; i++) {{
{body}    }}
    s = acc;
}}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random programs must report identically under both engines, at 1
    /// and 7 threads.
    #[test]
    fn random_programs_agree_between_engines(
        n in 4u64..48,
        stmts in prop::collection::vec(0u8..7, 1..6),
    ) {
        let source = random_program(n, &stmts);
        let mut reports = Vec::new();
        for engine in [Engine::Tree, Engine::Decoded] {
            for threads in [1usize, 7] {
                let options = AnalysisOptions {
                    engine,
                    threads,
                    // Random bodies spread cycles thinly; analyze every loop.
                    hot_threshold_pct: 1.0,
                    ..AnalysisOptions::default()
                };
                let suite = analyze_source("rand.kern", &source, &options)
                    .unwrap_or_else(|e| panic!("generated program failed: {e}\n{source}"));
                reports.push(suite_json(&suite.loops));
            }
        }
        for r in &reports[1..] {
            prop_assert_eq!(
                &reports[0], r,
                "engines diverged for:\n{}", source
            );
        }
    }
}
