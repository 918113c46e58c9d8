//! The three workloads, their inputs, and the checks every output passes.
//!
//! Each workload calls exactly one public entry point of the `vectorscope`
//! crate, with `AnalysisOptions { threads, ..Default::default() }`:
//!
//! * `analyze` — [`analyze_source`] at 2 threads on all 42 bundled kernels
//!   (the `vscope analyze` / `suite` path; the only one that uses the pool);
//! * `whole_program` — [`stream_program`] at 1 thread on the 15 kernels
//!   whose whole-run trace has at least 50,000 events (the bounded-memory
//!   whole-benchmark characterisation);
//! * `gap` — [`analyze_gap`] at 1 thread on all 42 kernels (the static ↔
//!   dynamic oracle CI runs).

use std::path::{Path, PathBuf};
use vectorscope::json::{gap_suite_json, loop_report_json, suite_json};
use vectorscope::{
    analyze_gap, analyze_program, analyze_source, stream_program, AnalysisOptions, Error, GapSuite,
    InstMetrics, LoopMetrics, LoopReport, StreamOutcome, SuiteReport,
};
use vectorscope_ir::loops::LoopId;
use vectorscope_ir::Module;

/// File names of the bundled kernels whose whole-run trace has at least
/// 50,000 events (2,966,354 events together).
pub const WHOLE_PROGRAM_KERNELS: [&str; 15] = [
    "gauss_seidel_original.kern",
    "gauss_seidel_transformed.kern",
    "pde_solver_original.kern",
    "pde_solver_transformed.kern",
    "bwaves_original.kern",
    "bwaves_transformed.kern",
    "milc_original.kern",
    "milc_transformed.kern",
    "lmsfir_array.kern",
    "lmsfir_pointer.kern",
    "spec_410_bwaves.kern",
    "spec_433_milc.kern",
    "spec_434_zeusmp.kern",
    "spec_436_cactusadm.kern",
    "spec_481_wrf.kern",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `analyze_source` at 2 threads on every bundled kernel.
    Analyze,
    /// `stream_program` at 1 thread on the large kernels.
    WholeProgram,
    /// `analyze_gap` at 1 thread on every bundled kernel.
    Gap,
}

impl Workload {
    /// All workloads, in the order the traced run visits them.
    pub const ALL: [Workload; 3] = [Workload::Analyze, Workload::WholeProgram, Workload::Gap];

    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Analyze => "analyze",
            Workload::WholeProgram => "whole_program",
            Workload::Gap => "gap",
        }
    }

    /// Analysis worker threads the end-to-end runs use (the host has 2
    /// CPUs; only `analyze` fans out).
    pub fn threads(self) -> usize {
        match self {
            Workload::Analyze => 2,
            Workload::WholeProgram | Workload::Gap => 1,
        }
    }

    /// The options every end-to-end call of this workload passes.
    pub fn options(self) -> AnalysisOptions {
        options(self.threads())
    }

    /// Loads the workload's programs and their expected outputs, in the
    /// bundled order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file if a reference output cannot be
    /// read, or the kernel if it fails to compile.
    pub fn programs(self) -> Result<Vec<Program>, String> {
        let mut out = Vec::new();
        for kernel in vectorscope_kernels::all_kernels() {
            let name = kernel.file_name();
            if self == Workload::WholeProgram && !WHOLE_PROGRAM_KERNELS.contains(&name.as_str()) {
                continue;
            }
            let module = match self {
                Workload::WholeProgram => Some(
                    kernel
                        .compile()
                        .map_err(|e| format!("{name}: compile error: {e}"))?,
                ),
                Workload::Analyze | Workload::Gap => None,
            };
            let path = self.expected_path(&name);
            let expected = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push(Program {
                name,
                source: kernel.source,
                module,
                expected,
            });
        }
        if out.is_empty() || (self == Workload::WholeProgram && out.len() != 15) {
            return Err(format!("{}: bundled kernel set changed", self.name()));
        }
        Ok(out)
    }

    /// Where the expected output of `name` lives: the repository's golden
    /// snapshot when one exists (read-only), else the benchmark's own
    /// reference file.
    pub fn expected_path(self, name: &str) -> PathBuf {
        let file = format!("{name}{}", self.suffix());
        let golden = repo_dir().join("tests/golden").join(&file);
        if self != Workload::WholeProgram && golden.exists() {
            golden
        } else {
            expected_dir().join(file)
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Workload::Analyze => ".json",
            Workload::WholeProgram => ".program.json",
            Workload::Gap => ".gap.json",
        }
    }

    /// Runs the workload's entry point on one program. This is the timed
    /// call.
    pub fn call(self, program: &Program, options: &AnalysisOptions) -> Result<Output, Error> {
        match self {
            Workload::Analyze => {
                analyze_source(&program.name, &program.source, options).map(Output::Suite)
            }
            Workload::WholeProgram => stream_program(program.module(), options).map(Output::Stream),
            Workload::Gap => analyze_gap(&program.name, &program.source, options).map(Output::Gap),
        }
    }
}

/// The options of an end-to-end call at `threads` analysis threads.
pub fn options(threads: usize) -> AnalysisOptions {
    AnalysisOptions {
        threads,
        ..Default::default()
    }
}

/// The repository root (the benchmark package sits one level below it).
pub fn repo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The benchmark's own reference outputs.
pub fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// One input program and what its output must be.
pub struct Program {
    /// Report file name (`<kernel>.kern`).
    pub name: String,
    /// Kern source.
    pub source: String,
    /// The compiled module, for `whole_program` (compiled during set-up:
    /// `stream_program` takes a module).
    pub module: Option<Module>,
    /// The expected rendered output.
    pub expected: String,
}

impl Program {
    /// The compiled module of a `whole_program` input.
    ///
    /// # Panics
    ///
    /// Panics for a program loaded by another workload.
    pub fn module(&self) -> &Module {
        self.module
            .as_ref()
            .expect("whole_program inputs are compiled during set-up")
    }
}

/// What an entry point returned.
pub enum Output {
    /// From `analyze_source`.
    Suite(SuiteReport),
    /// From `stream_program`.
    Stream(StreamOutcome),
    /// From `analyze_gap`.
    Gap(GapSuite),
}

impl Output {
    /// The output rendered the way its reference file stores it.
    pub fn render(&self, program_name: &str) -> String {
        match self {
            Output::Suite(s) => format!("{}\n", suite_json(&s.loops)),
            Output::Gap(g) => format!("{}\n", gap_suite_json(g)),
            Output::Stream(o) => render_program(program_name, &o.metrics, &o.per_inst, o.nodes),
        }
    }

    /// Whether the output matches `expected` byte for byte and, for the
    /// gap oracle, reports no violation.
    pub fn matches(&self, program_name: &str, expected: &str) -> bool {
        let oracle_holds = match self {
            Output::Gap(g) => !g.has_violations(),
            Output::Suite(_) | Output::Stream(_) => true,
        };
        oracle_holds && self.render(program_name) == expected
    }
}

/// Renders whole-run metrics with the repository's own report renderer:
/// one report row for the whole program (line 0, 100% of cycles).
pub fn render_program(
    name: &str,
    metrics: &LoopMetrics,
    per_inst: &[InstMetrics],
    nodes: usize,
) -> String {
    let row = LoopReport {
        module_name: name.to_string(),
        func_name: "main".to_string(),
        func: vectorscope_ir::FuncId(0),
        loop_id: LoopId(0),
        loop_line: 0,
        percent_cycles: 100.0,
        percent_packed: None,
        control_irregularity: 0.0,
        metrics: metrics.clone(),
        per_inst: per_inst.to_vec(),
        ddg_nodes: nodes,
    };
    format!("{}\n", loop_report_json(&row))
}

/// The batch engine's whole-run result for `program`, rendered like the
/// streaming one: the independent check on `whole_program` outputs.
///
/// # Errors
///
/// Propagates the batch pipeline's error.
pub fn batch_program_render(program: &Program) -> Result<String, Error> {
    let batch = analyze_program(program.module(), &options(1))?;
    Ok(render_program(
        &program.name,
        &batch.metrics,
        &batch.per_inst,
        batch.ddg.len(),
    ))
}

/// Program calls attempted and how many failed, by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Calls made (and outputs checked).
    pub attempted: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Calls whose output failed its check.
    pub mismatches: u64,
}

impl Tally {
    /// Records one call: its result and whether the output passed.
    pub fn record<T>(&mut self, result: &Result<T, Error>, passed: impl FnOnce(&T) -> bool) {
        self.attempted += 1;
        match result {
            Err(_) => self.errors += 1,
            Ok(out) if !passed(out) => self.mismatches += 1,
            Ok(_) => {}
        }
    }

    /// Calls that erred or produced a wrong output.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(name: &str, source: &str, expected: &str) -> Program {
        Program {
            name: name.into(),
            source: source.into(),
            module: None,
            expected: expected.into(),
        }
    }

    #[test]
    fn failed_frac_counts_errors_and_mismatches() {
        let w = Workload::Analyze;
        let opts = options(1);
        let good = "const int N = 8; double a[N]; \
                    void main() { for (int i = 0; i < N; i++) { a[i] = a[i] * 2.0; } }";
        let reference = w
            .call(&program("g.kern", good, ""), &opts)
            .unwrap()
            .render("g.kern");
        let cases = [
            program("g.kern", good, &reference),     // passes
            program("bad.kern", "void main( {", ""), // Err: compile error
            program("g.kern", good, "[]\n"),         // Ok but wrong output
        ];
        let mut tally = Tally::default();
        for p in &cases {
            let result = w.call(p, &opts);
            tally.record(&result, |out| out.matches(&p.name, &p.expected));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                errors: 1,
                mismatches: 1
            }
        );
        assert_eq!(tally.failed(), 2);
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn every_expected_output_is_present() {
        for w in Workload::ALL {
            let programs = w.programs().unwrap_or_else(|e| panic!("{e}"));
            let want = if w == Workload::WholeProgram { 15 } else { 42 };
            assert_eq!(programs.len(), want, "{}", w.name());
        }
    }
}
