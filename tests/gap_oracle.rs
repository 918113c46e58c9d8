//! The static↔dynamic cross-validation contract (`vscope gap`), enforced
//! over every bundled kernel.
//!
//! The static dependence analysis emits *theorems* — proven dependence
//! vectors, serialization bounds, stride classes. The dynamic analysis
//! observes one real execution. Where their domains overlap they must
//! agree, and this suite is the referee:
//!
//! * zero unwitnessed proven flow dependences,
//! * zero dynamic excursions above a static concurrency bound,
//! * zero non-unit dynamic vector ops in statically contiguous loops.
//!
//! Any violation means one of the two analyses has a soundness bug, which
//! is exactly the kind of failure that would otherwise corrupt the
//! reproduced paper tables silently.

use vectorscope::gap::{analyze_gap, analyze_gap_sources, GapSuite, StrideOracle};
use vectorscope::json::loop_report_json;
use vectorscope::triage::Verdict;
use vectorscope::{analyze_loop, AnalysisOptions};
use vectorscope_kernels::{Kernel, Variant};
use vectorscope_staticdep::GapCause;

fn sequential() -> AnalysisOptions {
    AnalysisOptions {
        threads: 1,
        ..AnalysisOptions::default()
    }
}

fn gap_of(kernel: &Kernel, options: &AnalysisOptions) -> GapSuite {
    analyze_gap(&kernel.file_name(), &kernel.source, options)
        .unwrap_or_else(|e| panic!("{} failed to analyze: {e}", kernel.file_name()))
}

fn kernel(name: &str, variant: Variant) -> Kernel {
    vectorscope_kernels::all_kernels()
        .into_iter()
        .find(|k| k.name == name && k.variant == variant)
        .unwrap_or_else(|| panic!("no bundled kernel {name}/{variant:?}"))
}

/// The acceptance gate: every bundled kernel passes every oracle
/// obligation, through the same batch path CI runs.
#[test]
fn no_bundled_kernel_violates_the_oracle() {
    let kernels = vectorscope_kernels::all_kernels();
    let programs: Vec<(String, String)> = kernels
        .iter()
        .map(|k| (k.file_name(), k.source.clone()))
        .collect();
    for result in analyze_gap_sources(&programs, &AnalysisOptions::default())
        .into_iter()
        .zip(&kernels)
    {
        let (result, kernel) = result;
        let suite = result.unwrap_or_else(|e| panic!("{}: {e}", kernel.file_name()));
        let violations = suite.violations();
        assert!(
            violations.is_empty(),
            "{}: oracle violation(s):\n{}",
            kernel.file_name(),
            violations.join("\n")
        );
    }
}

/// Breaking reductions waives reduction-derived bounds but must not create
/// violations elsewhere: the non-reduction theorems still hold.
#[test]
fn oracle_holds_with_broken_reductions() {
    let options = AnalysisOptions {
        break_reductions: true,
        ..sequential()
    };
    for k in vectorscope_kernels::studies::kernels() {
        let suite = gap_of(&k, &options);
        let violations = suite.violations();
        assert!(
            violations.is_empty(),
            "{}: oracle violation(s) with break_reductions:\n{}",
            k.file_name(),
            violations.join("\n")
        );
    }
}

/// `analyze_gap` queries each hot loop's DDG inside the capture core. The
/// composition it replaced — every hot loop re-analyzed on its own with
/// `analyze_loop`, its DDG asked for each witness edge — is rebuilt here
/// from public APIs as an oracle: the rows and witness outcomes must
/// match, with and without broken reductions.
#[test]
fn gap_matches_per_loop_reanalysis_on_every_kernel() {
    for break_reductions in [false, true] {
        let options = AnalysisOptions {
            break_reductions,
            ..sequential()
        };
        for k in vectorscope_kernels::all_kernels() {
            let suite = gap_of(&k, &options);
            let decisions = vectorscope_autovec::analyze_module(&suite.module);
            for l in &suite.loops {
                let at = format!(
                    "{} (break_reductions {break_reductions})",
                    l.report.location()
                );
                let analysis =
                    analyze_loop(&suite.module, l.report.func, l.report.loop_id, &options)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                let mut expected = analysis.report;
                let counts: Vec<_> = expected
                    .per_inst
                    .iter()
                    .map(|m| (m.inst, m.instances))
                    .collect();
                expected.percent_packed =
                    Some(vectorscope_autovec::percent_packed(&decisions, &counts));
                assert_eq!(
                    loop_report_json(&l.report),
                    loop_report_json(&expected),
                    "{at}: report row differs from the per-loop reanalysis"
                );
                for w in &l.witnesses {
                    assert_eq!(
                        w.witnessed,
                        analysis.ddg.has_flow_edge(w.source, w.sink),
                        "{at}: witness line {} -> line {}",
                        w.source_line,
                        w.sink_line
                    );
                }
            }
        }
    }
}

/// Gauss-Seidel (§4.4): the static side proves the distance-1 flow
/// dependence, the dynamic DDG witnesses it, the serial bound binds, and
/// because both sides agree the measured gap is (near) zero.
#[test]
fn gauss_seidel_static_and_dynamic_agree() {
    let suite = gap_of(&kernel("gauss_seidel", Variant::Original), &sequential());
    let l = &suite.loops[0];
    assert!(l.dep.exact, "limits: {:?}", l.dep.limits);
    assert!(!l.witnesses.is_empty(), "expected a due witness obligation");
    assert!(l.witnesses.iter().all(|w| w.witnessed));
    assert!(l
        .witnesses
        .iter()
        .any(|w| w.distance == Some(1) && w.witnessed));
    assert_eq!(l.dep.min_bound(false), Some(1));
    assert!(l.bounds.iter().all(|b| !b.violated()));
    assert_eq!(l.stride, StrideOracle::Consistent);
    assert!(l.gap_pct < 5.0, "gap {}", l.gap_pct);
}

/// 435.gromacs (§4.4): indirect subscripts blind the static analysis, so
/// its hot loop's dynamic potential is (almost) entirely gap, classified
/// as indirection.
#[test]
fn gromacs_gap_is_classified_as_indirection() {
    let suite = gap_of(&kernel("gromacs", Variant::Original), &sequential());
    let l = suite
        .loops
        .iter()
        .find(|l| l.causes.contains(&GapCause::Indirection))
        .expect("gromacs hot loop is indirection-limited");
    assert!(!l.dep.exact);
    assert!(l.gap_pct > 50.0, "gap {}", l.gap_pct);
    assert_eq!(l.verdict, Verdict::IndirectionLimited);
}

/// The UTDSP pointer variants (§4.3): the same computation as the array
/// variants, but opaque pointer bases defeat the static tests — the gap is
/// attributed to may-alias conservatism and the triage verdict points at
/// aliasing, not at a missing transformation.
#[test]
fn pointer_variant_is_alias_limited() {
    let suite = gap_of(&kernel("mult", Variant::Pointer), &sequential());
    let l = suite
        .loops
        .iter()
        .find(|l| l.causes.contains(&GapCause::MayAlias))
        .expect("pointer-variant hot loop is alias-limited");
    assert!(!l.dep.exact);
    assert!(l.gap_pct > 50.0, "gap {}", l.gap_pct);
    assert_eq!(l.verdict, Verdict::AliasLimited);

    // The array variant of the same kernel is statically exact: the gap
    // exists only because of the pointers.
    let array = gap_of(&kernel("mult", Variant::Array), &sequential());
    assert!(array
        .loops
        .iter()
        .all(|l| !l.causes.contains(&GapCause::MayAlias)));
}

/// The PDE solver (§4.4): data-dependent control flow withdraws every
/// static proof, so the oracle raises no obligations, and the whole
/// dynamic potential of the boundary loop is gap.
#[test]
fn pde_solver_control_flow_suppresses_static_proofs() {
    let suite = gap_of(&kernel("pde_solver", Variant::Original), &sequential());
    let l = suite
        .loops
        .iter()
        .find(|l| l.causes.contains(&GapCause::DataDependentControl))
        .expect("pde hot loop has data-dependent control");
    assert!(!l.dep.exact);
    assert!(l.witnesses.is_empty());
    assert!(l.bounds.is_empty());
    assert_eq!(l.stride, StrideOracle::NotApplicable);
}

/// A synthetic falsification check: the oracle is not vacuous. A loop with
/// a proven dependence must produce a due witness obligation at observed
/// trip counts, and the obligation must be discharged by a real DDG edge.
#[test]
fn witness_obligations_are_raised_and_discharged() {
    let src = "const int N = 32; double a[N];\n\
               void main() { for (int i = 2; i < N; i++) { a[i] = a[i-2] + 1.0; } }";
    let suite = analyze_gap("dist2.kern", src, &sequential()).expect("analyzes");
    let l = &suite.loops[0];
    let w = l
        .witnesses
        .iter()
        .find(|w| w.distance == Some(2))
        .expect("distance-2 obligation raised");
    assert!(w.witnessed);
    assert!(!w.shadowed);
    // The distance-2 chain halves the serialization: bound 2, respected.
    assert_eq!(l.dep.min_bound(false), Some(2));
    assert!(l.bounds.iter().all(|b| !b.violated()));
    assert!(!suite.has_violations());
}

/// Reduction bounds are marked breakable and waived when the dynamic
/// analysis breaks reduction chains — and the dynamic run confirms the
/// chain really does vanish (the bound would be violated if enforced).
#[test]
fn broken_reductions_waive_their_bounds() {
    let src = "const int N = 64; double a[N]; double s;\n\
               void main() { double acc = 0.0;\n\
                 for (int i = 0; i < N; i++) { acc = acc + a[i] * 2.0; } s = acc; }";
    let strict = analyze_gap("red.kern", src, &sequential()).expect("analyzes");
    let l = &strict.loops[0];
    assert!(l.bounds.iter().any(|b| b.from_reduction));
    assert!(!strict.has_violations());

    let broken = analyze_gap(
        "red.kern",
        src,
        &AnalysisOptions {
            break_reductions: true,
            ..sequential()
        },
    )
    .expect("analyzes");
    let l = &broken.loops[0];
    // With the chain broken the dynamic partitions exceed the (waived)
    // reduction bound: the waiver is what keeps the oracle sound.
    let red = l
        .bounds
        .iter()
        .find(|b| b.from_reduction)
        .expect("reduction bound recorded");
    assert!(!red.applicable());
    assert!(red.avg_partition_size > red.bound as f64);
    assert!(!broken.has_violations());
}
