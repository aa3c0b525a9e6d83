//! Every bundled workload must lint clean of errors. This is the
//! acceptance bar for `soclint trace`.

use aladdin_lint::lint_trace;
use aladdin_workloads::all_kernels;

#[test]
fn all_workload_traces_lint_without_errors() {
    for kernel in all_kernels() {
        let trace = kernel.run().trace;
        let report = lint_trace(&trace);
        assert!(
            !report.has_errors(),
            "{}: {}",
            kernel.name(),
            report.to_human()
        );
    }
}
