//! The kernel abstraction and registry.

use aladdin_ir::{Trace, Tracer};

/// Result of executing a kernel under the tracer.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The recorded dynamic trace.
    pub trace: Trace,
    /// The kernel's outputs, flattened to `f64` for comparison against
    /// [`Kernel::reference`].
    pub outputs: Vec<f64>,
}

/// An accelerator workload.
///
/// Implementations are deterministic: inputs are generated from a fixed
/// seed, so `run` and `reference` always agree and repeated runs produce
/// identical traces.
///
/// A kernel implements [`trace`](Kernel::trace) once, against whatever
/// tracer it is handed; [`run`](Kernel::run) materializes the trace and
/// [`fingerprint`](Kernel::fingerprint) only hashes it.
pub trait Kernel: Send + Sync {
    /// MachSuite-style name, e.g. `"stencil-stencil3d"`.
    fn name(&self) -> &'static str;

    /// One-line description of the computation and its access pattern.
    fn description(&self) -> &'static str;

    /// Execute against `t` (a tracer named [`name`](Kernel::name)),
    /// recording every operation, and return the outputs.
    fn trace(&self, t: &mut Tracer) -> Vec<f64>;

    /// Recompute the outputs with plain (untraced) Rust.
    fn reference(&self) -> Vec<f64>;

    /// Execute under a materializing tracer, producing the trace and the
    /// outputs.
    fn run(&self) -> KernelRun {
        let mut t = Tracer::new(self.name());
        let outputs = self.trace(&mut t);
        KernelRun {
            trace: t.finish(),
            outputs,
        }
    }

    /// The [`Trace::fingerprint`] of [`run`](Kernel::run)'s trace, from a
    /// fingerprint-only tracer: the kernel executes, but no node is
    /// stored. This is all a result-cache lookup needs.
    fn fingerprint(&self) -> u128 {
        let mut t = Tracer::fingerprint_only(self.name());
        let _ = self.trace(&mut t);
        t.finish_fingerprint()
    }
}

/// The eight kernels the paper's Figures 6–10 analyze in depth, in the
/// paper's DMA-preference order (Figure 8: left-to-right, DMA-preferring
/// first).
#[must_use]
pub fn evaluation_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(crate::Aes::default()),
        Box::new(crate::NeedlemanWunsch::default()),
        Box::new(crate::GemmNCubed::default()),
        Box::new(crate::Stencil2d::default()),
        Box::new(crate::Stencil3d::default()),
        Box::new(crate::MdKnn::default()),
        Box::new(crate::SpmvCrs::default()),
        Box::new(crate::FftTranspose::default()),
    ]
}

/// All implemented kernels (the evaluation eight plus the Figure 2b
/// breadth set).
#[must_use]
pub fn all_kernels() -> Vec<Box<dyn Kernel>> {
    let mut v = evaluation_kernels();
    v.push(Box::new(crate::BfsBulk::default()));
    v.push(Box::new(crate::SortMerge::default()));
    v.push(Box::new(crate::SortRadix::default()));
    v.push(Box::new(crate::Kmp::default()));
    v.push(Box::new(crate::Viterbi::default()));
    v.push(Box::new(crate::GemmBlocked::default()));
    v.push(Box::new(crate::SpmvEllpack::default()));
    v.push(Box::new(crate::MdGrid::default()));
    v
}

/// The evaluation kernels at MachSuite's *published* problem sizes (the
/// defaults used everywhere else are scaled down for design-space sweep
/// tractability; see each kernel's documentation). Use these to check
/// that conclusions are not artifacts of the scaling.
#[must_use]
pub fn paper_scale_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(crate::Aes {
            blocks: 1,
            seed: 37,
        }),
        Box::new(crate::NeedlemanWunsch {
            seq_len: 128,
            seed: 31,
        }),
        Box::new(crate::GemmNCubed { n: 64, seed: 7 }),
        Box::new(crate::Stencil2d {
            rows: 64,
            cols: 128,
            seed: 11,
        }),
        Box::new(crate::Stencil3d {
            height: 32,
            rows: 32,
            cols: 16,
            seed: 13,
        }),
        Box::new(crate::MdKnn {
            atoms: 256,
            neighbors: 16,
            seed: 17,
        }),
        Box::new(crate::SpmvCrs {
            n: 494,
            nnz_per_row: 4,
            seed: 23,
        }),
        Box::new(crate::FftTranspose {
            units: 64,
            seed: 29,
        }),
    ]
}

/// Look a kernel up by its MachSuite-style name.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn Kernel>> {
    all_kernels().into_iter().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_default_names() {
        let names: Vec<_> = paper_scale_kernels().iter().map(|k| k.name()).collect();
        let expected: Vec<_> = evaluation_kernels().iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<_> = all_kernels().iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert_eq!(all_kernels().len(), 16);
    }

    /// A kernel's fingerprint is one value however it is traced: hashed
    /// by a fingerprint-only tracer, over the materialized trace, and in
    /// the footer of its streamed `.atrc` encoding.
    #[test]
    fn every_kernel_fingerprint_is_the_same_traced_or_not() {
        for k in all_kernels() {
            let run = k.run();
            let mut streamed = Tracer::new(k.name());
            streamed
                .stream_to(Box::new(std::io::sink()))
                .expect("a sink takes the header");
            let outputs = k.trace(&mut streamed);
            let footer = streamed.finish_streaming().expect("a sink cannot fail");
            assert_eq!(outputs, run.outputs, "{}", k.name());
            assert_eq!(footer.nodes, run.trace.nodes().len() as u64, "{}", k.name());
            assert_eq!(k.fingerprint(), run.trace.fingerprint(), "{}", k.name());
            assert_eq!(footer.fingerprint, run.trace.fingerprint(), "{}", k.name());
        }
    }

    #[test]
    fn by_name_finds_each() {
        for k in all_kernels() {
            assert!(by_name(k.name()).is_some(), "{} missing", k.name());
        }
        assert!(by_name("nope").is_none());
    }
}
