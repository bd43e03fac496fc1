//! `PseudoFs::walk` against the plain read path: on every kernel and
//! view of the shared matrix (`common`), one walk must yield exactly the
//! (path, bytes or error) pairs that listing the tree and reading each
//! listed path with `read_into` yields, compared after sorting by path.

mod common;

use common::Reads;
use proptest::prelude::*;
use pseudofs::{PseudoFs, View};
use simkernel::Kernel;

/// What one walk yields, sorted by path.
fn walked(k: &Kernel, view: &View) -> Reads {
    let mut reads = Vec::new();
    PseudoFs::new().walk(k, view, |path, read| {
        reads.push((path.to_string(), read.map(str::to_string)));
    });
    reads.sort_by(|a, b| a.0.cmp(&b.0));
    reads
}

/// What listing and reading each listed path yields, in listing order
/// (sorted by path).
fn listed_and_read(k: &Kernel, view: &View) -> Reads {
    let fs = PseudoFs::new();
    let mut buf = String::new();
    fs.list(k, view)
        .into_iter()
        .map(|path| {
            let read = fs.read_into(k, view, &path, &mut buf).map(|()| buf.clone());
            (path, read)
        })
        .collect()
}

/// Asserts the walk equals the reference on `view` and returns its reads.
fn same_reads(k: &Kernel, view: &View, what: &str) -> Result<Reads, TestCaseError> {
    let reference = listed_and_read(k, view);
    let walk = walked(k, view);
    prop_assert_eq!(walk.len(), reference.len(), "{} paths", what);
    for (w, r) in walk.iter().zip(&reference) {
        prop_assert_eq!(w, r, "{}: walked {:?}, read {:?}", what, w, r);
    }
    Ok(walk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 2 } else { 24 }))]

    #[test]
    fn walk_equals_list_and_read_on_the_testbed_host(seed in 0u64..1 << 32) {
        common::testbed_host(seed, &mut same_reads)?;
    }

    #[test]
    fn walk_equals_list_and_read_under_churn_and_every_mask(seed in 0u64..1 << 32) {
        common::churn_and_every_mask(seed, &mut same_reads)?;
    }

    #[test]
    fn walk_equals_list_and_read_inside_every_fault_window(seed in 0u64..1 << 32) {
        common::every_fault_window(seed, &mut same_reads)?;
    }

    #[test]
    fn walk_equals_list_and_read_on_a_power_namespaced_kernel(seed in 0u64..1 << 32) {
        common::power_namespaced(seed, &mut same_reads)?;
    }
}
