//! Nested experiment scopes. Its own test binary: installing a sink is
//! once per process, and the crate's unit tests rely on tracing being off.

use std::sync::Arc;

use simtrace::{scope, tracer_for_new_kernel, MemorySink};

/// The scope name the next kernel built on this thread is traced under.
fn next_kernel_scope() -> Option<String> {
    tracer_for_new_kernel().map(|t| t.scope().to_string())
}

#[test]
fn an_inner_scope_restores_the_outer_one_and_its_numbering() {
    simtrace::install(Arc::new(MemorySink::new()));
    assert_eq!(next_kernel_scope(), None, "no scope entered yet");
    {
        let _outer = scope("workload");
        assert_eq!(next_kernel_scope().as_deref(), Some("workload/k000"));
        {
            let _inner = scope("fig4");
            assert_eq!(next_kernel_scope().as_deref(), Some("fig4/k000"));
            assert_eq!(next_kernel_scope().as_deref(), Some("fig4/k001"));
        }
        // The outer scope resumes where it left off, not at k000 and not
        // untraced.
        assert_eq!(next_kernel_scope().as_deref(), Some("workload/k001"));
    }
    assert_eq!(next_kernel_scope(), None, "every scope has closed");
}
