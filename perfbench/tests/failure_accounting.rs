//! A job that panics inside the simulator is counted as failed; it never
//! aborts the benchmark.
//!
//! The case driven here is a known simulator defect: BFS on a 2^17-vertex
//! GAP-Kron graph (seed 0x9A6E) under the paper's default geometry gets a
//! 29-page Tier-1 that `GmtConfig::validate` accepts, and the three GMT
//! policies then panic with "tier-1 is full" while BaM and HMM complete.
//! The test asserts only the accounting, so it keeps passing once the
//! defect is fixed.

use gmt_perfbench::layers::Spans;
use gmt_perfbench::replay::{run_pass, App, Job, Probe};
use gmt_workloads::bfs::Bfs;
use gmt_workloads::kron::{KronConfig, KronGraph};

#[test]
fn a_panicking_job_is_counted_not_fatal() {
    let app = App::new(Box::new(Bfs::on_graph(KronGraph::generate(
        KronConfig::gap(17),
        0x9A6E,
    ))));
    let page_refs: u64 = app
        .workload
        .trace(1)
        .iter()
        .map(|a| a.pages.len() as u64)
        .sum();
    let mut spans = Spans::new(false);
    let mut probe = Probe {
        spans: &mut spans,
        counts: None,
        offline: std::time::Duration::ZERO,
    };
    let pass = run_pass(std::slice::from_ref(&app), 1, &mut probe);

    let jobs = Job::all().count() as u64;
    assert_eq!(pass.jobs, jobs, "every job was attempted");
    assert!(pass.failures.len() as u64 <= jobs);
    for failure in &pass.failures {
        assert!(
            failure.starts_with("BFS/"),
            "failure names its job: {failure}"
        );
    }
    // Each system job that did not fail completed with its checks passing,
    // so its page references entered the pass total.
    let failed_systems = pass
        .failures
        .iter()
        .filter(|f| !f.starts_with("BFS/characterize"))
        .count() as u64;
    let completed_systems = jobs - 1 - failed_systems;
    assert_eq!(pass.refs, completed_systems * page_refs);
}
