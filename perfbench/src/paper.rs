//! The paper's reference values that `paper_err_pct` is measured against.

/// One application's GMT-Reuse speedup over BaM as published in Fig. 8a.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Application name as `Workload::name` reports it.
    pub app: &'static str,
    /// GMT-Reuse / BaM speedup read from the paper.
    pub reuse_speedup: f64,
    /// The value was read off the bar chart approximately.
    pub approximate: bool,
}

/// Fig. 8a, GMT-Reuse column (the "paper Reuse" column of EXPERIMENTS.md).
pub const FIG8A_REUSE: [Reference; 9] = [
    Reference {
        app: "lavaMD",
        reuse_speedup: 0.88,
        approximate: false,
    },
    Reference {
        app: "Pathfinder",
        reuse_speedup: 1.25,
        approximate: true,
    },
    Reference {
        app: "BFS",
        reuse_speedup: 1.28,
        approximate: false,
    },
    Reference {
        app: "MultiVectorAdd",
        reuse_speedup: 1.40,
        approximate: false,
    },
    Reference {
        app: "Srad",
        reuse_speedup: 2.33,
        approximate: false,
    },
    Reference {
        app: "Backprop",
        reuse_speedup: 2.79,
        approximate: false,
    },
    Reference {
        app: "PageRank",
        reuse_speedup: 1.18,
        approximate: false,
    },
    Reference {
        app: "SSSP",
        reuse_speedup: 1.13,
        approximate: false,
    },
    Reference {
        app: "Hotspot",
        reuse_speedup: 2.25,
        approximate: false,
    },
];

/// The reference for `app`, if the paper reports one.
pub fn reference(app: &str) -> Option<Reference> {
    FIG8A_REUSE.iter().copied().find(|r| r.app == app)
}

/// Geometric-mean |log| error of simulated speedups against the paper, in
/// percent: `100 · (exp(mean |ln(sim / paper)|) − 1)`. `None` when no
/// pair is given.
pub fn geo_abs_log_error_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let mean = pairs
        .iter()
        .map(|(sim, paper)| (sim / paper).ln().abs())
        .sum::<f64>()
        / pairs.len() as f64;
    Some(100.0 * (mean.exp() - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_symmetric_in_log_space() {
        let over = geo_abs_log_error_pct(&[(2.0, 1.0)]).unwrap();
        let under = geo_abs_log_error_pct(&[(0.5, 1.0)]).unwrap();
        assert!((over - 100.0).abs() < 1e-9);
        assert!((under - 100.0).abs() < 1e-9);
        assert_eq!(geo_abs_log_error_pct(&[(1.3, 1.3)]), Some(0.0));
        assert_eq!(geo_abs_log_error_pct(&[]), None);
    }

    #[test]
    fn every_suite_app_has_a_reference() {
        for w in gmt_workloads::suite(&gmt_workloads::WorkloadScale::tiny()) {
            assert!(
                reference(w.name()).is_some(),
                "{} has no Fig. 8a value",
                w.name()
            );
        }
    }
}
