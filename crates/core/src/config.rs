//! EulerFD configuration: the two growth-rate thresholds of the double
//! cycle and the MLFQ queue layout (Table IV of the paper).

/// Tunable parameters of EulerFD.
#[derive(Clone, Debug)]
pub struct EulerFdConfig {
    /// `Th_Ncover`: cycle 1 keeps sampling while the negative cover's growth
    /// rate exceeds this (paper default 0.01, Section V-F).
    pub th_ncover: f64,
    /// `Th_Pcover`: cycle 2 returns to sampling while the positive cover's
    /// growth rate exceeds this (paper default 0.01, Section V-F).
    pub th_pcover: f64,
    /// Number of MLFQ priority queues (paper default 6, Section V-E).
    pub n_queues: usize,
    /// A cluster retires from the MLFQ when its average capa over this many
    /// most recent samples is 0.
    pub recent_window: usize,
    /// Sampling batch size between Ncover growth checks, expressed as a
    /// multiple of the cluster count. `f64::INFINITY` (the default) drains
    /// the MLFQ per phase exactly like Algorithm 1; finite values hand
    /// control back to the growth check early (ablation knob).
    pub batch_factor: f64,
    /// Lower bound on the batch size.
    pub min_batch: usize,
    /// Whether cycle 2 may revive retired clusters when it wants more
    /// evidence but the MLFQ has drained. Disabling this (ablation) leaves
    /// the second cycle with nothing to resume and collapses EulerFD into a
    /// single-shot sampler like AID-FD.
    pub enable_revival: bool,
    /// Worker threads for the data-parallel kernels (pair comparison,
    /// partition construction, cover inversion). `0` means one per available
    /// core. The discovered FD set is byte-identical for every value — the
    /// parallel paths fold results in plan order, never completion order —
    /// so this knob trades wall-clock time only.
    pub threads: usize,
}

impl Default for EulerFdConfig {
    fn default() -> Self {
        EulerFdConfig {
            th_ncover: 0.01,
            th_pcover: 0.01,
            n_queues: 6,
            recent_window: 2,
            batch_factor: f64::INFINITY,
            min_batch: 64,
            enable_revival: true,
            threads: 1,
        }
    }
}

impl EulerFdConfig {
    /// Config with explicit thresholds (Figure 11 sweeps).
    pub fn with_thresholds(th_ncover: f64, th_pcover: f64) -> Self {
        EulerFdConfig { th_ncover, th_pcover, ..Default::default() }
    }

    /// Config with an explicit queue count (Figure 10 sweeps).
    pub fn with_queues(n_queues: usize) -> Self {
        assert!(n_queues >= 1, "MLFQ needs at least one queue");
        EulerFdConfig { n_queues, ..Default::default() }
    }

    /// Sets the kernel thread count (builder style); `0` = auto.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective kernel thread count: `threads` clamped to the machine's
    /// available parallelism (`0` = one per core). Clamping means an
    /// explicit `--threads 8` on a 1-core container degrades to the
    /// sequential path instead of oversubscribing, which measured a sub-1×
    /// "speedup".
    pub fn resolved_threads(&self) -> usize {
        fd_core::clamp_threads(self.threads)
    }

    /// The capa lower bounds of this config's queues, highest priority
    /// first. See [`mlfq_ranges`].
    pub fn queue_bounds(&self) -> Vec<f64> {
        mlfq_ranges(self.n_queues)
    }
}

/// The capa ranges of Table IV for a given queue count, returned as each
/// queue's **lower bound** from highest to lowest priority. The highest
/// queue covers `[10, +∞)` and successive queues are exponentially divided;
/// the lowest always reaches down to 0:
///
/// | queues | ranges (q_z .. q_1, paper order reversed here)          |
/// |--------|---------------------------------------------------------|
/// | 1      | `[0, ∞)`                                                |
/// | 2      | `[10, ∞)`, `[0, 10)`                                    |
/// | 3      | `[10, ∞)`, `[1, 10)`, `[0, 1)`                          |
/// | 6      | `[10, ∞)`, `[1, 10)`, `[0.1, 1)`, … , `[0, 0.001)`      |
pub fn mlfq_ranges(n_queues: usize) -> Vec<f64> {
    assert!(n_queues >= 1, "MLFQ needs at least one queue");
    if n_queues == 1 {
        return vec![0.0];
    }
    let mut bounds = Vec::with_capacity(n_queues);
    for i in 0..n_queues - 1 {
        // 10, 1, 0.1, 0.01, …
        bounds.push(10f64.powi(1 - i as i32));
    }
    bounds.push(0.0);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_4_ranges_are_reproduced() {
        assert_eq!(mlfq_ranges(1), vec![0.0]);
        assert_eq!(mlfq_ranges(2), vec![10.0, 0.0]);
        assert_eq!(mlfq_ranges(3), vec![10.0, 1.0, 0.0]);
        let six = mlfq_ranges(6);
        assert_eq!(six.len(), 6);
        assert_eq!(six[0], 10.0);
        assert_eq!(six[1], 1.0);
        assert!((six[2] - 0.1).abs() < 1e-12);
        assert!((six[3] - 0.01).abs() < 1e-12);
        assert!((six[4] - 0.001).abs() < 1e-12);
        assert_eq!(six[5], 0.0);
        let seven = mlfq_ranges(7);
        assert!((seven[5] - 0.0001).abs() < 1e-12);
        assert_eq!(seven[6], 0.0);
    }

    #[test]
    fn bounds_are_strictly_descending() {
        for z in 1..=7 {
            let b = mlfq_ranges(z);
            assert_eq!(b.len(), z);
            for w in b.windows(2) {
                assert!(w[0] > w[1], "{z} queues: {b:?}");
            }
            assert_eq!(*b.last().unwrap(), 0.0);
        }
    }

    #[test]
    fn default_config_matches_the_paper() {
        let c = EulerFdConfig::default();
        assert_eq!(c.th_ncover, 0.01);
        assert_eq!(c.th_pcover, 0.01);
        assert_eq!(c.n_queues, 6);
    }

    #[test]
    #[should_panic]
    fn zero_queues_is_rejected() {
        let _ = mlfq_ranges(0);
    }
}
