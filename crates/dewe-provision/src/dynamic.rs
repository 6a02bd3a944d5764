//! Dynamic provisioning analysis (the paper's §V.A.3 sketch).
//!
//! DEWE v2's timeout-based recovery "opens the door for dynamic resource
//! provisioning": add workers while many non-blocking jobs are queued,
//! remove them while blocking jobs serialize the workflow. The paper notes
//! this pays off under per-minute billing (GCE) but not per-hour billing
//! (2015 AWS) and leaves it there; this module implements the analysis.

use dewe_simcloud::{BillingModel, CostModel};

/// One scaling step in a dynamic plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleAction {
    /// When, seconds from ensemble start.
    pub at_secs: f64,
    /// Desired active node count from this moment.
    pub nodes: usize,
}

/// A piecewise-constant node-count schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicPlan {
    /// Scaling steps, in time order. The first entry is at `0.0`.
    pub steps: Vec<ScaleAction>,
    /// Total runtime covered by the plan, seconds.
    pub duration_secs: f64,
}

impl DynamicPlan {
    /// A static plan: `nodes` for the whole duration.
    pub fn fixed(nodes: usize, duration_secs: f64) -> Self {
        Self { steps: vec![ScaleAction { at_secs: 0.0, nodes }], duration_secs }
    }

    /// Validate and construct a dynamic plan.
    pub fn new(steps: Vec<ScaleAction>, duration_secs: f64) -> Self {
        assert!(!steps.is_empty(), "plan needs at least one step");
        assert_eq!(steps[0].at_secs, 0.0, "first step must start at 0");
        assert!(
            steps.windows(2).all(|w| w[0].at_secs < w[1].at_secs),
            "steps must be strictly ordered"
        );
        assert!(steps.last().unwrap().at_secs < duration_secs);
        Self { steps, duration_secs }
    }

    /// Cost under a billing model. Per-hour billing charges each node's
    /// rental span rounded up to whole hours; per-minute to whole minutes.
    /// Scale-in/scale-out is modeled as each node being rented for one
    /// contiguous span (nodes are retired latest-started first).
    pub fn cost(&self, price_per_hour: f64, billing: BillingModel) -> f64 {
        // Recover per-node rental spans from the step function.
        let mut spans: Vec<(f64, f64)> = Vec::new(); // (start, end)
        let mut active: Vec<f64> = Vec::new(); // start times of active nodes
        for (i, step) in self.steps.iter().enumerate() {
            let t = step.at_secs;
            while active.len() < step.nodes {
                active.push(t);
            }
            while active.len() > step.nodes {
                let start = active.pop().expect("non-empty");
                spans.push((start, t));
            }
            let _ = i;
        }
        for start in active {
            spans.push((start, self.duration_secs));
        }
        let model = CostModel { billing, price_per_hour };
        spans.iter().map(|&(s, e)| model.cost(1, e - s)).sum()
    }
}

/// Compare static vs dynamic plans under both billing models, returning
/// `(hourly_static, hourly_dynamic, minute_static, minute_dynamic)` USD.
pub fn compare_billing(
    static_plan: &DynamicPlan,
    dynamic_plan: &DynamicPlan,
    price_per_hour: f64,
) -> (f64, f64, f64, f64) {
    (
        static_plan.cost(price_per_hour, BillingModel::PerHour),
        dynamic_plan.cost(price_per_hour, BillingModel::PerHour),
        static_plan.cost(price_per_hour, BillingModel::PerMinute),
        dynamic_plan.cost(price_per_hour, BillingModel::PerMinute),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's motivating scenario: scale to 1 node during the blocking
    /// stage (stage 2 is ~40% of the makespan with one core busy).
    fn blocking_aware_plan() -> DynamicPlan {
        DynamicPlan::new(
            vec![
                ScaleAction { at_secs: 0.0, nodes: 4 },    // stage 1
                ScaleAction { at_secs: 1200.0, nodes: 1 }, // stage 2 (blocking)
                ScaleAction { at_secs: 2400.0, nodes: 4 }, // stage 3
            ],
            3000.0,
        )
    }

    #[test]
    fn per_minute_billing_rewards_scale_in() {
        let stat = DynamicPlan::fixed(4, 3000.0);
        let dynp = blocking_aware_plan();
        let (h_s, h_d, m_s, m_d) = compare_billing(&stat, &dynp, 1.68);
        // Hourly: all four nodes cross the hour boundary either way -> no
        // saving (the paper's point about charge-by-hour clouds).
        assert!(h_d >= h_s - 1e-9, "hourly dynamic {h_d} vs static {h_s}");
        // Per-minute: the 3 idle nodes during stage 2 stop billing.
        assert!(m_d < m_s, "minute dynamic {m_d} vs static {m_s}");
    }

    #[test]
    fn fixed_plan_hourly_cost_matches_cost_model() {
        let p = DynamicPlan::fixed(10, 600.0);
        assert!((p.cost(6.82, BillingModel::PerHour) - 68.2).abs() < 1e-9);
    }

    #[test]
    fn scale_out_spans_bill_separately() {
        // 2 nodes for 2 h; 2 more for the last hour.
        let p = DynamicPlan::new(
            vec![ScaleAction { at_secs: 0.0, nodes: 2 }, ScaleAction { at_secs: 3600.0, nodes: 4 }],
            7200.0,
        );
        // 2 nodes x 2 h + 2 nodes x 1 h = 6 node-hours.
        assert!((p.cost(1.0, BillingModel::PerHour) - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "first step")]
    fn plan_must_start_at_zero() {
        let _ = DynamicPlan::new(vec![ScaleAction { at_secs: 5.0, nodes: 1 }], 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly ordered")]
    fn plan_steps_must_be_ordered() {
        let _ = DynamicPlan::new(
            vec![ScaleAction { at_secs: 0.0, nodes: 1 }, ScaleAction { at_secs: 0.0, nodes: 2 }],
            10.0,
        );
    }
}
