//! What-if analysis: the cost/deadline frontier.
//!
//! The paper fixes one deadline (55 minutes) and designs clusters for it.
//! A scientist planning a campaign usually wants the whole trade-off
//! curve: *if I can wait twice as long, what does it cost?* This module
//! sweeps deadlines through Eq. 2 and the hourly cost model, yielding the
//! frontier and the cheapest plan per deadline.

use dewe_simcloud::{CostModel, InstanceType};

use crate::sizing::{required_nodes, ClusterPlan};

/// One frontier point: the cheapest plan meeting a deadline.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// Deadline, seconds.
    pub deadline_secs: f64,
    /// The winning plan.
    pub plan: ClusterPlan,
}

/// Sweep deadlines and return, per deadline, the cheapest instance-type
/// plan under hourly billing.
///
/// Eq. 2 gives the *minimum* node count for a deadline, but under
/// whole-hour billing that is not always the cheapest cluster: renting a
/// few more nodes can pull the runtime under an hour boundary and drop a
/// whole billed hour per node (the very effect that makes the paper target
/// 55 minutes). For each candidate type, plans are therefore evaluated at
/// the Eq. 2 minimum *and* at the node counts that land exactly within
/// each whole-hour budget not exceeding the deadline, taking the cheapest.
pub fn cost_deadline_frontier(
    candidates: &[(&'static InstanceType, f64)],
    workflows: usize,
    deadlines_secs: &[f64],
) -> Vec<FrontierPoint> {
    assert!(!candidates.is_empty() && workflows > 0);
    deadlines_secs
        .iter()
        .map(|&deadline| {
            let plan = candidates
                .iter()
                .map(|&(itype, index)| billing_aware_plan(itype, index, workflows, deadline))
                .min_by(|a, b| a.predicted_cost.partial_cmp(&b.predicted_cost).unwrap())
                .expect("non-empty candidates");
            FrontierPoint { deadline_secs: deadline, plan }
        })
        .collect()
}

/// The cheapest hourly-billed plan for one instance type meeting a
/// deadline: Eq. 2 sizing evaluated against the deadline itself and every
/// whole-hour budget under it.
pub fn billing_aware_plan(
    itype: &'static InstanceType,
    index: f64,
    workflows: usize,
    deadline_secs: f64,
) -> ClusterPlan {
    assert!(deadline_secs > 0.0);
    let mut targets = vec![deadline_secs];
    let mut hour = 3600.0;
    while hour < deadline_secs {
        targets.push(hour);
        hour += 3600.0;
    }
    targets
        .into_iter()
        .map(|t| plan_for(itype, index, workflows, t))
        .min_by(|a, b| {
            a.predicted_cost
                .partial_cmp(&b.predicted_cost)
                .unwrap()
                .then(a.predicted_secs.partial_cmp(&b.predicted_secs).unwrap())
        })
        .expect("at least the deadline target")
}

fn plan_for(
    itype: &'static InstanceType,
    index: f64,
    workflows: usize,
    deadline_secs: f64,
) -> ClusterPlan {
    let nodes = required_nodes(workflows, index, deadline_secs);
    let predicted_secs = workflows as f64 / (index * nodes as f64);
    let model = CostModel::hourly(itype.price_per_hour);
    let predicted_cost = model.cost(nodes, predicted_secs);
    ClusterPlan {
        instance: itype.name,
        nodes,
        index,
        predicted_secs,
        price_per_hour: itype.price_per_hour * nodes as f64,
        predicted_cost,
        price_per_workflow: predicted_cost / workflows as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_simcloud::{C3_8XLARGE, I2_8XLARGE, R3_8XLARGE};

    fn candidates() -> Vec<(&'static InstanceType, f64)> {
        vec![(&C3_8XLARGE, 0.0015), (&R3_8XLARGE, 0.0024), (&I2_8XLARGE, 0.0026)]
    }

    #[test]
    fn frontier_costs_are_nonincreasing() {
        let deadlines: Vec<f64> = (1..=8).map(|h| h as f64 * 1800.0).collect();
        let frontier = cost_deadline_frontier(&candidates(), 200, &deadlines);
        assert_eq!(frontier.len(), 8);
        for w in frontier.windows(2) {
            assert!(
                w[1].plan.predicted_cost <= w[0].plan.predicted_cost + 1e-9,
                "longer deadline must not cost more: {:?} -> {:?}",
                w[0].plan.predicted_cost,
                w[1].plan.predicted_cost
            );
        }
    }

    #[test]
    fn every_frontier_plan_meets_its_deadline() {
        let deadlines = [1800.0, 3300.0, 7200.0];
        for p in cost_deadline_frontier(&candidates(), 200, &deadlines) {
            assert!(p.plan.predicted_secs <= p.deadline_secs + 1e-9);
        }
    }

    #[test]
    fn paper_deadline_picks_c3() {
        // At T = 3300 s the c3 design is the cheapest (Table III / Fig 11c).
        let frontier = cost_deadline_frontier(&candidates(), 200, &[3300.0]);
        assert_eq!(frontier[0].plan.instance, "c3.8xlarge");
    }

    #[test]
    fn single_deadline_single_candidate() {
        let frontier = cost_deadline_frontier(&[(&C3_8XLARGE, 0.0015)], 50, &[3600.0]);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].plan.instance, "c3.8xlarge");
    }

    #[test]
    fn billing_aware_plan_beats_naive_eq2_across_hour_boundaries() {
        // Deadline 1.5 h: naive Eq. 2 rents the minimum nodes and bills two
        // hours each; the billing-aware plan rents more nodes, finishes
        // inside one hour, and is cheaper.
        let naive_nodes = crate::sizing::required_nodes(200, 0.0015, 5400.0);
        let naive_secs = 200.0 / (0.0015 * naive_nodes as f64);
        let naive_cost = CostModel::hourly(C3_8XLARGE.price_per_hour).cost(naive_nodes, naive_secs);
        let smart = billing_aware_plan(&C3_8XLARGE, 0.0015, 200, 5400.0);
        assert!(
            smart.predicted_cost < naive_cost,
            "billing-aware {} vs naive {naive_cost}",
            smart.predicted_cost
        );
        assert!(smart.predicted_secs <= 5400.0);
    }
}
